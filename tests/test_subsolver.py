"""Unit tests for the block subproblem solvers."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, strategies as st

from proxjacobi import jacobi, problems, subsolver
from proxjacobi.auglag import BlockObjective, subproblem_gradients
from proxjacobi.model import (BlockSpec, ConstraintSet, Params, Problem,
                              Quadratic, variable_splitting_transform)
from proxjacobi.subsolver import (STATUS_CONVERGED, STATUS_NUMERICAL_FAILURE,
                                  STATUS_STALLED, alm_cold_start,
                                  box_newton_rows, equality_alm_rows,
                                  project_box, solve_quadratic_exact)

from conftest import (acopf_rows, at_point, box_quadratic_min_enum,
                      mixed_problem, replace_equalities, spy_row_solvers,
                      state_at)
from reference import newton_directions_per_row, unbounded_below_per_row

PARAMS = Params(rho=1.0, theta=1.0, tau_x=0.5, tau_z=0.5)
W = PARAMS.rho + PARAMS.tau_x


def make_block_problem(objective, cset, m=0, b=None, A=None):
    n = cset.n
    coupling = sp.csr_matrix((m, n)) if A is None else sp.csr_matrix(A)
    blk = BlockSpec(n=n, objective=objective, set=cset, coupling=coupling)
    return Problem(m=m, b=np.zeros(m) if b is None else b, blocks=[blk])


def block_gradients(problem, warm=None, z_bar=None):
    """The warm start (zero by default) of a one-block problem and the
    subproblem gradients there."""
    warm = (np.zeros(problem.blocks[0].n) if warm is None
            else np.asarray(warm, dtype=float))
    z_bar = np.zeros(problem.m) if z_bar is None else z_bar
    return warm, subproblem_gradients(
        problem, state_at(problem, warm, z_bar, np.zeros(problem.m)),
        PARAMS.rho)


def block_model(problem, warm=None):
    """The one group of a one-block problem and the model of its
    subproblem about ``warm`` (the stack k = 1): (group, objective, X)."""
    grp, = problem.quadratic_groups
    warm, g = block_gradients(problem, warm)
    X = warm[None]
    return grp, BlockObjective(grp.hessian(W), grp.take(g), X), X


def box_newton(problem, warm=None, max_iter=500):
    """``box_newton_rows`` on the one block of a one-block problem, to
    1e-10: (its x, status, inner iterations and criticality, the block
    objective)."""
    grp, obj, X = block_model(problem, warm)
    out = box_newton_rows(obj, X, grp.lower, grp.upper, tol=1e-10,
                          max_iter=max_iter)
    return tuple(a[0] for a in out), obj


def sweep(monkeypatch, problem, warm=None, z_bar=None):
    """The sweep's solve of the one group of a one-block problem
    (``jacobi.solve_group``): (x, inner iterations, status, the calls of
    the iterative solvers that ``spy_row_solvers`` recorded)."""
    grp, = problem.quadratic_groups
    warm, g = block_gradients(problem, warm, z_bar)
    with monkeypatch.context() as mp:
        calls = spy_row_solvers(mp)
        x, inner, status, _ = jacobi.solve_group(grp, warm, g, W)
    return x[0], inner[0], status[0], calls


def qp_model(problem, warm=None):
    """``solve_box_qp`` on the model of a one-block problem's ``qp`` group
    about ``warm``: (x, mu, passes) of the block."""
    grp, obj, X = block_model(problem, warm)
    assert grp.kind == "qp"
    x, mu, passes = subsolver.solve_box_qp(
        obj.H, at_point(obj.gradient, np.zeros(grp.n))[None], grp.C, grp.d,
        grp.lower, grp.upper)
    return x[0], mu[0], passes[0]


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=5))
def test_project_box_idempotent(vals):
    x = np.asarray(vals)
    lo = np.full(x.size, -1.0)
    hi = np.full(x.size, 2.0)
    p = project_box(x, lo, hi)
    assert np.array_equal(project_box(p, lo, hi), p)
    assert np.all(p >= lo) and np.all(p <= hi)


def test_warm_start_clipped():
    cset = ConstraintSet(np.zeros(2), np.ones(2))
    prob = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), np.zeros(2)), cset)
    (x, _, inner, _), _ = box_newton(prob, warm=np.array([-3.0, 5.0]),
                                     max_iter=0)
    assert inner == 0
    assert np.array_equal(x, np.array([0.0, 1.0]))


def box_qp(H, g, C, d, lo, hi):
    """``solve_box_qp`` on one problem (k = 1): ``(x, mu, passes)``, or None
    when it finds no certified minimizer."""
    x, mu, passes = subsolver.solve_box_qp(H[None], g[None], C, d[None],
                                           lo[None], hi[None])
    return (x[0], mu[0], passes[0]) if passes[0] else None


def exact_step(problem, warm):
    """The batched exact step of the problem's one quadratic group from
    ``warm``: (new x, ok, the block objective)."""
    grp, obj, _ = block_model(problem, warm)
    H, H_inv, ok = grp.hessian_factor(W)
    dx, solved = solve_quadratic_exact(H, H_inv,
                                       obj.gradient(warm[None], [0]))
    return warm + dx[0], ok[0] and solved[0], obj


def test_quadratic_exact_unconstrained():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    Q = M.T @ M + np.eye(3)
    c = rng.standard_normal(3)
    cset = ConstraintSet(np.full(3, -np.inf), np.full(3, np.inf))
    prob = make_block_problem(Quadratic(sp.csr_matrix(Q), c), cset,
                              m=1, b=np.zeros(1), A=rng.standard_normal((1, 3)))
    x, ok, obj = exact_step(prob, rng.standard_normal(3))
    assert ok
    # the minimizer satisfies the full subproblem stationarity
    assert np.linalg.norm(at_point(obj.gradient, x)) < 1e-8


def test_quadratic_exact_indefinite_fails():
    cset = ConstraintSet(np.full(1, -np.inf), np.full(1, np.inf))
    prob = make_block_problem(
        Quadratic(sp.csr_matrix(np.array([[-10.0]])), np.zeros(1)), cset)
    _, ok, _ = exact_step(prob, np.zeros(1))
    assert not ok
    # a non-finite gradient fails the step as well
    _, solved = solve_quadratic_exact(np.eye(1)[None], np.eye(1)[None],
                                      np.full((1, 1), np.nan))
    assert not solved[0]


def test_dispatch_nonfinite_data_fails(monkeypatch):
    # a NaN zbar (a diverged outer iterate) must not raise from a solver:
    # the exact step fails, and so does projected Newton after it
    cset = ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf))
    prob = make_block_problem(Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
                              cset, m=1, A=np.ones((1, 2)))
    _, _, status, calls = sweep(monkeypatch, prob, z_bar=np.full(1, np.nan))
    assert [c[:2] for c in calls] == [("box-newton", [0])]
    assert status == subsolver.STATUS_NUMERICAL_FAILURE


def test_hessian_factor_follows_weight():
    # each change of rho + tau_x refactors an exact group's Hessians and
    # rebuilds a qp group's starting KKT system (x0 fixed, x1 + x2 = 1); a
    # stale one is never reused, and an unchanged weight reuses it
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3))
    A = rng.standard_normal((2, 3))
    f = Quadratic(sp.csr_matrix(M.T @ M), np.zeros(3))
    free = ConstraintSet(np.full(3, -np.inf), np.full(3, np.inf))
    box_row = ConstraintSet(
        np.array([0.2, -1.0, -np.inf]), np.array([0.2, 1.0, np.inf]),
        [Quadratic(sp.csr_matrix((3, 3)), np.array([0.0, 1.0, 1.0]), -1.0)])
    (exact,), (qp,) = (make_block_problem(f, cset, m=2, A=A).quadratic_groups
                       for cset in (free, box_row))
    assert (exact.kind, qp.kind) == ("exact", "qp")
    assert np.allclose(exact.AtA[0], A.T @ A, rtol=1e-14, atol=0.0)
    for w in (1.5, 40.0, 1.5):
        H = exact.Q + w * exact.AtA
        H_w, H_inv, ok = exact.hessian_factor(w)
        assert ok[0]
        assert np.array_equal(H_w, H)
        assert np.array_equal(H_inv, np.linalg.inv(H))
        system = qp.kkt_start(w)
        assert qp.kkt_start(w) is system
        assert system.free.tolist() == [[False, True, True]]
        fresh = subsolver.start_system(H, qp.C, qp.d, qp.lower, qp.upper)
        for cached, built in zip(system, fresh):
            assert np.array_equal(cached, built)


def test_box_newton_clamps_to_bound(monkeypatch):
    # (x - 2)^2 over [0, 1] has its constrained minimum at 1
    cset = ConstraintSet(np.zeros(1), np.ones(1))
    f = Quadratic(sp.csr_matrix(np.array([[2.0]])), np.array([-4.0]), 4.0)
    prob = make_block_problem(f, cset)
    x, inner, status, calls = sweep(monkeypatch, prob)
    (solver, blocks, (x_row, _, inner_row, _)), = calls
    assert status == STATUS_CONVERGED
    assert solver == "box-newton" and blocks == [0]
    assert inner == inner_row[0] and np.array_equal(x, x_row[0])
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_box_newton_monotone():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = 4
        M = rng.standard_normal((n, n))
        f = Quadratic(sp.csr_matrix(M.T @ M + np.eye(n)),
                      rng.standard_normal(n))
        cset = ConstraintSet(-np.ones(n), np.ones(n))
        prob = make_block_problem(f, cset)
        warm = rng.uniform(-1, 1, n)
        (x, _, _, _), obj = box_newton(prob, warm=warm)
        assert at_point(obj.value, x) <= at_point(obj.value, warm) + 1e-12


def test_box_block_unbounded_below_fails_at_once(monkeypatch):
    # Q = diag(1, -1): negative curvature along x1, which has no finite
    # bound, makes the block subproblem unbounded below; with x1 boxed,
    # projected Newton from x1 = 0.5 stops at the local minimum on x1's
    # upper bound
    f = Quadratic(sp.diags([1.0, -1.0], format="csr"), np.array([0.5, 0.1]))
    free = make_block_problem(f, ConstraintSet(np.array([0.0, -np.inf]),
                                               np.array([1.0, np.inf])))
    _, inner, status, calls = sweep(monkeypatch, free)
    (_, _, (_, _, inner_row, _)), = calls
    assert status == STATUS_NUMERICAL_FAILURE
    assert inner == inner_row[0] == 0
    half = make_block_problem(f, ConstraintSet(np.array([-np.inf, -2.0]),
                                               np.array([np.inf, 2.0])))
    x, _, status, calls = sweep(monkeypatch, half, warm=np.array([0.0, 0.5]))
    assert status == STATUS_CONVERGED
    assert [c[:2] for c in calls] == [("box-newton", [0])]
    assert np.allclose(x, [-0.5, 2.0], rtol=0.0, atol=1e-9)


def test_dispatch_nonfinite_hessian_fails():
    class NanModel:
        def value(self, X, rows):
            return np.zeros(len(X))

        def gradient(self, X, rows):
            return np.zeros((len(X), 2))

        def hessian(self, X, rows):
            return np.full((len(X), 2, 2), np.nan)

    _, status, inner, _ = box_newton_rows(NanModel(), np.zeros((1, 2)),
                                          np.zeros((1, 2)), np.ones((1, 2)))
    assert status[0] == STATUS_NUMERICAL_FAILURE
    assert inner[0] == 0


def test_box_newton_memory_stays_quadratic():
    # one block of n = 300 with a box: a Newton step allocates a few n x n
    # arrays (Hessian, free block, ridge term, factor), never a stack of
    # identities of every size up to n (n^3/3 doubles, 100 n^2 here)
    n = 300
    rng = np.random.default_rng(6)
    M = rng.standard_normal((n, n))
    f = Quadratic(sp.csr_matrix(M.T @ M / n + np.eye(n)),
                  3.0 * rng.standard_normal(n))
    prob = make_block_problem(f, ConstraintSet(-np.ones(n), np.ones(n)))
    grp, obj, X = block_model(prob)
    tracemalloc.start()
    try:
        _, status, inner, _ = box_newton_rows(obj, X, grp.lower, grp.upper,
                                              tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status[0] == STATUS_CONVERGED and inner[0] > 1
    assert peak <= 16 * 8 * n * n


def test_box_newton_matches_enumeration():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = 3
        M = rng.standard_normal((n, n))
        Q = M.T @ M + np.eye(n)
        c = 3.0 * rng.standard_normal(n)
        lo, hi = -np.ones(n), np.ones(n)
        cset = ConstraintSet(lo, hi)
        prob = make_block_problem(Quadratic(sp.csr_matrix(Q), c), cset)
        (x, _, _, _), obj = box_newton(prob, warm=np.zeros(n))
        # compare against brute-force active-set enumeration of the full
        # subproblem objective (A is empty, so the block model is
        # f(x) - f(warm), and f(warm) = f(0) = 0)
        best = box_quadratic_min_enum(Q, c, 0.0, lo, hi)
        assert at_point(obj.value, x) == pytest.approx(best, abs=1e-8)


def test_quadratic_kkt_linear_equality():
    # min (x0-1)^2 + (x1-1)^2 s.t. x0 + x1 = 3 -> x = (1.5, 1.5), mu = -1
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf), [eq])
    prob = make_block_problem(f, cset)
    x, mu, passes = qp_model(prob)
    assert passes > 0
    assert np.allclose(x, [1.5, 1.5], atol=1e-10)
    assert mu[0] == pytest.approx(-1.0, abs=1e-10)


def test_quadratic_kkt_active_bound(monkeypatch):
    # the upper bound 1.2 cuts off (1.5, 1.5): the active set pins x0 and
    # the equality gives x = (1.2, 1.8)
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.full(2, -np.inf), np.array([1.2, np.inf]), [eq])
    prob = make_block_problem(f, cset)
    x, _, passes = qp_model(prob)
    assert passes == 2
    assert np.allclose(x, [1.2, 1.8], rtol=0.0, atol=1e-12)
    x, inner, status, calls = sweep(monkeypatch, prob)
    assert calls == [] and inner == 2 and status == STATUS_CONVERGED
    assert np.allclose(x, [1.2, 1.8], rtol=0.0, atol=1e-12)


def test_box_qp_matches_enumeration():
    rng = np.random.default_rng(6)
    for trial in range(30):
        n = 1 + trial % 3
        M = rng.standard_normal((n, n))
        Q = M.T @ M + 0.1 * np.eye(n)
        c = 3.0 * rng.standard_normal(n)
        lo = -rng.uniform(0.2, 1.0, n)
        hi = rng.uniform(0.2, 1.0, n)
        lo[rng.uniform(size=n) < 0.2] = -np.inf
        x, mu, _ = box_qp(Q, c, np.zeros((0, n)), np.zeros(0), lo, hi)
        assert mu.size == 0
        assert np.all(x >= lo) and np.all(x <= hi)
        best = box_quadratic_min_enum(Q, c, 0.0, lo, hi)
        assert 0.5 * x @ Q @ x + c @ x == pytest.approx(best, abs=1e-10)
    # min |x - (2, 0, -1)|^2 s.t. x0 + x1 + x2 = 0 over [-0.5, 0.5]^3: the
    # bounds on x0 and x2 are active, x1 = 0, and the multipliers certify it
    Q, c = 2.0 * np.eye(3), np.array([-4.0, 0.0, 2.0])
    C, d = np.ones((1, 3)), np.zeros(1)
    lo, hi = np.full(3, -0.5), np.full(3, 0.5)
    x, mu, _ = box_qp(Q, c, C, d, lo, hi)
    assert np.allclose(x, [0.5, 0.0, -0.5], rtol=0.0, atol=1e-14)
    assert np.max(np.abs(C @ x - d)) <= 1e-14
    box_mult = Q @ x + c + C.T @ mu
    assert abs(box_mult[1]) <= 1e-14             # free: stationary
    assert box_mult[0] < 0 and box_mult[2] > 0   # upper / lower: right sign


def test_box_qp_certifies_strict_minimizers():
    # the saddle (0, 0) of diag(1, -1) over [-1, 1]^2 is a KKT point of the
    # free coordinates, but not a minimizer
    H, none = np.diag([1.0, -1.0]), np.zeros((0, 2))
    box = (-np.ones(2), np.ones(2))
    assert box_qp(H, np.zeros(2), none, np.zeros(0), *box) is None
    # with x1 = 0 as an equality row, H is positive definite on the rows'
    # null space: the KKT matrix has one negative eigenvalue, one per row
    x, mu, _ = box_qp(H, np.array([-0.5, 0.0]), np.array([[0.0, 1.0]]),
                      np.zeros(1), *box)
    assert np.allclose(x, [0.5, 0.0], rtol=0.0, atol=1e-14)


def test_batched_box_qp_matches_single_rows():
    # a stack of random strictly convex problems with shared rows C and
    # finite, half-infinite and pinned (lo = hi) bounds: each row of the
    # batched solve is the k = 1 solve of that row, bit for bit, whether
    # each first pass solves by LU or by the inverses of its own starting
    # system (``start_system``), and a certified row is a KKT point.  (A
    # pass that pins so many coordinates that C has no full rank on the
    # free ones is singular: such rows fail, in both.)  Row 0 has every
    # coordinate pinned, so its starting KKT system is singular (NaN
    # inverse); row 1's NaN gradient keeps it out of every pass, so the
    # stack's first pass gathers the other rows' systems
    rng = np.random.default_rng(11)
    k, n, r = 40, 5, 2
    M = rng.standard_normal((k, n, n))
    H = np.swapaxes(M, 1, 2) @ M + 0.1 * np.eye(n)
    g = 3.0 * rng.standard_normal((k, n))
    C = rng.standard_normal((r, n))
    # a feasible point of each row: its box holds it, and d = C x_feas
    x_feas = rng.uniform(-0.2, 0.2, (k, n))
    lo = x_feas - rng.uniform(0.1, 1.0, (k, n))
    hi = x_feas + rng.uniform(0.1, 1.0, (k, n))
    lo[rng.uniform(size=(k, n)) < 0.15] = -np.inf
    pin = rng.uniform(size=(k, n)) < 0.15
    pin[0] = True
    lo[pin] = hi[pin] = x_feas[pin]
    g[1, 2] = np.nan
    d = x_feas @ C.T
    for cached in (False, True):
        def start(rows):
            return (subsolver.start_system(H[rows], C, d[rows], lo[rows],
                                           hi[rows]) if cached else None)
        x, mu, passes = subsolver.solve_box_qp(H, g, C, d, lo, hi,
                                               start=start(slice(None)))
        for i in range(k):
            one = slice(i, i + 1)
            xi, mui, pi = subsolver.solve_box_qp(
                H[one], g[one], C, d[one], lo[one], hi[one], start=start(one))
            assert pi[0] == passes[i]
            assert np.array_equal(xi[0], x[i])
            assert np.array_equal(mui[0], mu[i])
        assert passes[0] == passes[1] == 0
        if cached:
            assert np.isnan(start(slice(0, 1)).inv).all()
        ok = passes > 0
        assert np.sum(ok) >= 30 and np.max(passes) >= 4
        assert np.sum(passes == 1) >= 5
        assert np.any(pin[ok])
        xo, muo, Ho, go, loo, hio, pino = (
            a[ok] for a in (x, mu, H, g, lo, hi, pin))
        assert np.array_equal(xo[pino], loo[pino])
        assert np.all(xo >= loo) and np.all(xo <= hio)
        assert np.allclose(xo @ C.T, d[ok], rtol=0.0, atol=1e-10)
        box_mult = (Ho @ xo[..., None])[..., 0] + go + muo @ C
        inside = (xo > loo) & (xo < hio)
        assert np.all(np.abs(box_mult[inside]) <= 1e-9)
        assert np.all(box_mult[(xo == loo) & ~pino] >= -1e-9)
        assert np.all(box_mult[(xo == hio) & ~pino] <= 1e-9)


def test_batched_box_qp_pin_and_release():
    # row 0: the unconstrained minimizer of (x0, x1) is (-1, -0.5); the
    # first pass pins both at 0, the second releases x1, whose multiplier
    # is -0.4, and the third settles at (0, 0.4).  Row 1 holds x0 pinned at
    # 0.2 (lo = hi) and settles at once.  The row C = (0, 0, 1) sets x2.
    H = np.array([[1.0, -0.9, 0.0], [-0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = np.array([0.55, -0.4, 0.0])
    lo = np.array([[0.0, 0.0, -np.inf], [0.2, 0.0, -np.inf]])
    hi = np.array([[np.inf, np.inf, np.inf], [0.2, np.inf, np.inf]])
    x, mu, passes = subsolver.solve_box_qp(
        np.stack([H, H]), np.stack([g, g]), np.array([[0.0, 0.0, 1.0]]),
        np.array([[0.5], [0.5]]), lo, hi)
    assert passes.tolist() == [3, 1]
    assert np.allclose(x, [[0.0, 0.4, 0.5], [0.2, 0.58, 0.5]], rtol=0.0,
                       atol=1e-14)
    assert np.allclose(mu, [[-0.5], [-0.5]], rtol=0.0, atol=1e-14)


def test_batched_box_qp_certificates():
    # rows sharing x1 = 0: row 0's free Hessian diag(1, -1) fails Cholesky,
    # but its KKT matrix has the inertia of a strict minimizer; row 1 is
    # positive definite; row 2, diag(-1, 1), is a saddle in the rows' null
    # space and gets no certificate
    H = np.stack([np.diag([1.0, -1.0]), np.diag([2.0, 3.0]),
                  np.diag([-1.0, 1.0])])
    g = np.array([[-0.5, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    box = (-np.ones((3, 2)), np.ones((3, 2)))
    x, mu, passes = subsolver.solve_box_qp(H, g, np.array([[0.0, 1.0]]),
                                           np.zeros((3, 1)), *box)
    assert passes.tolist() == [1, 1, 0]
    assert np.allclose(x, [[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]], rtol=0.0,
                       atol=1e-14)


def test_split_saddle_block_not_accepted(monkeypatch):
    # the split form of mixed_problem's block 3 at w = rho + tau_x = 0.5:
    # its KKT point has the reduced Hessian eigenvalues (-0.25, 1), so the
    # QP of its group does not certify it, and the block alone takes the
    # ALM path
    prob = variable_splitting_transform(mixed_problem())
    params = Params(rho=0.5 / 3.0, theta=4.0, tau_x=1.0 / 3.0, tau_z=8.0)
    vec = np.zeros(sum(prob.dims))
    g = subproblem_gradients(
        prob, state_at(prob, vec, np.zeros(prob.m), np.zeros(prob.m)),
        params.rho)
    grp, = [grp for grp in prob.quadratic_groups if 3 in grp.blocks]
    assert grp.kind == "qp"
    w = params.rho + params.tau_x
    X, G, H = grp.take(vec), grp.take(g), grp.hessian(w)
    _, _, passes = subsolver.solve_box_qp(
        H, G - (H @ X[..., None])[..., 0], grp.C, grp.d, grp.lower,
        grp.upper)
    assert [t for t, p in zip(grp.blocks, passes) if not p] == [3]
    calls = spy_row_solvers(monkeypatch)
    _, _, status, _ = jacobi.solve_group(grp, vec, g, w)
    assert [c[:2] for c in calls] == [("equality-alm", [3])]
    assert status[grp.blocks.index(3)] != STATUS_CONVERGED


def test_quadratic_kkt_pinned_coordinates():
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.array([2.0, -np.inf]), np.array([2.0, np.inf]),
                         [eq])
    prob = make_block_problem(f, cset)
    x, _, passes = qp_model(prob)
    assert passes > 0
    assert np.allclose(x, [2.0, 1.0], atol=1e-10)


def test_equality_alm_nonlinear_constraint():
    # min (x0-2)^2 + (x1-2)^2 s.t. x0^2 + x1^2 = 2 -> x = (1, 1)
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -4.0), 8.0)
    circle = Quadratic(2.0 * sp.eye(2, format="csr"), np.zeros(2), -2.0)
    cset = ConstraintSet(np.zeros(2), np.full(2, 3.0), [circle])
    prob = make_block_problem(f, cset)
    grp, obj, X = block_model(prob, warm=np.array([1.5, 0.5]))
    assert grp.kind == "alm" and grp.blocks == [0]
    x, status, _, _, _, _ = equality_alm_rows(
        obj, grp.equality_map, grp.d, X, grp.lower, grp.upper,
        *alm_cold_start(*grp.d.shape), tol=1e-9)
    assert status[0] == STATUS_CONVERGED
    assert np.allclose(x[0], [1.0, 1.0], atol=1e-6)


def test_dispatch_routing(monkeypatch):
    # each block forms a group of one, whose kind names its solver: the
    # exact step and the QP report no iterative solve
    rng = np.random.default_rng(8)
    unconstrained = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), rng.standard_normal(2)),
        ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf)))
    boxed = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), rng.standard_normal(2)),
        ConstraintSet(np.zeros(2), np.ones(2)))
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -1.0)
    linear_eq = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
        ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf), [eq]))
    circle = Quadratic(2.0 * sp.eye(2, format="csr"), np.zeros(2), -2.0)
    nonlinear_eq = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
        ConstraintSet(np.zeros(2), np.full(2, 3.0), [circle]))
    C, d = linear_eq.blocks[0].set.linear_rows
    assert np.array_equal(C, [[1.0, 1.0]]) and np.array_equal(d, [1.0])
    assert nonlinear_eq.blocks[0].set.linear_rows is None
    for prob, kind, solver, warm in [
            (unconstrained, "exact", None, None),
            (boxed, "box", "box-newton", None),
            (linear_eq, "qp", None, None),
            (nonlinear_eq, "alm", "equality-alm", np.ones(2))]:
        grp, = prob.quadratic_groups
        assert grp.kind == kind and grp.blocks == [0]
        _, inner, _, calls = sweep(monkeypatch, prob, warm=warm)
        assert [c[:2] for c in calls] == ([(solver, [0])] if solver else [])
        assert inner >= 1
    # an unconstrained block whose exact step fails goes to projected
    # Newton
    concave = make_block_problem(
        Quadratic(sp.diags([1.0, -5.0], format="csr"), np.zeros(2)),
        ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf)))
    assert [c[:2] for c in sweep(monkeypatch, concave)[3]] == [
        ("box-newton", [0])]


def stacked_alm(grp, H, G, X, start=None):
    """The ALM on the whole stack, from ``start`` = (y, sigma), cold when
    None."""
    y, sigma = start or alm_cold_start(*grp.d.shape)
    return equality_alm_rows(BlockObjective(H, G, X), grp.equality_map,
                             grp.d, X, grp.lower, grp.upper, y, sigma)


def one_block_alm(prob, H, G, X, i, t, start=None):
    """The ALM on row i of the stack alone (k = 1), as block t with its own
    map and box, from row i of ``start`` (cold when None): the one row of
    each array it returns (x, status, inner, crit, y, sigma)."""
    cset = prob.blocks[t].set
    y, sigma = start or alm_cold_start(len(X), len(cset.equality_map.d))
    out = equality_alm_rows(
        BlockObjective(H[i:i + 1], G[i:i + 1], X[i:i + 1]),
        cset.equality_map, cset.equality_map.d[None], X[i:i + 1],
        cset.lower[None], cset.upper[None], y[i:i + 1], sigma[i:i + 1])
    return tuple(a[0] for a in out)


def test_batched_alm_rows_match_one_block_solves(monkeypatch):
    # each row of one stacked ALM call computes what the k = 1 call on its
    # block computes, bit for bit, whatever the other rows do: row 1 stops
    # after one round, row 3 (infeasible) stalls in round 1 after 5 inner
    # iterations, row 4 (NaN model) in numerical failure, and row 5 (stiff)
    # raises its penalty in rounds where rows 0 and 2 do not; the rows
    # differ in loads and warm starts
    prob, grp, H, G, X = acopf_rows()
    assert len({tuple(d) for d in grp.d}) == len(grp.blocks)
    sizes = []
    real = subsolver.box_newton_rows

    def recording(obj, X, *args, **kwargs):
        sizes.append(len(X))
        return real(obj, X, *args, **kwargs)

    monkeypatch.setattr(subsolver, "box_newton_rows", recording)
    x, status, inner, crit, mu, sigma = stacked_alm(grp, H, G, X)
    monkeypatch.setattr(subsolver, "box_newton_rows", real)
    assert list(status) == [
        STATUS_CONVERGED, STATUS_CONVERGED, STATUS_CONVERGED,
        STATUS_STALLED, STATUS_NUMERICAL_FAILURE, STATUS_CONVERGED]
    assert inner[1] == 1 and inner[4] == 0
    assert inner[3] == 5
    assert len(set(inner)) >= 5
    # rows leave the lockstep loop as they finish: rows 1 and 4 after the
    # first round
    assert sizes[:2] == [6, 4] and sizes == sorted(sizes, reverse=True)
    for i, t in enumerate(grp.blocks):
        x_t, status_t, inner_t, crit_t, mu_t, sigma_t = one_block_alm(
            prob, H, G, X, i, t)
        assert status[i] == status_t, t
        assert inner[i] == inner_t, t
        assert np.array_equal(x[i], x_t), t
        assert np.array_equal(mu[i], mu_t), t
        assert crit[i] == crit_t, t
        assert sigma[i] == sigma_t, t
    # the penalty reported is the one of the returned point: row 5 raised
    # its penalty beyond the others'
    assert sigma[1] == subsolver.ALM_SIGMA_INIT
    assert sigma[5] > max(sigma[0], sigma[2])


def test_warm_alm_rows_match_one_block_solves():
    # rows started from their own multipliers and penalties (those of a
    # first solve, perturbed, and a cold row) compute what the k = 1 call
    # from the same start computes, bit for bit, and a converged row
    # restarted from its own end needs fewer inner iterations
    prob, grp, H, G, X = acopf_rows(early=None, capped=None, bad=None)
    _, first_status, first_inner, _, first_mu, first_sigma = stacked_alm(
        grp, H, G, X)
    assert all(first_status == STATUS_CONVERGED)
    rng = np.random.default_rng(1)
    y = first_mu.copy()
    y *= 1.0 + 1e-3 * rng.standard_normal(y.shape)
    sigma = first_sigma.copy()
    y[2], sigma[2] = 0.0, subsolver.ALM_SIGMA_INIT
    x, status, inner, _, mu, sigma_end = stacked_alm(grp, H, G, X,
                                                     (y, sigma))
    for i, t in enumerate(grp.blocks):
        x_t, status_t, inner_t, _, mu_t, sigma_t = one_block_alm(
            prob, H, G, X, i, t, (y, sigma))
        assert status[i] == status_t == STATUS_CONVERGED, t
        assert inner[i] == inner_t, t
        assert np.array_equal(x[i], x_t), t
        assert np.array_equal(mu[i], mu_t), t
        assert sigma_end[i] == sigma_t, t
    assert inner[2] == first_inner[2]
    assert sum(inner) < sum(first_inner)


def test_alm_rows_with_a_quadratic_row_match_one_block_solves():
    # the periods of an ACOPF toy that share one Q != 0 row, a voltage
    # circle sum V_i^2 / 2 = r_t with a radius of their own, are one alm
    # group; each row of its stacked ALM call is the k = 1 solve of its
    # block, bit for bit, and meets its block's equalities and box
    T = 5
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=T), T)
    bal = prob.blocks[0].set.equalities[0]
    n = prob.blocks[0].n
    on_v = np.zeros(n)
    on_v[bal.v_offset:bal.v_offset + bal.nbus] = 1.0
    for t, radius in enumerate(np.linspace(0.97, 1.03, T)):
        circle = Quadratic(sp.diags(on_v, format="csr"), np.zeros(n),
                           -0.5 * bal.nbus * radius ** 2)
        prob = replace_equalities(
            prob, t, prob.blocks[t].set.equalities + [circle])
    grp, = prob.quadratic_groups
    assert grp.kind == "alm" and grp.blocks == list(range(T))
    rng = np.random.default_rng(2)
    X = rng.uniform(prob.lower, prob.upper).reshape(T, -1)
    g = subproblem_gradients(prob, state_at(
        prob, X.ravel(), np.zeros(prob.m), rng.standard_normal(prob.m)), 1.0)
    H, G = grp.hessian(3.0), grp.take(g)
    out = stacked_alm(grp, H, G, X)
    assert all(out[1] == STATUS_CONVERGED)
    for i, t in enumerate(grp.blocks):
        for got, want in zip(out, one_block_alm(prob, H, G, X, i, t)):
            assert np.array_equal(got[i], want), t
        assert prob.blocks[t].set.violation(out[0][i]) <= 1e-8


def test_batched_alm_rows_ignore_the_others():
    # dropping the capped and the failing rows from the stack changes no
    # other row's result
    prob, grp, H, G, X = acopf_rows()
    full_x, _, full_inner, _, _, _ = stacked_alm(grp, H, G, X)
    _, grp2, H2, G2, X2 = acopf_rows(capped=None, bad=None)
    keep = [0, 1, 2, 5]
    part_x, _, part_inner, _, _, _ = stacked_alm(grp2, H2, G2, X2)
    for i in keep:
        assert np.array_equal(full_x[i], part_x[i])
        assert full_inner[i] == part_inner[i]


def test_batched_alm_feasible_rows():
    # the converged rows meet their own balances, not another row's
    prob, grp, H, G, X = acopf_rows()
    x, status, _, _, _, _ = stacked_alm(grp, H, G, X)
    for i, t in enumerate(grp.blocks):
        if status[i] == STATUS_CONVERGED:
            assert prob.blocks[t].set.violation(x[i]) <= 1e-8
            c = grp.equality_map.values(x[i], grp.d[i])
            assert np.max(np.abs(c)) <= 1e-8


def test_box_group_rows_match_one_block_solves(monkeypatch):
    # five box-only blocks of n = 3, block t coupled through row t alone,
    # are one group; each row of its one stacked projected-Newton call is,
    # bit for bit, the solve of that block as the one block of a problem of
    # its own (coupling row t, with its b, z and lambda).  Block 1 is
    # indefinite on a finite box, block 2 unbounded below along its free
    # coordinate (it fails at once), block 3 has a NaN in c, and block 4
    # starts at its minimizer
    rng = np.random.default_rng(12)
    T, n = 5, 3
    lo, hi = -np.ones(n), np.ones(n)
    half = (np.array([-1.0, -np.inf, -1.0]), np.array([1.0, np.inf, 1.0]))

    def spd():
        M = rng.standard_normal((n, n))
        return M.T @ M + np.eye(n)

    Qs = [spd(), np.diag([2.0, -1.0, 0.5]), np.diag([1.0, -5.0, 1.0]),
          spd(), spd()]
    cs = [3.0 * rng.standard_normal(n) for _ in range(T)]
    cs[3][1] = np.nan
    boxes = [(lo, hi), (lo, hi), half, (lo, hi), (lo, hi)]
    rows = [rng.standard_normal(n) for _ in range(T)]
    rows[2] = np.array([1.0, 0.0, 0.0])
    b, z, lam = (rng.standard_normal(T) for _ in range(3))
    x0 = rng.uniform(-0.5, 0.5, (T, n))
    blocks = []
    for t in range(T):
        A = np.zeros((T, n))
        A[t] = rows[t]
        blocks.append(BlockSpec(n=n, objective=Quadratic(
            sp.csr_matrix(Qs[t]), cs[t]), set=ConstraintSet(*boxes[t]),
            coupling=A))
    prob = Problem(m=T, b=b, blocks=blocks)
    grp, = prob.quadratic_groups
    assert grp.kind == "box" and grp.blocks == list(range(T))
    # block 4's warm start: the minimizer of its model, found from x0
    g = subproblem_gradients(prob, state_at(prob, x0.ravel(), z, lam),
                             PARAMS.rho)
    x, _, _, _ = jacobi.solve_group(grp, x0.ravel(), g, W)
    x0[4] = x[4]
    vec = x0.ravel()
    g = subproblem_gradients(prob, state_at(prob, vec, z, lam), PARAMS.rho)
    calls = spy_row_solvers(monkeypatch)
    x, inner, status, _ = jacobi.solve_group(grp, vec, g, W)
    (solver, routed, (_, _, _, crit)), = calls
    assert solver == "box-newton" and routed == grp.blocks
    assert list(status) == [
        STATUS_CONVERGED, STATUS_CONVERGED, STATUS_NUMERICAL_FAILURE,
        STATUS_NUMERICAL_FAILURE, STATUS_CONVERGED]
    assert inner[2] == inner[3] == 0 and inner[4] == 1
    assert inner[0] > 1 and inner[1] > 1
    for t, blk in enumerate(blocks):
        one = Problem(m=1, b=b[t:t + 1], blocks=[BlockSpec(
            n=n, objective=blk.objective, set=blk.set,
            coupling=blk.coupling[t:t + 1])])
        one_grp, = one.quadratic_groups
        assert one_grp.kind == "box"
        g_t = subproblem_gradients(
            one, state_at(one, x0[t], z[t:t + 1], lam[t:t + 1]), PARAMS.rho)
        assert np.array_equal(g_t, g[t * n:(t + 1) * n], equal_nan=True)
        x_t, inner_t, status_t, _ = jacobi.solve_group(one_grp, x0[t], g_t,
                                                       W)
        _, blocks_t, (_, _, _, crit_t) = calls[t + 1]
        assert blocks_t == [0], t
        assert np.array_equal(x_t[0], x[t]), t
        assert inner_t[0] == inner[t], t
        assert status_t[0] == status[t], t
        assert crit_t[0] == crit[t], t


def newton_stack():
    """A stack of n = 5 Newton systems (H, G, free) whose rows take every
    path of ``_newton_directions``: positive definite rows, with and
    without pinned coordinates; rows that factor only under a ridge (one
    slightly, one strongly indefinite); a row that no ridge below 1e12 s
    factors (eigenvalues +-1e15, zero diagonal); a row with a NaN on its
    free coordinates, and one with a NaN on a pinned coordinate only; and
    a row with one free coordinate."""
    rng = np.random.default_rng(21)
    n = 5

    def spectrum(eig):
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (U * eig) @ U.T

    def spd():
        M = rng.standard_normal((n, n))
        return M @ M.T + np.eye(n)

    saddle = np.zeros((n, n))
    saddle[0, 1] = saddle[1, 0] = 1e15
    nan_free, nan_pinned = spd(), spd()
    nan_free[2, 2] = np.nan
    nan_pinned[4, 1] = nan_pinned[1, 4] = np.nan
    H = np.stack([spd(), spd(), spectrum([-1e-2, 1.0, 2.0, 3.0, 4.0]),
                  spectrum([-50.0, 1.0, 2.0, 3.0, 4.0]), saddle, nan_free,
                  nan_pinned, spd()])
    G = 3.0 * rng.standard_normal((len(H), n))
    free = np.ones((len(H), n), dtype=bool)
    free[1, [0, 3]] = False
    free[3, 4] = False
    free[6, 4] = False
    free[7, 1:] = False
    return H, G, free


def test_newton_directions_row_contract():
    # every row of the batched call is, bit for bit, its own k = 1 call,
    # and within 1e-12 relative of the per-row LAPACK ladder (which solves
    # by the Cholesky factor, not by LU: the last bits differ)
    H, G, free = newton_stack()
    D = subsolver._newton_directions(H, G, free)
    ref = newton_directions_per_row(H, G, free)
    for i in range(len(H)):
        one = subsolver._newton_directions(H[i:i + 1], G[i:i + 1],
                                           free[i:i + 1])
        assert np.array_equal(one[0], D[i]), i
        assert np.all(D[i][~free[i]] == 0.0), i
        assert np.max(np.abs(D[i] - ref[i])) <= 1e-12 * max(
            1.0, np.max(np.abs(ref[i]))), i
    # the saddle and the NaN row take -g_f; the NaN on a pinned coordinate
    # is never read
    for i in (4, 5):
        assert np.array_equal(D[i], np.where(free[i], -G[i], 0.0)), i
    assert np.isfinite(D[6]).all()
    assert not np.array_equal(D[6], np.where(free[6], -G[6], 0.0))


@pytest.mark.parametrize("seed", range(4))
def test_unbounded_below_matches_per_row_screen(seed):
    # rows of n = 6 with bounded and unbounded coordinates mixed, positive
    # semidefinite up to rounding (rank 3), indefinite, not finite (also on
    # bounded coordinates only), and with no unbounded coordinate
    rng = np.random.default_rng(seed)
    k, n = 40, 6
    kind = rng.integers(0, 5, k)
    M = rng.standard_normal((k, n, n))
    M[kind == 0, :, 3:] = 0.0
    H = M @ np.swapaxes(M, 1, 2)
    indefinite = kind == 1
    H[indefinite] -= rng.uniform(0.0, 2.0, indefinite.sum())[:, None, None] \
        * np.trace(H[indefinite], axis1=1, axis2=2)[:, None, None] \
        / n * np.eye(n)
    lo = np.where(rng.random((k, n)) < 0.5, -1.0, -np.inf)
    hi = np.where(rng.random((k, n)) < 0.5, 1.0, np.inf)
    lo[kind == 2] = -1.0
    bad = np.flatnonzero(kind == 3)
    H[bad, rng.integers(0, n, bad.size), rng.integers(0, n, bad.size)] = \
        rng.choice([np.nan, np.inf, -np.inf], bad.size)
    verdict = subsolver._unbounded_below(H, lo, hi)
    assert np.array_equal(verdict, unbounded_below_per_row(H, lo, hi))
    assert verdict[kind == 3].all() and not verdict[kind == 2].any()
    assert not verdict[kind == 0].any()


def test_box_newton_pins_equal_bounds(monkeypatch):
    # coordinate 2 has lo = hi = 0, a zero gradient and a zero Hessian row
    # (a ramp slack of a first period): projected Newton never frees it,
    # so its Newton system does not need a ridge
    f = Quadratic(sp.diags([2.0, 3.0, 0.0], format="csr"),
                  np.array([-4.0, 3.0, 0.0]))
    prob = make_block_problem(f, ConstraintSet(np.array([-10.0, -10.0, 0.0]),
                                               np.array([10.0, 10.0, 0.0])))
    seen = []
    real = subsolver._newton_directions

    def spy(H, G, free):
        seen.append(free.copy())
        return real(H, G, free)

    monkeypatch.setattr(subsolver, "_newton_directions", spy)
    (x, status, _, _), _ = box_newton(prob, warm=np.array([1.0, 1.0, 0.0]))
    assert status == STATUS_CONVERGED
    assert seen and not any(free[:, 2].any() for free in seen)
    assert np.allclose(x, [2.0, -1.0, 0.0], rtol=0.0, atol=1e-9)
    assert x[2] == 0.0

"""Unit tests for the block subproblem solvers."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, strategies as st

from proxjacobi import subsolver
from proxjacobi.auglag import BlockObjective, subproblem_gradients
from proxjacobi.model import (BlockSpec, ConstraintSet, Params, Problem,
                              Quadratic, variable_splitting_transform)
from proxjacobi.subsolver import (BlockSolveRequest, STATUS_CONVERGED,
                                  STATUS_NUMERICAL_FAILURE, dispatch,
                                  project_box, solve_box_newton,
                                  solve_equality_alm, solve_quadratic_exact,
                                  solve_quadratic_kkt)

from conftest import box_quadratic_min_enum, mixed_problem

PARAMS = Params(rho=1.0, theta=1.0, tau_x=0.5, tau_z=0.5)


def make_block_problem(objective, cset, m=0, b=None, A=None):
    n = cset.n
    coupling = sp.csr_matrix((m, n)) if A is None else sp.csr_matrix(A)
    blk = BlockSpec(n=n, objective=objective, set=cset, coupling=coupling)
    return Problem(m=m, b=np.zeros(m) if b is None else b, blocks=[blk])


def make_request(problem, warm=None, tol=1e-10, z_bar=None):
    n = problem.blocks[0].n
    warm = np.zeros(n) if warm is None else warm
    z_bar = np.zeros(problem.m) if z_bar is None else z_bar
    g = subproblem_gradients(problem, warm, z_bar, np.zeros(problem.m),
                             PARAMS.rho)
    obj = BlockObjective(problem, 0, g, warm, PARAMS)
    return BlockSolveRequest(t=0, objective=obj, set=problem.blocks[0].set,
                             warm_start=warm, tol=tol, max_iter=500)


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
    req = make_request(prob, warm=np.array([-3.0, 5.0]))
    assert np.array_equal(req.warm_start, np.array([0.0, 1.0]))


def exact_step(problem, warm):
    """The batched exact step of the problem's one quadratic group from
    ``warm``: (new x, ok, the block objective)."""
    obj = make_request(problem, warm=warm).objective
    grp, = problem.quadratic_groups
    H, H_inv, ok = grp.hessian_factor(PARAMS.rho + PARAMS.tau_x)
    dx, solved = solve_quadratic_exact(H, H_inv, obj.gradient(warm)[None])
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
    assert np.linalg.norm(obj.gradient(x)) < 1e-8


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


def test_dispatch_nonfinite_data_fails():
    # a NaN zbar (a diverged outer iterate) must not raise from a solver
    cset = ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf))
    prob = make_block_problem(Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
                              cset, m=1, A=np.ones((1, 2)))
    res = dispatch(make_request(prob, z_bar=np.full(1, np.nan)))
    assert res.status == subsolver.STATUS_NUMERICAL_FAILURE


def test_hessian_factor_follows_weight():
    # each change of rho + tau_x refactors; a stale factor is never reused
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3))
    A = rng.standard_normal((2, 3))
    cset = ConstraintSet(np.full(3, -np.inf), np.full(3, np.inf))
    prob = make_block_problem(Quadratic(sp.csr_matrix(M.T @ M), np.zeros(3)),
                              cset, m=2, A=A)
    grp, = prob.quadratic_groups
    assert np.allclose(grp.AtA[0], A.T @ A, rtol=1e-14, atol=0.0)
    for w in (1.5, 40.0, 1.5):
        H, H_inv, ok = grp.hessian_factor(w)
        assert ok[0]
        assert np.array_equal(H, grp.Q + w * grp.AtA)
        assert np.array_equal(H_inv, np.linalg.inv(grp.Q + w * grp.AtA))


def test_box_newton_clamps_to_bound():
    # (x - 2)^2 over [0, 1] has its constrained minimum at 1
    cset = ConstraintSet(np.zeros(1), np.ones(1))
    f = Quadratic(sp.csr_matrix(np.array([[2.0]])), np.array([-4.0]), 4.0)
    prob = make_block_problem(f, cset)
    res = dispatch(make_request(prob))
    assert res.converged and res.solver == "box-newton"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


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
        req = make_request(prob, warm=warm)
        res = dispatch(req)
        assert res.solver == "box-newton"
        assert req.objective.value(res.x) <= req.objective.value(warm) + 1e-12


def test_box_block_unbounded_below_fails_at_once():
    # Q = diag(1, -1): negative curvature along x1, which has no finite
    # bound, makes the block subproblem unbounded below; with x1 boxed,
    # projected Newton from x1 = 0.5 stops at the local minimum on x1's
    # upper bound
    f = Quadratic(sp.diags([1.0, -1.0], format="csr"), np.array([0.5, 0.1]))
    free = make_block_problem(f, ConstraintSet(np.array([0.0, -np.inf]),
                                               np.array([1.0, np.inf])))
    res = dispatch(make_request(free))
    assert res.status == STATUS_NUMERICAL_FAILURE
    assert res.inner_iterations == 0
    half = make_block_problem(f, ConstraintSet(np.array([-np.inf, -2.0]),
                                               np.array([np.inf, 2.0])))
    res = dispatch(make_request(half, warm=np.array([0.0, 0.5])))
    assert res.converged and res.solver == "box-newton"
    assert np.allclose(res.x, [-0.5, 2.0], rtol=0.0, atol=1e-9)


def test_dispatch_nonfinite_hessian_fails():
    class NanModel:
        def value(self, x):
            return 0.0

        def gradient(self, x):
            return np.zeros(2)

        def hessian(self, x):
            return np.full((2, 2), np.nan)

    req = BlockSolveRequest(t=0, objective=NanModel(), set=ConstraintSet(
        np.zeros(2), np.ones(2)), warm_start=np.zeros(2))
    assert dispatch(req).status == STATUS_NUMERICAL_FAILURE


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
        req = make_request(prob, warm=np.zeros(n))
        res = solve_box_newton(req)
        # compare against brute-force active-set enumeration of the full
        # subproblem objective (A is empty, so the block model is
        # f(x) - f(warm), and f(warm) = f(0) = 0)
        best = box_quadratic_min_enum(Q, c, 0.0, lo, hi)
        assert req.objective.value(res.x) == pytest.approx(best, abs=1e-8)


def test_quadratic_kkt_linear_equality():
    # min (x0-1)^2 + (x1-1)^2 s.t. x0 + x1 = 3 -> x = (1.5, 1.5), mu = -1
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf), [eq])
    prob = make_block_problem(f, cset)
    res = solve_quadratic_kkt(make_request(prob))
    assert res.converged and res.solver == "quadratic-kkt"
    assert np.allclose(res.x, [1.5, 1.5], atol=1e-10)
    assert res.mu[0] == pytest.approx(-1.0, abs=1e-10)


def test_quadratic_kkt_active_bound():
    # the upper bound 1.2 cuts off (1.5, 1.5): the active set pins x0 and
    # the equality gives x = (1.2, 1.8)
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.full(2, -np.inf), np.array([1.2, np.inf]), [eq])
    prob = make_block_problem(f, cset)
    res = solve_quadratic_kkt(make_request(prob))
    assert res.converged and res.inner_iterations == 2
    assert np.allclose(res.x, [1.2, 1.8], rtol=0.0, atol=1e-12)
    res = dispatch(make_request(prob))
    assert res.solver == "quadratic-kkt"
    assert np.allclose(res.x, [1.2, 1.8], rtol=0.0, atol=1e-12)


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
        x, mu, _ = subsolver.solve_box_qp(Q, c, np.zeros((0, n)),
                                          np.zeros(0), lo, hi)
        assert mu.size == 0
        assert np.all(x >= lo) and np.all(x <= hi)
        best = box_quadratic_min_enum(Q, c, 0.0, lo, hi)
        assert 0.5 * x @ Q @ x + c @ x == pytest.approx(best, abs=1e-10)
    # min |x - (2, 0, -1)|^2 s.t. x0 + x1 + x2 = 0 over [-0.5, 0.5]^3: the
    # bounds on x0 and x2 are active, x1 = 0, and the multipliers certify it
    Q, c = 2.0 * np.eye(3), np.array([-4.0, 0.0, 2.0])
    C, d = np.ones((1, 3)), np.zeros(1)
    lo, hi = np.full(3, -0.5), np.full(3, 0.5)
    x, mu, _ = subsolver.solve_box_qp(Q, c, C, d, lo, hi)
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
    assert subsolver.solve_box_qp(H, np.zeros(2), none, np.zeros(0),
                                  *box) is None
    # with x1 = 0 as an equality row, H is positive definite on the rows'
    # null space: the KKT matrix has one negative eigenvalue, one per row
    x, mu, _ = subsolver.solve_box_qp(H, np.array([-0.5, 0.0]),
                                      np.array([[0.0, 1.0]]), np.zeros(1),
                                      *box)
    assert np.allclose(x, [0.5, 0.0], rtol=0.0, atol=1e-14)


def test_split_saddle_block_not_accepted():
    # the split form of mixed_problem's block 3 at w = rho + tau_x = 0.5:
    # its KKT point has the reduced Hessian eigenvalues (-0.25, 1), so the
    # QP does not certify it and the block takes the ALM path
    prob = variable_splitting_transform(mixed_problem())
    params = Params(rho=0.5 / 3.0, theta=4.0, tau_x=1.0 / 3.0, tau_z=8.0)
    vec = np.zeros(sum(prob.dims))
    g = subproblem_gradients(prob, vec, np.zeros(prob.m), np.zeros(prob.m),
                             params.rho)
    warm = prob.split(vec)[3]
    req = BlockSolveRequest(
        t=3, objective=BlockObjective(prob, 3, g, warm, params),
        set=prob.blocks[3].set, warm_start=warm)
    assert solve_quadratic_kkt(req).status == STATUS_NUMERICAL_FAILURE
    res = dispatch(req)
    assert res.solver == "equality-alm" and not res.converged


def test_quadratic_kkt_pinned_coordinates():
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -2.0), 2.0)
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -3.0)
    cset = ConstraintSet(np.array([2.0, -np.inf]), np.array([2.0, np.inf]),
                         [eq])
    prob = make_block_problem(f, cset)
    res = solve_quadratic_kkt(make_request(prob))
    assert res.converged
    assert np.allclose(res.x, [2.0, 1.0], atol=1e-10)


def test_equality_alm_nonlinear_constraint():
    # min (x0-2)^2 + (x1-2)^2 s.t. x0^2 + x1^2 = 2 -> x = (1, 1)
    f = Quadratic(2.0 * sp.eye(2, format="csr"), np.full(2, -4.0), 8.0)
    circle = Quadratic(2.0 * sp.eye(2, format="csr"), np.zeros(2), -2.0)
    cset = ConstraintSet(np.zeros(2), np.full(2, 3.0), [circle])
    prob = make_block_problem(f, cset)
    res = solve_equality_alm(make_request(prob, warm=np.array([1.5, 0.5]),
                                          tol=1e-9))
    assert res.status == STATUS_CONVERGED
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.solver == "equality-alm"


def test_dispatch_routing():
    rng = np.random.default_rng(8)
    unconstrained = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), rng.standard_normal(2)),
        ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf)))
    # unconstrained blocks reach dispatch only when their batched exact step
    # failed
    assert dispatch(make_request(unconstrained)).solver == "box-newton"
    boxed = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), rng.standard_normal(2)),
        ConstraintSet(np.zeros(2), np.ones(2)))
    assert dispatch(make_request(boxed)).solver == "box-newton"
    eq = Quadratic(sp.csr_matrix((2, 2)), np.ones(2), -1.0)
    linear_eq = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
        ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf), [eq]))
    assert dispatch(make_request(linear_eq)).solver == "quadratic-kkt"
    circle = Quadratic(2.0 * sp.eye(2, format="csr"), np.zeros(2), -2.0)
    nonlinear_eq = make_block_problem(
        Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
        ConstraintSet(np.zeros(2), np.full(2, 3.0), [circle]))
    C, d = linear_eq.blocks[0].set.linear_rows
    assert np.array_equal(C, [[1.0, 1.0]]) and np.array_equal(d, [1.0])
    assert nonlinear_eq.blocks[0].set.linear_rows is None
    assert dispatch(make_request(nonlinear_eq, warm=np.ones(2))).solver \
        == "equality-alm"

"""Shared instance builders and spies for the test suite."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from proxjacobi import jacobi, problems
from proxjacobi.algebra import couple_apply
from proxjacobi.auglag import BlockObjective, subproblem_gradients
from proxjacobi.cli import default_start
from proxjacobi.model import (BlockSpec, ConstraintSet, IterateState, Params,
                              PolarBalance, Problem, Quadratic)

QP_SEEDS = list(range(20))


def qp_shapes(seed):
    """Deterministic (T, n_t, m) spread over T in {2..6}, n_t <= 5, m <= 4."""
    T = 2 + seed % 5
    n_t = 2 + (seed * 7) % 4
    m = 1 + (seed * 3) % 4
    return T, n_t, m


def build_qp(seed):
    T, n_t, m = qp_shapes(seed)
    return problems.gen_coupled_qp(seed, T, n_t, m)


def mixed_problem():
    """Blocks of sizes 2 and 3 and of every kind, m = 2: unbounded 0, 1, 5
    and 6 (positive definite Q); boxed 2; 4 with a linear equality; and 3,
    unbounded with Q = diag(1, -1), coupled only through its second
    coordinate, so its subproblem Hessian diag(1, w - 1) is positive
    definite only for w = rho + tau_x > 1.  The groups (n = 2: 0, 3, 6;
    n = 3: 1, 5) interleave with the other blocks in the flat vector."""
    rng = np.random.default_rng(21)
    free = lambda n: ConstraintSet(np.full(n, -np.inf), np.full(n, np.inf))

    def spd(n):
        M = rng.standard_normal((n, n))
        return sp.csr_matrix(M.T @ M + np.eye(n))

    kinds = [(2, spd(2), free(2)), (3, spd(3), free(3)),
             (2, spd(2), ConstraintSet(-np.ones(2), np.ones(2))),
             (2, sp.diags([1.0, -1.0], format="csr"), free(2)),
             (3, spd(3), ConstraintSet(
                 np.full(3, -np.inf), np.full(3, np.inf),
                 [Quadratic(sp.csr_matrix((3, 3)), np.ones(3), -1.0)])),
             (3, spd(3), free(3)), (2, spd(2), free(2))]
    blocks = []
    for t, (n, Q, cset) in enumerate(kinds):
        A = (np.array([[0.0, 1.0], [0.0, 0.0]]) if t == 3
             else rng.standard_normal((2, n)))
        blocks.append(BlockSpec(n=n, objective=Quadratic(
            Q, rng.standard_normal(n)), set=cset, coupling=A))
    return Problem(m=2, b=rng.standard_normal(2), blocks=blocks)


def replace_equalities(problem, t, equalities):
    """The problem with block t's equalities replaced."""
    blocks = list(problem.blocks)
    blk = blocks[t]
    blocks[t] = BlockSpec(n=blk.n, objective=blk.objective,
                          set=ConstraintSet(blk.set.lower, blk.set.upper,
                                            equalities),
                          coupling=blk.coupling)
    return Problem(m=problem.m, b=problem.b, blocks=blocks)


def with_loads(problem, t, loads):
    """The ACOPF problem with block t's balance loads replaced, row by row."""
    return replace_equalities(problem, t, [
        PolarBalance(eq.name, dict(eq.payload, load=float(load)))
        for eq, load in zip(problem.blocks[t].set.equalities, loads)])


def state_at(problem, x, z, lam, x_prev=None, z_prev=None, lam_prev=None,
             k=1):
    """The iterate at the arbitrary point (x, z, lam), with the lagged
    point (x_prev, z_prev, lam_prev) (the point itself where None), dz =
    z - z_prev, and the products Ax, Qx and K(x - x_prev) made here."""
    x, z, lam = (np.asarray(v, dtype=float) for v in (x, z, lam))
    x_prev = x if x_prev is None else np.asarray(x_prev, dtype=float)
    z_prev = z if z_prev is None else np.asarray(z_prev, dtype=float)
    lam_prev = lam if lam_prev is None else np.asarray(lam_prev, dtype=float)
    return IterateState(
        x=x, z=z, lam=lam, x_prev=x_prev, z_prev=z_prev, lam_prev=lam_prev,
        dz=z - z_prev, Ax=couple_apply(problem, x),
        Qx=problem.objective_products(x),
        Kdx=problem.block_products(x - x_prev), k=k)


def at_point(callback, x):
    """A stacked objective callback of a one-block model (the stack k = 1)
    at the one point x."""
    return callback(np.asarray(x, dtype=float)[None], [0])[0]


def block_objective(problem, t, g, x_bar, params):
    """Block t's subproblem model about the anchor x_bar (the stack k = 1),
    from the flat gradient vector g and H_t = Q_t + (rho + tau_x) A_t'A_t
    formed here."""
    blk = problem.blocks[t]
    A = blk.coupling.toarray()
    H = blk.objective.Q.toarray() + (params.rho + params.tau_x) * (A.T @ A)
    o = problem.offsets
    return BlockObjective(H[None], g[None, o[t]:o[t + 1]],
                          np.asarray(x_bar, dtype=float)[None])


def spy_row_solvers(monkeypatch):
    """Spy on the sweep's iterative solvers, ``jacobi.box_newton_rows`` and
    ``jacobi.equality_alm_rows``.  Returns a list to which each of their
    calls appends ``(solver, blocks, out)``: "box-newton" or
    "equality-alm", the blocks of the rows it was given, and the arrays it
    returned.  A row is mapped back to its block through the group that
    ``jacobi.solve_group`` is solving: it is the one row of that group with
    the same anchor and gradient."""
    calls = []
    solving = threading.local()
    real_group = jacobi.solve_group

    def solve_group(grp, vec, g, *args):
        solving.grp = grp
        solving.keys = np.hstack([grp.take(vec), grp.take(g)])
        return real_group(grp, vec, g, *args)

    def spy(solver, real):
        def call(obj, *args, **kwargs):
            out = real(obj, *args, **kwargs)
            blocks = []
            for key in np.hstack([obj.anchor, obj.g]):
                i, = [i for i, row in enumerate(solving.keys)
                      if np.array_equal(row, key, equal_nan=True)]
                blocks.append(solving.grp.blocks[i])
            calls.append((solver, blocks, out))
            return out
        return call

    monkeypatch.setattr(jacobi, "solve_group", solve_group)
    for name, solver in (("box_newton_rows", "box-newton"),
                         ("equality_alm_rows", "equality-alm")):
        monkeypatch.setattr(jacobi, name, spy(solver, getattr(jacobi, name)))
    return calls


def routes(calls):
    """The {t: solver} of the blocks in the calls ``spy_row_solvers``
    recorded."""
    return {t: solver for solver, blocks, _ in calls for t in blocks}


def acopf_rows(T=6, seed=0, early=1, capped=3, bad=4, stiff=5):
    """A stack of T ACOPF block models, one group, with loads perturbed by up
    to 5% and random warm starts in the box: ``(problem, group, H, G, X)``.
    Row ``early`` is feasible at its warm start with a zero model gradient
    there, so its ALM stops after one round; row ``capped`` demands a load
    of 50 at bus 1, which no point of its box meets; row ``bad`` has a NaN
    in its model gradient; row ``stiff`` has its model scaled by 100, so
    that its penalty grows in rounds where the others' does not (None skips
    a row)."""
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=T), T)
    rng = np.random.default_rng(seed)
    for t in range(T):
        loads = prob.blocks[t].set.equality_map.d
        prob = with_loads(prob, t, loads * rng.uniform(0.95, 1.05, len(loads)))
    X = rng.uniform(prob.lower, prob.upper).reshape(T, -1)
    if early is not None:
        emap = prob.blocks[early].set.equality_map
        prob = with_loads(prob, early, emap.d + emap.values(X[early]))
    if capped is not None:
        loads = prob.blocks[capped].set.equality_map.d.copy()
        loads[2] = 50.0
        prob = with_loads(prob, capped, loads)
    grp, = prob.quadratic_groups
    params = Params(rho=1.0, theta=1.0, tau_x=2.0, tau_z=1.0)
    g = subproblem_gradients(prob, state_at(
        prob, X.ravel(), 0.1 * rng.standard_normal(prob.m),
        rng.standard_normal(prob.m)), params.rho)
    G = grp.take(g)
    H = grp.hessian(params.rho + params.tau_x).copy()
    if early is not None:
        G[early] = 0.0
    if bad is not None:
        G[bad, 0] = np.nan
    if stiff is not None:
        H[stiff] *= 100.0
        G[stiff] *= 100.0
    return prob, grp, H, G, X


@pytest.fixture(params=["mixed", "zero-block", "dispatch"])
def sparse_coupling_problem(request):
    """Problems whose A_t have all-zero rows: ``mixed_problem`` (block 3's
    second row), the same with A_0 = 0, and a 3-period dispatch (the ramp
    rows of each period)."""
    if request.param == "dispatch":
        return problems.gen_multiperiod_dispatch(3, 2, 0.2)
    prob = mixed_problem()
    if request.param == "zero-block":
        blocks = list(prob.blocks)
        blocks[0] = BlockSpec(n=blocks[0].n, objective=blocks[0].objective,
                              set=blocks[0].set,
                              coupling=sp.csr_matrix((prob.m, blocks[0].n)))
        prob = Problem(m=prob.m, b=prob.b, blocks=blocks)
    return prob


def box_quadratic_min_enum(Q, c, c0, lo, hi):
    """min 0.5 x'Qx + c'x + c0 over the box of a convex quadratic, by
    enumerating every active set (3^n of them): the tests' reference."""
    n = len(c)
    best = None
    # each coordinate: free (0), at lower (1), at upper (2)
    for code in range(3 ** n):
        state = []
        k = code
        for _ in range(n):
            state.append(k % 3)
            k //= 3
        if any(s == 1 and not np.isfinite(lo[i]) for i, s in enumerate(state)):
            continue
        if any(s == 2 and not np.isfinite(hi[i]) for i, s in enumerate(state)):
            continue
        free = [i for i, s in enumerate(state) if s == 0]
        x = np.array([lo[i] if s == 1 else (hi[i] if s == 2 else 0.0)
                      for i, s in enumerate(state)])
        if free:
            Qff = Q[np.ix_(free, free)]
            rest = [i for i in range(n) if i not in free]
            rhs = -(c[free] + (Q[np.ix_(free, rest)] @ x[rest]
                               if rest else 0.0))
            try:
                xf = np.linalg.solve(Qff, rhs)
            except np.linalg.LinAlgError:
                continue
            x[free] = xf
            if np.any(x[free] < lo[free] - 1e-12) or np.any(
                    x[free] > hi[free] + 1e-12):
                continue
        val = 0.5 * x @ (Q @ x) + c @ x + c0
        if best is None or val < best:
            best = val
    if best is None:
        raise ValueError("active-set enumeration found no candidate")
    return best


@pytest.fixture(scope="session")
def qp_suite():
    return [(seed,) + build_qp(seed) for seed in QP_SEEDS]


@pytest.fixture(scope="session")
def acopf_twin_problem():
    net = problems.twin_generator_network()
    return problems.gen_acopf_toy(net, 3, cost_a=[0.2, 0.25],
                                  cost_b=[0.1, 0.12])


__all__ = ["QP_SEEDS", "qp_shapes", "build_qp", "default_start",
           "mixed_problem", "box_quadratic_min_enum", "replace_equalities",
           "with_loads", "state_at", "at_point", "block_objective",
           "acopf_rows"]

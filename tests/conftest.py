"""Shared instance builders for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from proxjacobi import problems
from proxjacobi.cli import default_start
from proxjacobi.model import BlockSpec, ConstraintSet, Problem, Quadratic

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
           "mixed_problem", "box_quadratic_min_enum"]

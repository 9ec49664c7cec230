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


@pytest.fixture(scope="session")
def qp_suite():
    return [(seed,) + build_qp(seed) for seed in QP_SEEDS]


@pytest.fixture(scope="session")
def acopf_twin_problem():
    net = problems.twin_generator_network()
    return problems.gen_acopf_toy(net, 3, cost_a=[0.2, 0.25],
                                  cost_b=[0.1, 0.12])


__all__ = ["QP_SEEDS", "qp_shapes", "build_qp", "default_start",
           "mixed_problem"]

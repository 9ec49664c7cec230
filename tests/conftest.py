"""Shared instance builders for the test suite."""

import pytest

from proxjacobi import problems
from proxjacobi.cli import default_start

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


@pytest.fixture(scope="session")
def qp_suite():
    return [(seed,) + build_qp(seed) for seed in QP_SEEDS]


@pytest.fixture(scope="session")
def acopf_twin_problem():
    net = problems.twin_generator_network()
    return problems.gen_acopf_toy(net, 3, cost_a=[0.2, 0.25],
                                  cost_b=[0.1, 0.12])


__all__ = ["QP_SEEDS", "qp_shapes", "build_qp", "default_start"]

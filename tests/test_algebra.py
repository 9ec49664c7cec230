"""Unit tests for the coupling-matrix operations."""

import numpy as np
import pytest
import scipy.sparse as sp

from proxjacobi import problems
from proxjacobi.algebra import couple_apply, spectral_norms

from conftest import build_qp
from reference import r_matrix_eigencheck, spectral_norm


@pytest.fixture(scope="module")
def qp():
    return build_qp(2)[0]


def random_blocks(problem, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(blk.n) for blk in problem.blocks]


def test_couple_apply_matches_dense(qp):
    x = random_blocks(qp, 0)
    dense = sp.hstack([blk.coupling for blk in qp.blocks]).toarray() \
        @ np.concatenate(x)
    assert np.allclose(couple_apply(qp, np.concatenate(x)), dense,
                       atol=1e-12)
    # the block sums are added in block order, bit for bit as a loop does
    out = np.zeros(qp.m)
    for blk, xt in zip(qp.blocks, x):
        out += blk.coupling @ xt
    assert np.array_equal(couple_apply(qp, np.concatenate(x)), out)


def test_couple_apply_shape_check(qp):
    x = random_blocks(qp, 0)
    x[0] = np.zeros(qp.blocks[0].n + 1)
    with pytest.raises(ValueError):
        couple_apply(qp, np.concatenate(x))


def test_spectral_norm_vs_svd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.standard_normal((4, 6))
        exact = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(exact, rel=1e-9)


def test_spectral_norms_batched_per_block_size():
    # dense A_t: every value bit for bit that of spectral_norm
    prob = problems.coupled_qp(1, 7, [3, 2, 3, 4, 2, 3, 0], 2)
    assert spectral_norms(prob) == [spectral_norm(blk.coupling)
                                    for blk in prob.blocks]


def test_spectral_norms_skip_zero_rows(sparse_coupling_problem):
    prob = sparse_coupling_problem
    assert spectral_norms(prob) == pytest.approx(
        [spectral_norm(blk.coupling) for blk in prob.blocks], rel=1e-14)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_eigencheck_closed_form():
    lo, hi = r_matrix_eigencheck(2.0, 5.0, 4, 3)
    assert lo == pytest.approx(2.0 + 5.0 - 2.0 * 4)
    assert hi == pytest.approx(7.0)


def test_eigencheck_validation():
    with pytest.raises(ValueError):
        r_matrix_eigencheck(1.0, 1.0, 0, 1)
    with pytest.raises(ValueError):
        r_matrix_eigencheck(1.0, 1.0, 100, 100)


def test_couple_apply_adds_blocks_in_order(sparse_coupling_problem):
    prob = sparse_coupling_problem
    x = random_blocks(prob, 1)
    out = np.zeros(prob.m)
    for blk, xt in zip(prob.blocks, x):
        out += blk.coupling @ xt
    assert np.array_equal(couple_apply(prob, np.concatenate(x)), out)

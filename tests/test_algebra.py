"""Unit tests for the coupling-matrix operations."""

import numpy as np
import pytest

from proxjacobi.algebra import couple_apply, r_matrix_eigencheck, spectral_norm

from conftest import build_qp


@pytest.fixture(scope="module")
def qp():
    return build_qp(2)[0]


def random_blocks(problem, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(blk.n) for blk in problem.blocks]


def test_couple_apply_matches_dense(qp):
    x = random_blocks(qp, 0)
    dense = qp.coupling.toarray() @ np.concatenate(x)
    assert np.allclose(couple_apply(qp, x), dense, atol=1e-12)
    # the block sums are added in block order, bit for bit as a loop does
    out = np.zeros(qp.m)
    for blk, xt in zip(qp.blocks, x):
        out += blk.coupling @ xt
    assert np.array_equal(couple_apply(qp, x), out)


def test_couple_apply_shape_check(qp):
    x = random_blocks(qp, 0)
    x[0] = np.zeros(qp.blocks[0].n + 1)
    with pytest.raises(ValueError):
        couple_apply(qp, x)


def test_spectral_norm_vs_svd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.standard_normal((4, 6))
        exact = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(exact, rel=1e-9)


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

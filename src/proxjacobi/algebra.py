"""Coupling-matrix operations and spectral quantities.

Coupling sums add the blocks' terms in block order, so results are
bit-reproducible across runs and worker counts.  Spectral norms of the
blocks of one size come from one batched SVD.
"""

import numpy as np


def couple_apply(problem, x):
    """Return ``sum_t A_t x_t`` for the flat vector ``x``: one product with
    the nonzero rows of the A_t, added into their coupling rows in block
    order."""
    return problem.row_sums(problem.block_products(x))


def spectral_norms(problem):
    """The largest singular value of every A_t, in block order: one batched
    SVD per block size, of the stacked nonzero rows of the A_t (zero rows
    leave the singular values as they are)."""
    norms = np.zeros(problem.T)
    dims = np.array(problem.dims)
    for n in np.unique(dims[dims > 0]):
        ts = np.flatnonzero(dims == n)
        At = problem.coupling_stack(ts)
        if At.shape[1]:
            norms[ts] = np.linalg.norm(At, 2, axis=(1, 2))
    return [float(v) for v in norms]


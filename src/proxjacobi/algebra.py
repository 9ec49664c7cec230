"""Coupling-matrix operations and spectral quantities.

All block reductions run in fixed block order so results are
bit-reproducible across runs and worker counts.
"""

import numpy as np
import scipy.sparse as sp

EIGENCHECK_SIZE_CAP = 2000


def couple_apply(problem, x):
    """Return ``sum_t A_t x_t``: one block-diagonal product, whose rows are
    added in block order."""
    return block_sum(problem.block_products(problem.stack(x)))


def block_sum(rows):
    """``rows[0] + rows[1] + ...`` added in this order, as a loop of
    ``out += row`` from zero adds them (``+ 0.0`` turns a -0.0 sum into
    0.0, as that loop does)."""
    return np.cumsum(rows, axis=0)[-1] + 0.0


def spectral_norm(A_t):
    """Largest singular value of ``A_t``, from its dense form (blocks are
    small)."""
    A_t = sp.csr_matrix(A_t).toarray()
    return float(np.linalg.norm(A_t, 2)) if A_t.size else 0.0


def r_matrix_eigencheck(rho, tau_x, T, m):
    """Extreme eigenvalues of ``R = (rho + tau_x) I - rho E E'``.

    ``E' = [I ... I]`` stacks T identity blocks, so ``E E'`` is the Kronecker
    product of the all-ones T x T matrix with the m x m identity; its
    eigenvalues are 0 and T.  Built explicitly at desk scale and compared by
    callers against the closed form {rho + tau_x - rho T, rho + tau_x}.
    """
    if T < 1 or m < 1:
        raise ValueError("T and m must be at least 1")
    if T * m > EIGENCHECK_SIZE_CAP:
        raise ValueError(f"T*m = {T * m} exceeds size cap {EIGENCHECK_SIZE_CAP}")
    EEt = np.kron(np.ones((T, T)), np.eye(m))
    R = (rho + tau_x) * np.eye(T * m) - rho * EEt
    eigs = np.linalg.eigvalsh(R)
    return float(eigs[0]), float(eigs[-1])


"""Coupling-matrix operations, seminorms and spectral quantities.

All block reductions run in fixed block order so results are
bit-reproducible across runs and worker counts.
"""

import numpy as np
import scipy.sparse as sp

EIGENCHECK_SIZE_CAP = 2000


def couple_apply(problem, x):
    """Return ``sum_t A_t x_t``, accumulated in block order."""
    out = np.zeros(problem.m)
    for blk, xt in zip(problem.blocks, x):
        xt = np.asarray(xt, dtype=float)
        if xt.shape != (blk.n,):
            raise ValueError(
                f"block vector of shape {xt.shape} does not match n={blk.n}")
        out += blk.coupling @ xt
    return out


def seminorm_sq(A_t, v):
    """Squared seminorm ``||A_t v||^2 = v' A_t' A_t v``."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != A_t.shape[1]:
        raise ValueError(
            f"vector of length {v.shape[0]} does not match {A_t.shape[1]} columns")
    w = A_t @ v
    return float(w @ w)


def spectral_norm(A_t, max_iter=200, rtol=1e-12):
    """Top singular value of ``A_t`` by power iteration on ``A_t' A_t``."""
    A_t = sp.csr_matrix(A_t)
    if A_t.nnz == 0:
        return 0.0
    n = A_t.shape[1]
    # deterministic start biased toward the dominant column
    col_norms = np.sqrt(np.asarray(A_t.multiply(A_t).sum(axis=0)).ravel())
    v = col_norms.copy()
    if np.linalg.norm(v) == 0:
        v = np.ones(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        w = A_t.T @ (A_t @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        new_est = float(v @ w)
        v = w / nw
        if est > 0 and abs(new_est - est) < rtol * est:
            est = new_est
            break
        est = new_est
    return float(np.sqrt(est))


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


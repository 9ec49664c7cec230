"""Reference computations that only the tests use: the closed-form checks
of the R matrix and the contraction norm, the one-block dual residual that
the stacked ``auglag.dual_residuals`` is checked against, the weighted
equality Hessian of one constraint set, the spectral norm of one coupling
matrix, and the per-row factorizations that the batched Newton directions
and curvature screen of ``subsolver`` are checked against."""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from proxjacobi.auglag import ACTIVE_TOL, _normal_cone_excess

EIGENCHECK_SIZE_CAP = 2000


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


def dual_residual(problem, t, x_t, lam, feas_tol=1e-8,
                  active_tol=ACTIVE_TOL):
    """Distance from ``grad f_t + A_t' lam`` to the negative normal cone.

    Pure boxes use the per-coordinate normal-cone rule.  With equality
    constraints, multipliers are fitted by least squares on the box-inactive
    coordinates and the box rule is applied to the fitted residual; this is
    exact for pure-box and pure-equality sets.  Raises ValueError when the
    set's violation at ``x_t`` exceeds ``feas_tol``.
    """
    blk = problem.blocks[t]
    x_t = np.asarray(x_t, dtype=float)
    violation = blk.set.violation(x_t)
    if violation > feas_tol:
        raise ValueError(
            f"block {t}: residual undefined off the set "
            f"(violation {violation:.3e} > {feas_tol:.0e})")
    g = blk.objective.gradient(x_t) + blk.coupling.T @ np.asarray(lam, float)
    g = _fit_equality_multipliers(blk.set, x_t, g, active_tol)
    return float(np.linalg.norm(_normal_cone_excess(
        g, x_t, blk.set.lower, blk.set.upper, active_tol)))


def _fit_equality_multipliers(cset, x, g, active_tol):
    """``g + C mu``, with C the equality Jacobian transposed at ``x`` and mu
    the least-squares fit of C mu = -g on the coordinates off the bounds;
    ``g`` itself when the set has no equalities or every coordinate sits on
    a bound."""
    if not cset.equalities:
        return g
    free = ~((x <= cset.lower + active_tol) | (x >= cset.upper - active_tol))
    if not np.any(free):
        return g
    C = cset.equality_jacobian(x).T
    mu, *_ = np.linalg.lstsq(C[free], -g[free], rcond=None)
    return g + C @ mu


def dagger_norm_sq(problem, state, ref_x, ref_z, ref_lam, params):
    """Squared deviation of an iterate from a reference in the contraction
    norm used by the local analysis:

    ||D(x - x*)||^2_R + (rho + tau_z)||z - z*||^2
    + (1/rho)||lam - lam*||^2 + tau_z||dz||^2

    with the action of ``R`` computed in closed form as
    ``(rho + tau_x) v - rho E(E'v)``, on the nonzero coupling rows of the
    blocks: the rows of v = D(x - x*) that are zero add nothing.
    """
    dev = problem.block_products(state.x - ref_x)
    col_sum = problem.row_sums(dev)
    r_dev = ((params.rho + params.tau_x) * dev
             - params.rho * col_sum[problem.coupling_rows.row])
    total = float(dev @ r_dev)
    dz_ref = state.z - np.asarray(ref_z, dtype=float)
    dl_ref = state.lam - np.asarray(ref_lam, dtype=float)
    total += (params.rho + params.tau_z) * float(dz_ref @ dz_ref)
    total += float(dl_ref @ dl_ref) / params.rho
    total += params.tau_z * float(state.dz @ state.dz)
    return total


def equality_hessian(cset, x, w):
    """sum_i w_i times the Hessian of equality i of the set ``cset``."""
    return cset.equality_map.weighted_hessian(
        np.asarray(x, dtype=float), np.asarray(w, dtype=float))


def spectral_norm(A_t):
    """Largest singular value of ``A_t``, from its dense form (blocks are
    small)."""
    A_t = sp.csr_matrix(A_t).toarray()
    return float(np.linalg.norm(A_t, 2)) if A_t.size else 0.0


def newton_directions_per_row(H, G, free):
    """``subsolver._newton_directions`` one row at a time, each row's free
    block factored and solved by its own LAPACK calls: the ridge of a row
    is the first of 0, 1e-8 s, 1e-7 s, ... below 1e12 s, with
    s = max(max|diag Hff|, 1), at which Hff + ridge I factors by Cholesky;
    a row where none does, or whose solve is not finite, takes -g_f."""
    k = len(G)
    scale = np.maximum(np.max(np.where(free, np.abs(np.diagonal(
        H, axis1=1, axis2=2)), 0.0), axis=1), 1.0)
    rhs = np.where(free, -G, 0.0)
    D = np.zeros_like(G)
    for i in range(k):
        f = free[i]
        Hff, b, m = H[i][f][:, f], rhs[i, f], int(np.count_nonzero(f))
        ridge = 0.0
        while ridge < 1e12 * scale[i]:
            factor, info = dpotrf(Hff + ridge * np.eye(m) if ridge else Hff,
                                  lower=0, clean=0)
            if info == 0:
                D[i, f] = dpotrs(factor, b, lower=0)[0]
                break
            ridge = max(10.0 * ridge, 1e-8 * scale[i])
        else:
            D[i] = rhs[i]
    bad = ~np.isfinite(D).all(axis=1)
    D[bad] = rhs[bad]
    return D


def unbounded_below_per_row(H, lo, hi):
    """``subsolver._unbounded_below`` one row at a time: a row fails when
    its Hessian is not finite, or when the Hessian on its coordinates
    without a finite bound has an eigenvalue below -1e-12 times its largest
    magnitude."""
    free = ~(np.isfinite(lo) | np.isfinite(hi))
    out = []
    for h, f in zip(H, free):
        if not np.isfinite(h).all():
            out.append(True)
            continue
        eig = np.linalg.eigvalsh(h[np.ix_(f, f)]) if f.any() else np.zeros(0)
        out.append(bool(eig.size and eig[0] < -1e-12 * np.max(np.abs(eig))))
    return np.array(out, dtype=bool)

"""Scalar functionals of the method: augmented Lagrangian, Lyapunov function,
stationarity residuals, penalty-formulation residuals, feasibility margins
and convergence bounds."""

from dataclasses import dataclass

import numpy as np

from .algebra import couple_apply

DAGGER_SIZE_CAP = 2000


def aug_lagrangian(problem, x, z, lam, params):
    """sum_t f_t(x_t) + (theta/2)||z||^2 + lam'(Ax + z - b)
    + (rho/2)||Ax + z - b||^2."""
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if z.shape != (problem.m,) or lam.shape != (problem.m,):
        raise ValueError("z and lambda must have length m")
    viol = couple_apply(problem, x) + z - problem.b
    total = sum(blk.objective.value(xt) for blk, xt in zip(problem.blocks, x))
    total += 0.5 * params.theta * float(z @ z)
    total += float(lam @ viol)
    total += 0.5 * params.rho * float(viol @ viol)
    return total


class BlockObjective:
    """The block subproblem objective with the other blocks frozen:

    f_t(x_t) + lam'A_t x_t + (rho/2)||A_t x_t + r_fix||^2
             + (tau_x/2)||x_t - xbar_t||^2_{A_t'A_t}

    where ``r_fix = A xbar - A_t xbar_t + zbar - b``; the caller passes the
    full coupling sum ``A xbar`` of the frozen iterate, shared by all
    blocks, and ``xbar_t`` doubles as the proximal anchor.  Exposes
    ``value`` and ``gradient`` callbacks for the subproblem solvers.
    """

    def __init__(self, problem, t, Ax_bar, z_bar, lam_bar, params, x_bar_t):
        blk = problem.blocks[t]
        self.block = blk
        self.f = blk.objective
        self.A = blk.coupling
        self.At = blk.coupling_T
        self.rho = params.rho
        self.tau_x = params.tau_x
        self.lam = np.asarray(lam_bar, dtype=float)
        self.anchor = np.asarray(x_bar_t, dtype=float)
        self.A_anchor = self.A @ self.anchor
        self.r_fix = (np.asarray(Ax_bar, dtype=float) - self.A_anchor
                      + np.asarray(z_bar, dtype=float) - problem.b)
        self.At_lam = self.At @ self.lam

    def value(self, x_t):
        x_t = np.asarray(x_t, dtype=float)
        Ax = self.A @ x_t
        r = Ax + self.r_fix
        val = self.f.value(x_t)
        val += float(self.lam @ Ax)
        val += 0.5 * self.rho * float(r @ r)
        if self.tau_x:
            dAx = Ax - self.A_anchor
            val += 0.5 * self.tau_x * float(dAx @ dAx)
        return val

    def gradient(self, x_t):
        x_t = np.asarray(x_t, dtype=float)
        Ax = self.A @ x_t
        g = self.f.gradient(x_t) + self.At_lam
        g += self.rho * (self.At @ (Ax + self.r_fix))
        if self.tau_x:
            g += self.tau_x * (self.At @ (Ax - self.A_anchor))
        return g

    def hess_vec(self, v):
        """Hessian-vector product."""
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        n = self.f.n
        out[:n] = self.f.Q @ v[:n]
        out += (self.rho + self.tau_x) * (self.At @ (self.A @ v))
        return out

    def hessian(self, x_t):
        """Dense Hessian Q_t + (rho + tau_x) A'A."""
        return self.block.Q_dense + (self.rho + self.tau_x) * self.block.AtA_dense


def lyapunov(problem, x, z, lam, x_hat, z_hat, params):
    """Augmented Lagrangian plus the proximal deviation terms:

    L(x, z, lam) + (tau_z/4)||z - z_hat||^2
                 + sum_t (tau_x/4)||x_t - x_hat_t||^2_{A_t'A_t}
    """
    val = aug_lagrangian(problem, x, z, lam, params)
    dz = np.asarray(z, dtype=float) - np.asarray(z_hat, dtype=float)
    val += 0.25 * params.tau_z * float(dz @ dz)
    for blk, xt, xh in zip(problem.blocks, x, x_hat):
        d = blk.coupling @ (np.asarray(xt, dtype=float)
                            - np.asarray(xh, dtype=float))
        val += 0.25 * params.tau_x * float(d @ d)
    return val


def dual_residual(problem, t, x_t, lam, feas_tol=1e-8, active_tol=1e-8):
    """Distance from ``grad f_t + A_t' lam`` to the negative normal cone.

    Pure boxes use the per-coordinate normal-cone rule.  With equality
    constraints, multipliers are fitted by least squares on the box-inactive
    coordinates and the box rule is applied to the fitted residual; this is
    exact for pure-box and pure-equality sets.
    """
    blk = problem.blocks[t]
    x_t = np.asarray(x_t, dtype=float)
    if blk.set.violation(x_t) > feas_tol:
        raise ValueError(
            f"block {t}: residual undefined off the set "
            f"(violation {blk.set.violation(x_t):.3e} > {feas_tol:.0e})")
    g = blk.objective.gradient(x_t) + blk.coupling_T @ np.asarray(lam, float)
    lo, hi = blk.set.lower, blk.set.upper
    at_lo = x_t <= lo + active_tol
    at_hi = x_t >= hi - active_tol
    if blk.set.equalities:
        C = blk.set.equality_jacobian(x_t).T
        free = ~(at_lo | at_hi)
        if np.any(free):
            mu, *_ = np.linalg.lstsq(C[free], -g[free], rcond=None)
        else:
            mu = np.zeros(C.shape[1])
        r = g + C @ mu
    else:
        r = g
    contrib = np.abs(r)
    only_lo = at_lo & ~at_hi
    only_hi = at_hi & ~at_lo
    fixed = at_lo & at_hi
    contrib[only_lo] = np.maximum(0.0, -r[only_lo])
    contrib[only_hi] = np.maximum(0.0, r[only_hi])
    contrib[fixed] = 0.0
    return float(np.linalg.norm(contrib))


@dataclass
class ResidualSnapshot:
    """All residual measures at one iterate."""

    pi: float
    delta: list
    p: np.ndarray
    d_blocks: list
    d_z: np.ndarray
    infnorm_p: float
    infnorm_d: float
    infnorm_coupling: float

    @property
    def delta_max(self):
        return max(self.delta) if self.delta else 0.0


def penalty_residuals(problem, state, params, feas_tol=1e-8):
    """Primal and dual residuals of the quadratic penalty formulation:

    p = Ax + z - b
    d_t = rho A_t'(A_{!=t} dx_{!=t}) - rho A_t' dz - tau_x A_t'A_t dx_t
    d_z = -tau_z dz
    """
    if state.k < 1:
        raise ValueError("penalty residuals undefined at k = 0")
    Ax = couple_apply(problem, state.x)
    p = Ax + state.z - problem.b
    Adx = [blk.coupling @ (xt - xp) for blk, xt, xp
           in zip(problem.blocks, state.x, state.x_prev)]
    Adx_total = np.sum(Adx, axis=0)
    d_blocks = [
        blk.coupling_T @ (params.rho * (Adx_total - Adx_t - state.dz)
                          - params.tau_x * Adx_t)
        for blk, Adx_t in zip(problem.blocks, Adx)
    ]
    d_z = -params.tau_z * state.dz
    delta = [
        dual_residual(problem, t, state.x[t], state.lam, feas_tol=feas_tol)
        for t in range(problem.T)
    ]
    infnorm_d = max(
        [float(np.max(np.abs(d))) if d.size else 0.0 for d in d_blocks]
        + [float(np.max(np.abs(d_z))) if d_z.size else 0.0]
    )
    return ResidualSnapshot(
        pi=float(np.linalg.norm(Ax - problem.b)),
        delta=delta,
        p=p,
        d_blocks=d_blocks,
        d_z=d_z,
        infnorm_p=float(np.max(np.abs(p))) if p.size else 0.0,
        infnorm_d=infnorm_d,
        infnorm_coupling=float(np.max(np.abs(Ax - problem.b))) if p.size else 0.0,
    )


@dataclass(frozen=True)
class EtaPair:
    """The two feasibility margins of the parameter choice."""

    eta_x: float
    eta_z: float

    @property
    def feasible(self):
        return self.eta_x > 0 and self.eta_z > 0


def eta_pair(params, T):
    """eta_x = tau_x/4 - (T-1) rho / 2, eta_z = tau_z/4 - 2(theta+tau_z)^2/rho.

    For T = 1 the eta_x margin is vacuous (no cross-block interference), so
    it is reported as tau_x/4 which is nonnegative by construction; tau_x = 0
    with T = 1 yields eta_x = 0 and feasible=False only through eta_x.
    """
    eta_x = params.tau_x / 4.0 - (T - 1) * params.rho / 2.0
    eta_z = (params.tau_z / 4.0
             - 2.0 * (params.theta + params.tau_z) ** 2 / params.rho)
    return EtaPair(eta_x=eta_x, eta_z=eta_z)


def theorem1_params(eps, T):
    """The conservative convergence-guaranteed parameter choice:

    theta = 1/eps^2, rho = 64/eps^2, tau_x = 256 (T-1)/eps^2, tau_z = 2/eps^2.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if T < 1:
        raise ValueError("T must be at least 1")
    e2 = eps * eps
    from .model import Params
    return Params(rho=64.0 / e2, theta=1.0 / e2,
                  tau_x=256.0 * (T - 1) / e2, tau_z=2.0 / e2)


def theorem1_bounds(phi1, phi_hat, phiK, K, params, specnorms, T):
    """Residual bounds guaranteed to hold at some iteration j <= K:

    pi_bound    = sqrt((2(phi1 - phi_hat)/theta)
                       (1 + 2(theta+tau_z)^2 / (K eta_z rho)))
    delta_bound = (rho + tau_x) ||A_t|| sqrt(2(T+1)(phi1 - phiK)
                                             / (K min{eta_x, eta_z}))
    """
    etas = eta_pair(params, T)
    if not etas.feasible:
        raise ValueError("bounds undefined: eta_x, eta_z must be positive")
    gap_hat = max(phi1 - phi_hat, 0.0)
    gap_K = max(phi1 - phiK, 0.0)
    pi_bound = np.sqrt(
        (2.0 * gap_hat / params.theta)
        * (1.0 + 2.0 * (params.theta + params.tau_z) ** 2
           / (K * etas.eta_z * params.rho)))
    eta_min = min(etas.eta_x, etas.eta_z)
    base = np.sqrt(2.0 * (T + 1) * gap_K / (K * eta_min))
    delta_bounds = [(params.rho + params.tau_x) * s * base for s in specnorms]
    return float(pi_bound), [float(d) for d in delta_bounds]


def dagger_norm_sq(problem, state, ref_x, ref_z, ref_lam, params):
    """Squared deviation of an iterate from a reference in the contraction
    norm used by the local analysis:

    ||D(x - x*)||^2_R + (rho + tau_z)||z - z*||^2
    + (1/rho)||lam - lam*||^2 + tau_z||dz||^2

    with the action of ``R`` computed in closed form as
    ``(rho + tau_x) v - rho E(E'v)``.
    """
    T, m = problem.T, problem.m
    if T * m > DAGGER_SIZE_CAP:
        raise ValueError(f"T*m = {T * m} exceeds size cap {DAGGER_SIZE_CAP}")
    dev = np.empty((T, m))
    for t, blk in enumerate(problem.blocks):
        dev[t] = blk.coupling @ (state.x[t] - np.asarray(ref_x[t], float))
    col_sum = dev.sum(axis=0)
    r_dev = (params.rho + params.tau_x) * dev - params.rho * col_sum[None, :]
    total = float(np.sum(dev * r_dev))
    dz_ref = state.z - np.asarray(ref_z, dtype=float)
    dl_ref = state.lam - np.asarray(ref_lam, dtype=float)
    total += (params.rho + params.tau_z) * float(dz_ref @ dz_ref)
    total += float(dl_ref @ dl_ref) / params.rho
    total += params.tau_z * float(state.dz @ state.dz)
    return total

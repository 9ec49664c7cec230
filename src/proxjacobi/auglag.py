"""Scalar functionals of the method: augmented Lagrangian, Lyapunov function,
stationarity residuals, penalty-formulation residuals, feasibility margins
and convergence bounds."""

from dataclasses import dataclass

import numpy as np

from .model import _cholesky, _dot, _matvec


# The multiplier fit of ``dual_residuals`` solves the normal equations
# (J_f J_f') mu = -J_f g of each row by a Cholesky factor L when the bound
# ||L||_F ||L^-1||_F on cond(J_f) is at most this.  The normal equations
# square the condition number; on random stacks up to this bound the
# fitted residual agrees with the SVD fit to about 1e-13 relative, and to
# about 4e-12 when g leans on J_f's weakest direction.  Rows past it, and
# rows whose Gram does not factor, keep the SVD fit (``np.linalg.pinv``).
GRAM_COND_MAX = 1e3

# A coordinate within this distance of a bound counts as on it.
ACTIVE_TOL = 1e-8


def aug_lagrangian(problem, state, params):
    """sum_t f_t(x_t) + (theta/2)||z||^2 + lam'(Ax + z - b)
    + (rho/2)||Ax + z - b||^2 at the iterate ``state``, from its products
    Ax and Qx."""
    z = state.z
    viol = state.Ax + z - problem.b
    total = problem.objective_value(state.x, state.Qx)
    total += 0.5 * params.theta * float(z @ z)
    total += float(state.lam @ viol)
    total += 0.5 * params.rho * float(viol @ viol)
    return total


def subproblem_gradients(problem, state, rho):
    """The flat vector of every block subproblem's gradient at its anchor,
    the frozen iterate ``state.x``:
    grad f_t(x_t) + A_t'(lam + rho(Ax + z - b)), from the products the
    state carries and one stacked product for all blocks."""
    v = state.lam + rho * (state.Ax + state.z - problem.b)
    return problem.objective_gradients(state.Qx) + problem.block_products_T(
        v[problem.coupling_rows.row])


class BlockObjective:
    """The subproblems of k blocks with the other blocks frozen, each as
    its exact quadratic model about the anchor xbar_t:

    q_t(x_t) = g_t'd + (1/2) d'H_t d,   d = x_t - xbar_t,

    with g_t block t's slice of the flat ``subproblem_gradients`` vector
    and H_t = Q_t + (rho + tau_x) A_t'A_t.  It differs from
    f_t(x_t) + lam'A_t x_t + (rho/2)||A_t x_t + A_{!=t} xbar + zbar - b||^2
    + (tau_x/2)||x_t - xbar_t||^2_{A_t'A_t} by a constant only.  Exposes
    the ``value``, ``gradient`` and ``hessian`` callbacks of the
    subproblem solvers.

    The models are held as stacks: the Hessians H (k, n, n), a quadratic
    group's ``hessian(rho + tau_x)``, and the gradients g (k, n) at the
    anchors (k, n).  Each callback takes the points X (len(rows), n) of the
    stack rows ``rows``, row by row.
    """

    def __init__(self, H, g, anchor):
        self.H, self.g, self.anchor = H, g, anchor

    def value(self, X, rows):
        D = X - self.anchor[rows]
        return _dot(D, self.g[rows] + 0.5 * _matvec(self.H[rows], D))

    def gradient(self, X, rows):
        return self.g[rows] + _matvec(self.H[rows], X - self.anchor[rows])

    def hessian(self, X, rows):
        """The dense Hessians H_t of the rows."""
        return self.H[rows]


def lyapunov(problem, state, params):
    """Augmented Lagrangian plus the proximal deviation terms:

    L(x, z, lam) + (tau_z/4)||z - z_prev||^2
                 + sum_t (tau_x/4)||x_t - x_prev_t||^2_{A_t'A_t}

    at the iterate ``state``.  The sum over the blocks is ||K(x - x_prev)||^2,
    one dot product of the state's ``Kdx`` over the nonzero coupling rows K
    of all blocks.
    """
    val = aug_lagrangian(problem, state, params)
    dz = state.z - state.z_prev
    val += 0.25 * params.tau_z * float(dz @ dz)
    val += 0.25 * params.tau_x * float(state.Kdx @ state.Kdx)
    return val


def _normal_cone_excess(r, x, lo, hi, active_tol):
    """Per coordinate, the part of the residual ``r`` that no bound active
    at ``x`` absorbs: |r| off the bounds, max(0, -r) at a lower bound only,
    max(0, r) at an upper bound only, 0 where both are active."""
    at_lo = x <= lo + active_tol
    at_hi = x >= hi - active_tol
    contrib = np.abs(r)
    only_lo = at_lo & ~at_hi
    only_hi = at_hi & ~at_lo
    contrib[only_lo] = np.maximum(0.0, -r[only_lo])
    contrib[only_hi] = np.maximum(0.0, r[only_hi])
    contrib[at_lo & at_hi] = 0.0
    return contrib


def fit_multipliers(J, G, free):
    """The multipliers mu (k, r) of the least-squares fits J_f' mu = -G_f,
    row by row, with J_f the equality Jacobians J (k, r, n) (or one (r, n)
    for every row) and G_f the gradients G (k, n), each masked to its
    coordinates ``free`` (k, n).

    One batched Cholesky factorization L L' of the Gram stack J_f J_f'
    solves the normal equations of the rows whose bound on cond(J_f) is at
    most ``GRAM_COND_MAX``.  A row whose J_f is zero gets mu = 0, as the
    pseudo-inverse gives.  The other rows, whose Gram does not factor or is
    too ill-conditioned, are fitted by the pseudo-inverse of J_f'.
    """
    Jf = np.where(free[:, None, :], J, 0.0)
    Gf = np.where(free, G, 0.0)
    M = Jf @ np.swapaxes(Jf, 1, 2)
    r = M.shape[-1]
    # a view of the diagonals of M; a row with J_f = 0 gets M = I, whose
    # solve of the zero right-hand side is mu = 0
    diag = M.reshape(len(M), r * r)[:, ::r + 1]
    diag += ~Jf.any(axis=(1, 2))[:, None]
    L, ok = _cholesky(M)
    L_inv = np.linalg.inv(L)
    # cond(J_f) = cond(L) <= ||L||_F ||L^-1||_F, and ||L||_F^2 = trace(M)
    ok = ok & (diag.sum(axis=1) * np.einsum("kij,kij->k", L_inv, L_inv)
               <= GRAM_COND_MAX ** 2)
    mu = -_matvec(np.swapaxes(L_inv, 1, 2), _matvec(L_inv, _matvec(Jf, Gf)))
    if not ok.all():
        bad = ~ok
        mu[bad] = _matvec(np.linalg.pinv(np.swapaxes(Jf[bad], 1, 2)),
                          -Gf[bad])
    return mu


def dual_residuals(problem, state):
    """The distance of every block's ``grad f_t + A_t' lam`` to the negative
    normal cone of its set at the iterate ``state``, as a list, from one
    stacked gradient (from the state's ``Qx``).  The blocks of a ``qp`` or
    ``alm`` group fit their multipliers together (``fit_multipliers``), on
    the equality Jacobians masked to each block's coordinates off the
    bounds: J is the shared rows C of a ``qp`` group, and each block's
    Jacobian of the group's map at its point for an ``alm`` group.  It does
    not check that ``state.x`` lies on the sets."""
    vec = state.x
    g = problem.objective_gradients(state.Qx) + problem.block_products_T(
        state.lam[problem.coupling_rows.row])
    for grp in problem.quadratic_groups:
        if grp.kind not in ("qp", "alm"):
            continue
        X, G = grp.take(vec), grp.take(g)
        J = grp.C if grp.kind == "qp" else grp.equality_map.jacobian(X)
        free = ~((X <= grp.lower + ACTIVE_TOL)
                 | (X >= grp.upper - ACTIVE_TOL))
        mu = fit_multipliers(J, G, free)
        g[grp.cols] = (G + _matvec(np.swapaxes(J, -1, -2), mu)).ravel()
    excess = _normal_cone_excess(g, vec, problem.lower, problem.upper,
                                 ACTIVE_TOL)
    return np.sqrt(np.bincount(problem.block_index, weights=excess * excess,
                               minlength=problem.T)).tolist()


@dataclass
class ResidualSnapshot:
    """All residual measures at one iterate."""

    pi: float
    delta: list
    p: np.ndarray
    d_x: np.ndarray
    d_z: np.ndarray
    infnorm_p: float
    infnorm_d: float
    infnorm_coupling: float

    @property
    def delta_max(self):
        return max(self.delta) if self.delta else 0.0


def penalty_residuals(problem, state, params):
    """Primal and dual residuals of the quadratic penalty formulation:

    p = Ax + z - b
    d_t = rho A_t'(A_{!=t} dx_{!=t}) - rho A_t' dz - tau_x A_t'A_t dx_t
    d_z = -tau_z dz

    with ``d_x`` the flat vector of every d_t and delta_t the block dual
    residuals (``dual_residuals``), from the products the state carries.
    """
    if state.k < 1:
        raise ValueError("penalty residuals undefined at k = 0")
    row = problem.coupling_rows.row
    Ax, Adx = state.Ax, state.Kdx
    p = Ax + state.z - problem.b
    Adx_total = problem.row_sums(Adx)
    d = problem.block_products_T(
        params.rho * (Adx_total[row] - Adx - state.dz[row])
        - params.tau_x * Adx)
    d_z = -params.tau_z * state.dz
    infnorm_d = max(float(np.max(np.abs(d), initial=0.0)),
                    float(np.max(np.abs(d_z), initial=0.0)))
    return ResidualSnapshot(
        pi=float(np.linalg.norm(Ax - problem.b)),
        delta=dual_residuals(problem, state),
        p=p,
        d_x=d,
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


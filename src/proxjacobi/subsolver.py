"""Local solution of the block subproblems.

Built-in solvers behind a deterministic dispatcher: an exact Newton step
for unconstrained quadratic blocks, an active-set QP for quadratic blocks
with linear equalities and a box (shared with the reference oracle),
projected gradient descent for box constraints, and an inner
augmented-Lagrangian loop over projected Newton for nonlinear equalities.
All solvers are monotone: the returned objective value never exceeds the
warm start's.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_NUMERICAL_FAILURE = "numerical-failure"

ARMIJO_C = 1e-4
BB_STEP_MIN = 1e-8
BB_STEP_MAX = 1e8
ALM_SIGMA_INIT = 10.0
ALM_SIGMA_GROWTH = 10.0
ALM_SIGMA_CAP = 1e12
ALM_MAX_ROUNDS = 40
QP_MAX_PASSES = 50


@dataclass
class BlockSolveRequest:
    """One block subproblem: objective callbacks, block set and warm start."""

    t: int
    objective: object          # exposes value(x) and gradient(x)
    set: object                # ConstraintSet
    warm_start: np.ndarray
    tol: float = 1e-9
    max_iter: int = 500

    def __post_init__(self):
        ws = np.asarray(self.warm_start, dtype=float)
        # clip tiny bound violations on entry
        self.warm_start = np.clip(ws, self.set.lower, self.set.upper)


@dataclass
class BlockSolveResult:
    x: np.ndarray
    mu: np.ndarray
    status: str
    inner_iterations: int
    grad_norm: float
    solver: str = ""

    @property
    def converged(self):
        return self.status == STATUS_CONVERGED


def project_box(x, lower, upper):
    """Coordinatewise clamp onto [lower, upper]."""
    return np.minimum(np.maximum(np.asarray(x, dtype=float), lower), upper)


def solve_quadratic_exact(req):
    """Exact Newton step for an unconstrained quadratic block subproblem.

    Requires a positive definite subproblem Hessian; indefinite or singular
    systems, and non-finite data, report numerical failure so the caller
    can fall back to projected gradient.  The Hessian factor comes from the
    block's cache.
    """
    obj = req.objective
    n = req.warm_start.shape[0]
    g0 = obj.gradient(np.zeros(n))
    fail = BlockSolveResult(
        x=req.warm_start.copy(), mu=np.empty(0),
        status=STATUS_NUMERICAL_FAILURE, inner_iterations=0,
        grad_norm=float("inf"), solver="quadratic-exact")
    if not np.all(np.isfinite(g0)):
        return fail
    try:
        cho = obj.block.hessian_factor(obj.rho + obj.tau_x)
    except scipy.linalg.LinAlgError:
        return fail
    x = scipy.linalg.cho_solve(cho, -g0)
    gn = float(np.linalg.norm(obj.gradient(x)))
    if not np.isfinite(gn) or gn > 1e-10 * (1.0 + float(np.linalg.norm(g0))):
        # refine once; Cholesky solves are accurate enough in practice
        x = x - scipy.linalg.cho_solve(cho, obj.gradient(x))
        gn = float(np.linalg.norm(obj.gradient(x)))
    return BlockSolveResult(
        x=x, mu=np.empty(0), status=STATUS_CONVERGED, inner_iterations=1,
        grad_norm=gn, solver="quadratic-exact")


def solve_box_qp(H, g, C, d, lo, hi, rtol=1e-8):
    """Minimize 0.5 x'Hx + g'x subject to Cx = d and lo <= x <= hi.

    Primal-dual active set: coordinates with lo = hi stay pinned.  Each pass
    solves the equality KKT system on the free coordinates, with the pinned
    ones held at their bounds, then pins the free coordinates that left the
    box and releases the pinned ones whose box multiplier Hx + g + C'mu has
    the wrong sign.  The pass that changes nothing ends the loop; its KKT
    residual, wrong-signed multipliers included, must be at most
    ``rtol (1 + max|rhs|)``.

    Returns ``(x, mu, passes)``, or None when a KKT system is singular, a
    value is non-finite, the residual is too large or the active set has
    not settled within QP_MAX_PASSES passes.
    """
    n, r = len(g), len(d)
    fixed = np.isfinite(lo) & (lo == hi)
    at_lo = fixed.copy()
    at_hi = np.zeros(n, dtype=bool)
    for passes in range(1, QP_MAX_PASSES + 1):
        pinned = at_lo | at_hi
        free = ~pinned
        nf = int(np.sum(free))
        x = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
        kkt = np.zeros((nf + r, nf + r))
        kkt[:nf, :nf] = H[np.ix_(free, free)]
        kkt[:nf, nf:] = C[:, free].T
        kkt[nf:, :nf] = C[:, free]
        rhs = np.concatenate([
            -(g[free] + H[np.ix_(free, pinned)] @ x[pinned]),
            d - C[:, pinned] @ x[pinned],
        ])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        x[free] = sol[:nf]
        mu = sol[nf:]
        tol = rtol * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))
        mult = H @ x + g + C.T @ mu
        release = (at_lo & ~fixed & (mult < -tol)) | (at_hi & (mult > tol))
        below = free & (x < lo)
        above = free & (x > hi)
        if not (np.any(release) or np.any(below) or np.any(above)):
            resid = float(np.max(np.abs(kkt @ sol - rhs), initial=0.0))
            return (x, mu, passes) if resid <= tol else None
        at_lo = (at_lo & ~release) | below
        at_hi = (at_hi & ~release) | above
    return None


def solve_quadratic_kkt(req):
    """Quadratic blocks with linear equalities and a box, by the active-set
    QP; reports numerical failure when it returns None, so the caller can
    fall back.  ``inner_iterations`` counts its passes."""
    obj = req.objective
    n = req.warm_start.shape[0]
    rows = req.set.linear_rows
    if rows is None:
        raise ValueError("quadratic-kkt solver requires linear equalities")
    C, d = rows
    qp = solve_box_qp(obj.hessian(req.warm_start), obj.gradient(np.zeros(n)),
                      C, d, req.set.lower, req.set.upper)
    if qp is None:
        return BlockSolveResult(
            x=req.warm_start.copy(), mu=np.empty(0),
            status=STATUS_NUMERICAL_FAILURE, inner_iterations=0,
            grad_norm=float("inf"), solver="quadratic-kkt")
    x, mu, passes = qp
    return BlockSolveResult(
        x=x, mu=mu, status=STATUS_CONVERGED, inner_iterations=passes,
        grad_norm=float(np.max(np.abs(C @ x - d), initial=0.0)),
        solver="quadratic-kkt")


def _pg_criticality(x, g, lower, upper):
    """Infinity norm of x - proj(x - g) (unit-step projected gradient)."""
    return float(np.max(np.abs(x - project_box(x - g, lower, upper)), initial=0.0))


def solve_box_pg(req):
    """Projected gradient descent over a box.

    The trial step is initialized from a Barzilai-Borwein estimate clamped
    to [1e-8, 1e8]; the step along the projected direction is an exact line
    search on the quadratic objective (``hess_vec``), so accepted steps
    never increase it and the result's value is at most the warm start's.
    """
    obj = req.objective
    value, gradient, hess_vec = obj.value, obj.gradient, obj.hess_vec
    lo, hi = req.set.lower, req.set.upper
    x = project_box(req.warm_start, lo, hi)
    f = value(x)
    g = gradient(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return BlockSolveResult(
            x=x, mu=np.empty(0), status=STATUS_NUMERICAL_FAILURE,
            inner_iterations=0, grad_norm=float("inf"), solver="box-pg")
    step = 1.0
    status = STATUS_ITERATION_CAP
    it = 0
    crit = _pg_criticality(x, g, lo, hi)
    for it in range(1, req.max_iter + 1):
        if crit <= req.tol:
            status = STATUS_CONVERGED
            break
        d = project_box(x - step * g, lo, hi) - x
        slope = float(g @ d)
        if slope >= 0.0:
            # degenerate direction; retry from a conservative step
            step = max(BB_STEP_MIN, step * 0.25)
            d = project_box(x - step * g, lo, hi) - x
            slope = float(g @ d)
            if slope >= 0.0:
                status = STATUS_CONVERGED if crit <= req.tol else STATUS_ITERATION_CAP
                break
        # exact line search along the projected direction
        curv = float(d @ hess_vec(d))
        alpha = 1.0 if curv <= 0 else min(1.0, -slope / curv)
        f_new = value(x + alpha * d)
        if not np.isfinite(f_new):
            return BlockSolveResult(
                x=x, mu=np.empty(0), status=STATUS_NUMERICAL_FAILURE,
                inner_iterations=it, grad_norm=crit, solver="box-pg")
        x_new = x + alpha * d
        g_new = gradient(x_new)
        if not np.all(np.isfinite(g_new)):
            return BlockSolveResult(
                x=x_new, mu=np.empty(0), status=STATUS_NUMERICAL_FAILURE,
                inner_iterations=it, grad_norm=float("inf"), solver="box-pg")
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 0:
            step = min(max(float(s @ s) / sy, BB_STEP_MIN), BB_STEP_MAX)
        else:
            step = BB_STEP_MAX
        x, f, g = x_new, f_new, g_new
        crit = _pg_criticality(x, g, lo, hi)
        if crit <= req.tol:
            status = STATUS_CONVERGED
            break
    return BlockSolveResult(
        x=x, mu=np.empty(0), status=status, inner_iterations=it,
        grad_norm=crit, solver="box-pg")


def solve_box_newton(req):
    """Projected Newton over a box for objectives with analytic Hessians.

    Coordinates pressed against a bound by the gradient are frozen; the
    Newton system on the free set is regularized by an escalating ridge
    until it factors.  Backtracking uses the projected-arc Armijo rule with
    a machine-noise allowance so the final sharpening steps near the
    minimizer are not rejected.
    """
    obj = req.objective
    value, gradient, hessian = obj.value, obj.gradient, obj.hessian
    lo, hi = req.set.lower, req.set.upper
    x = project_box(req.warm_start, lo, hi)
    f = value(x)
    g = gradient(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return BlockSolveResult(
            x=x, mu=np.empty(0), status=STATUS_NUMERICAL_FAILURE,
            inner_iterations=0, grad_norm=float("inf"), solver="box-newton")
    status = STATUS_ITERATION_CAP
    it = 0
    crit = _pg_criticality(x, g, lo, hi)
    best_crit = crit
    stall = 0
    for it in range(1, req.max_iter + 1):
        if crit <= req.tol:
            status = STATUS_CONVERGED
            break
        if crit >= 0.999 * best_crit:
            stall += 1
            if stall >= 20:
                break
        else:
            stall = 0
            best_crit = crit
        eps_a = min(1e-8, crit)
        active = (((x <= lo + eps_a) & (g > 0))
                  | ((x >= hi - eps_a) & (g < 0)))
        free = np.where(~active)[0]
        if free.size == 0:
            status = (STATUS_CONVERGED if crit <= req.tol
                      else STATUS_ITERATION_CAP)
            break
        H = hessian(x)
        Hff = H[np.ix_(free, free)]
        scale = max(float(np.max(np.abs(np.diag(Hff)))), 1.0)
        ridge = 0.0
        d_f = None
        while ridge < 1e12 * scale:
            try:
                cho = scipy.linalg.cho_factor(
                    Hff + ridge * np.eye(free.size), check_finite=False)
                d_f = scipy.linalg.cho_solve(cho, -g[free],
                                             check_finite=False)
                break
            except scipy.linalg.LinAlgError:
                ridge = max(10.0 * ridge, 1e-8 * scale)
        if d_f is None or not np.all(np.isfinite(d_f)):
            d_f = -g[free]
        d = np.zeros_like(x)
        d[free] = d_f
        alpha = 1.0
        moved = False
        for _ in range(40):
            x_new = project_box(x + alpha * d, lo, hi)
            step = x_new - x
            f_new = value(x_new)
            if np.isfinite(f_new) and f_new <= (
                    f + ARMIJO_C * float(g @ step)
                    + 1e-12 * (1.0 + abs(f))):
                moved = True
                break
            alpha *= 0.5
        if not moved or np.array_equal(x_new, x):
            status = (STATUS_CONVERGED if crit <= req.tol
                      else STATUS_ITERATION_CAP)
            break
        x, f = x_new, f_new
        g = gradient(x)
        if not np.all(np.isfinite(g)):
            return BlockSolveResult(
                x=x, mu=np.empty(0), status=STATUS_NUMERICAL_FAILURE,
                inner_iterations=it, grad_norm=float("inf"),
                solver="box-newton")
        crit = _pg_criticality(x, g, lo, hi)
        if crit <= req.tol:
            status = STATUS_CONVERGED
            break
    return BlockSolveResult(
        x=x, mu=np.empty(0), status=status, inner_iterations=it,
        grad_norm=crit, solver="box-newton")


class _PenalizedObjective:
    """obj + y'c + (sigma/2)||c||^2 over the box, for the inner ALM solves;
    c is the block set's equality map."""

    def __init__(self, obj, cset, y, sigma):
        self.obj = obj
        self.set = cset
        self.y = y
        self.sigma = sigma

    def value(self, x):
        c = self.set.equality_values(x)
        return (self.obj.value(x) + float(self.y @ c)
                + 0.5 * self.sigma * float(c @ c))

    def gradient(self, x):
        """grad obj + J'(y + sigma c)."""
        c = self.set.equality_values(x)
        J = self.set.equality_jacobian(x)
        return self.obj.gradient(x) + J.T @ (self.y + self.sigma * c)

    def hessian(self, x):
        """obj'' + sum_i (y + sigma c)_i c_i'' + sigma J'J."""
        c = self.set.equality_values(x)
        J = self.set.equality_jacobian(x)
        return (self.obj.hessian(x)
                + self.set.equality_hessian(x, self.y + self.sigma * c)
                + self.sigma * (J.T @ J))


def solve_equality_alm(req):
    """Inner augmented-Lagrangian loop for equality-described block sets.

    Multiplier estimates are updated as ``y <- y + sigma c``; the penalty
    grows tenfold whenever the equality violation fails to shrink by a
    factor of 4 in a round, up to the 1e12 cap.
    """
    y = np.zeros(len(req.set.equalities))
    sigma = ALM_SIGMA_INIT
    x = req.warm_start.copy()
    total_inner = 0
    c_prev = float("inf")
    best = None
    x_last_round = None
    for _ in range(ALM_MAX_ROUNDS):
        pen = _PenalizedObjective(req.objective, req.set, y, sigma)
        inner_req = BlockSolveRequest(
            t=req.t, objective=pen, set=req.set, warm_start=x,
            tol=req.tol, max_iter=req.max_iter)
        inner = solve_box_newton(inner_req)
        total_inner += inner.inner_iterations
        if inner.status == STATUS_NUMERICAL_FAILURE:
            return BlockSolveResult(
                x=inner.x, mu=y, status=STATUS_NUMERICAL_FAILURE,
                inner_iterations=total_inner, grad_norm=inner.grad_norm,
                solver="equality-alm")
        x = inner.x
        c = req.set.equality_values(x)
        cn = float(np.max(np.abs(c), initial=0.0))
        y = y + sigma * c
        if best is None or cn < best[0]:
            best = (cn, x.copy(), y.copy(), inner.grad_norm)
        if cn <= req.tol and inner.grad_norm <= req.tol:
            return BlockSolveResult(
                x=x, mu=y, status=STATUS_CONVERGED,
                inner_iterations=total_inner, grad_norm=inner.grad_norm,
                solver="equality-alm")
        if x_last_round is not None:
            moved = float(np.max(np.abs(x - x_last_round), initial=0.0))
            if moved <= 1e-14 * (1.0 + float(np.max(np.abs(x), initial=0.0))):
                # iterates have stalled; further rounds cannot improve
                break
        x_last_round = x.copy()
        if cn > c_prev / 4.0:
            if sigma >= ALM_SIGMA_CAP:
                break
            sigma = min(sigma * ALM_SIGMA_GROWTH, ALM_SIGMA_CAP)
        c_prev = cn
    cn, xb, yb, gn = best
    return BlockSolveResult(
        x=xb, mu=yb, status=STATUS_ITERATION_CAP,
        inner_iterations=total_inner, grad_norm=gn, solver="equality-alm")


def dispatch(req):
    """Route a block solve to the applicable solver.

    Unconstrained quadratic blocks take the exact Newton path (falling back
    to projected gradient on an indefinite Hessian); quadratic blocks with
    linear equalities take the active-set QP, and other equality-constrained
    sets, or a failed QP, the inner ALM path; everything else is projected
    gradient over the box.
    """
    if req.set.equalities:
        if req.set.linear_rows is not None:
            result = solve_quadratic_kkt(req)
            if result.status != STATUS_NUMERICAL_FAILURE:
                return result
        return solve_equality_alm(req)
    if not req.set.has_bounds:
        result = solve_quadratic_exact(req)
        if result.status != STATUS_NUMERICAL_FAILURE:
            return result
    return solve_box_pg(req)

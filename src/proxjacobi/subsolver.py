"""Local solution of the block subproblems.

An exact Newton step for stacks of unconstrained quadratic blocks, which
the Jacobi sweep solves together, and per-block solvers behind a
deterministic dispatcher.  A per-block solver reads its objective through
``value``, ``gradient`` and ``hessian`` callbacks; in the sweep that is the
block's exact quadratic model (``auglag.BlockObjective``).  Each kind of
block has one solver:

- quadratic blocks with linear equalities and a box: an active-set QP
  (shared with the reference oracle).  It returns only a certified strict
  local minimizer, but it is not monotone: the warm start may violate the
  equalities, and then its objective value can be below the minimizer's;
- box-only blocks: projected Newton, which is monotone (the returned
  objective value never exceeds the warm start's) and handles indefinite
  Hessians;
- nonlinear equalities, or a QP without a certificate: an inner
  augmented-Lagrangian loop over projected Newton.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import _positive_definite

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_NUMERICAL_FAILURE = "numerical-failure"

ARMIJO_C = 1e-4
ALM_SIGMA_INIT = 10.0
ALM_SIGMA_GROWTH = 10.0
ALM_SIGMA_CAP = 1e12
ALM_MAX_ROUNDS = 40
QP_MAX_PASSES = 50
QP_INERTIA_RTOL = 1e-10


@dataclass
class BlockSolveRequest:
    """One block subproblem: objective callbacks, block set and warm start."""

    t: int
    objective: object          # exposes value(x), gradient(x), hessian(x)
    set: object                # ConstraintSet
    warm_start: np.ndarray
    tol: float = 1e-8
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


def solve_quadratic_exact(H, H_inv, g):
    """Exact Newton steps of a stack of unconstrained quadratic block
    subproblems: dx = -H^-1 g, row by row, with H (k, n, n) the positive
    definite subproblem Hessians, H_inv their inverses and g (k, n) the
    gradients at the anchors.

    A row whose gradient at the step, g + H dx, exceeds 1e-10 (1 + |g|) is
    refined once.  Returns ``(dx, ok)``; ``ok`` is false on rows with a
    non-finite gradient or step, which the caller solves another way.
    """
    dx = -(H_inv @ g[..., None])[..., 0]
    r = g + (H @ dx[..., None])[..., 0]
    # a NaN residual fails the test too, so its row is refined (and stays
    # non-finite)
    refine = ~(np.linalg.norm(r, axis=1)
               <= 1e-10 * (1.0 + np.linalg.norm(g, axis=1)))
    if np.any(refine):
        dx[refine] -= (H_inv[refine] @ r[refine][..., None])[..., 0]
    ok = np.isfinite(g).all(axis=1) & np.isfinite(dx).all(axis=1)
    return dx, ok


def _second_order_ok(kkt, nf):
    """True when the KKT matrix ``kkt`` (free Hessian in its leading
    ``nf`` x ``nf`` block, r equality rows after it) certifies a strict
    local minimizer: the free Hessian is positive definite, or else the
    matrix has exactly r negative eigenvalues and none within
    QP_INERTIA_RTOL of zero relative to the largest, so the Hessian is
    positive definite on the null space of the rows (Nocedal & Wright,
    *Numerical Optimization*, Thm 16.3)."""
    if _positive_definite(kkt[:nf, :nf]):
        return True
    eig = np.linalg.eigvalsh(kkt)
    size = np.abs(eig)
    return (int(np.sum(eig < 0)) == len(kkt) - nf
            and size.min() > QP_INERTIA_RTOL * size.max())


def solve_box_qp(H, g, C, d, lo, hi, rtol=1e-8):
    """Minimize 0.5 x'Hx + g'x subject to Cx = d and lo <= x <= hi.

    Primal-dual active set: coordinates with lo = hi stay pinned.  Each pass
    solves the equality KKT system on the free coordinates, with the pinned
    ones held at their bounds, then pins the free coordinates that left the
    box and releases the pinned ones whose box multiplier Hx + g + C'mu has
    the wrong sign.  The pass that changes nothing ends the loop; its KKT
    residual, wrong-signed multipliers included, must be at most
    ``rtol (1 + max|rhs|)``, and its point must be a strict local
    minimizer on the free coordinates (``_second_order_ok``).

    Returns ``(x, mu, passes)``, or None when a KKT system is singular, a
    value is non-finite, the residual is too large, the point is not
    certified a strict local minimizer or the active set has not settled
    within QP_MAX_PASSES passes.
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
            if resid > tol or not _second_order_ok(kkt, nf):
                return None
            return x, mu, passes
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
    c is the block set's equality map.

    The map's value and Jacobian at the last point asked for are kept, so
    the value, gradient and Hessian of one point evaluate the map once.
    """

    def __init__(self, obj, cset, y, sigma):
        self.obj = obj
        self.set = cset
        self.y = y
        self.sigma = sigma
        self._at = (None, None, None)

    def _map(self, x, jacobian=False):
        """``(c(x), J(x))``; J is None unless ``jacobian`` is asked for."""
        xk, c, J = self._at
        if xk is None or not np.array_equal(x, xk):
            xk, J = np.array(x, dtype=float), None
            c = self.set.equality_values(x)
        if jacobian and J is None:
            J = self.set.equality_jacobian(x)
        self._at = (xk, c, J)
        return c, J

    def value(self, x):
        c, _ = self._map(x)
        return (self.obj.value(x) + float(self.y @ c)
                + 0.5 * self.sigma * float(c @ c))

    def gradient(self, x):
        """grad obj + J'(y + sigma c)."""
        c, J = self._map(x, jacobian=True)
        return self.obj.gradient(x) + J.T @ (self.y + self.sigma * c)

    def hessian(self, x):
        """obj'' + sum_i (y + sigma c)_i c_i'' + sigma J'J."""
        c, J = self._map(x, jacobian=True)
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


def _negative_curvature(H):
    """True when the symmetric ``H`` has an eigenvalue below -1e-12 times
    its largest magnitude, a margin that rounding of a positive
    semidefinite matrix stays above."""
    if H.size == 0:
        return False
    eig = np.linalg.eigvalsh(H)
    return bool(eig[0] < -1e-12 * np.max(np.abs(eig)))


def dispatch(req):
    """Route a block solve to the applicable solver.

    Quadratic blocks with linear equalities take the active-set QP, and
    other equality-constrained sets, or a QP without a certified minimizer,
    the inner ALM path; everything else is projected Newton over the box.
    (Unconstrained blocks come here only when the batched exact step of the
    Jacobi sweep failed for them.)  A box-only block whose model Hessian is
    non-finite, or has negative curvature on the coordinates without a
    finite bound, along which the model is unbounded below, fails at once.
    """
    if req.set.equalities:
        if req.set.linear_rows is not None:
            result = solve_quadratic_kkt(req)
            if result.status != STATUS_NUMERICAL_FAILURE:
                return result
        return solve_equality_alm(req)
    lo, hi = req.set.lower, req.set.upper
    H = req.objective.hessian(req.warm_start)
    unbounded = ~(np.isfinite(lo) | np.isfinite(hi))
    if not np.all(np.isfinite(H)) or _negative_curvature(
            H[np.ix_(unbounded, unbounded)]):
        return BlockSolveResult(
            x=req.warm_start.copy(), mu=np.empty(0),
            status=STATUS_NUMERICAL_FAILURE, inner_iterations=0,
            grad_norm=float("inf"), solver="box-newton")
    return solve_box_newton(req)

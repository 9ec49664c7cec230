"""Local solution of the block subproblems.

Batched solvers, which the Jacobi sweep runs on each group of blocks
(``model.QuadraticGroup``).  A solver reads its objective through
``value``, ``gradient`` and ``hessian`` callbacks; in the sweep that is the
stack of the blocks' exact quadratic models (``auglag.BlockObjective``).
Each kind of group has one solver:

- ``exact`` (unconstrained quadratic blocks): an exact Newton step;
- ``qp`` (quadratic blocks with linear equalities and a box): an
  active-set QP on a stack of blocks that share the equality rows (shared
  with the reference oracle and the lower bound, which call it with one
  problem); the sweep gives its first pass the group's starting KKT
  system, inverted once per rho + tau_x (``start_system``).  It returns
  only certified strict local minimizers, but it is not monotone: the
  warm start may violate the equalities, and then its objective value can
  be below the minimizer's;
- ``box`` (box-only blocks): projected Newton, which is monotone (the
  returned objective value never exceeds the warm start's) and handles
  indefinite Hessians; ``box_newton_rows`` also takes the rows of an
  exact step that failed;
- ``alm`` (nonlinear equalities): an inner augmented-Lagrangian loop over
  projected Newton, ``equality_alm_rows``, on a stack of blocks whose
  equalities are one map up to the right-hand side; it also takes the rows
  of a QP without a certificate.  It starts each row from the multipliers
  and penalty its caller passes: the sweep keeps those an ``alm`` group's
  rows ended with when they converged (``jacobi.solve_group``), and
  starts the other rows cold (``alm_cold_start``).

The iterative solvers run every row of the stack in lockstep, each with
its own multipliers, penalty, active set, ridge, step length and stopping
tests, so that each row computes what a solve of its block alone (the
stack k = 1) computes, bit for bit.  They return arrays over the rows: the
points, the statuses (``STATUS_*``), the inner iteration counts and the
criticalities, and for the ALM the multipliers and penalties.  The
objective callbacks answer for the rows ``rows`` of the stack at the points
X (len(rows), n).
"""

from typing import NamedTuple

import numpy as np

from .model import _cholesky, _dot, _matvec

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_NUMERICAL_FAILURE = "numerical-failure"
STATUS_STALLED = "stalled"

ARMIJO_C = 1e-4
ALM_SIGMA_INIT = 10.0
ALM_SIGMA_GROWTH = 10.0
ALM_SIGMA_CAP = 1e12
ALM_MAX_ROUNDS = 40
QP_MAX_PASSES = 50
QP_INERTIA_RTOL = 1e-10
INNER_TOL = 1e-8
INNER_MAX_ITER = 500


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


def _inertia_ok(kkt, nf):
    """True when the KKT matrix ``kkt`` (free Hessian in its leading
    ``nf`` x ``nf`` block, r equality rows after it) has exactly r negative
    eigenvalues and none within QP_INERTIA_RTOL of zero relative to the
    largest: the Hessian is then positive definite on the null space of
    the rows (Nocedal & Wright, *Numerical Optimization*, Thm 16.3)."""
    eig = np.linalg.eigvalsh(kkt)
    size = np.abs(eig)
    return (int(np.sum(eig < 0)) == len(kkt) - nf
            and size.min() > QP_INERTIA_RTOL * size.max())


def _solve_rows(kkt, rhs):
    """``np.linalg.solve`` of each system of the stack kkt (k, m, m) for its
    right-hand sides rhs (k, m, p), with NaN on the rows whose matrix is
    singular."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        if len(kkt) == 1:
            return np.full_like(rhs, np.nan)
        return np.concatenate([_solve_rows(K[None], b[None])
                               for K, b in zip(kkt, rhs)])


def _strict_minimizers(kkt, free):
    """Per row of the stack of KKT matrices ``kkt`` with the free
    coordinates ``free`` (k, n), whether a KKT point is a strict local
    minimizer on the free coordinates: its free Hessian factors by Cholesky
    (one batched factorization), or else its KKT matrix has the inertia of
    one (``_inertia_ok``)."""
    n = free.shape[1]
    ok = _cholesky(kkt[:, :n, :n])[1]
    for i in np.flatnonzero(~ok):
        rows = np.concatenate([free[i], np.ones(len(kkt[i]) - n, bool)])
        ok[i] = _inertia_ok(kkt[i][np.ix_(rows, rows)], int(free[i].sum()))
    return ok


class KKTSystem(NamedTuple):
    """The part of a pass of ``solve_box_qp`` that does not depend on the
    gradients, for a stack of k problems with the coordinates ``at_lo`` and
    ``at_hi`` (k, n) pinned at their bounds (``kkt_system``): the free
    coordinates ``free`` and the pinned values ``xp`` (k, n) (zero on the
    free ones), ``Hxp`` = H xp (k, n), ``dCxp`` = d - C xp (k, r), and the
    KKT matrices ``kkt`` (k, n + r, n + r).  A starting system
    (``start_system``) also holds their inverses ``inv`` (NaN on a singular
    matrix) and ``strict``, ``_strict_minimizers`` of every row; both are
    None in a one-shot system."""

    free: np.ndarray
    xp: np.ndarray
    Hxp: np.ndarray
    dCxp: np.ndarray
    kkt: np.ndarray
    inv: np.ndarray | None = None
    strict: np.ndarray | None = None


def kkt_system(H, C, d, lo, hi, at_lo, at_hi):
    """The one-shot :class:`KKTSystem` of the stack H (k, n, n), the shared
    rows C (r, n), the right-hand sides d (k, r) and the bounds lo, hi
    (k, n), with the coordinates ``at_lo`` and ``at_hi`` pinned.  A pinned
    coordinate is an identity row and column of its row's
    (n + r) x (n + r) matrix, its H and C columns moved to the right-hand
    side (through ``Hxp`` and ``dCxp``)."""
    k, n = lo.shape
    r = len(C)
    pinned = at_lo | at_hi
    free = ~pinned
    xp = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
    CT = np.where(free[:, :, None], C.T, 0.0)
    kkt = np.zeros((k, n + r, n + r))
    kkt[:, :n, :n] = np.where(free[:, :, None] & free[:, None, :], H, 0.0)
    diag = np.arange(n)
    kkt[:, diag, diag] += pinned
    kkt[:, :n, n:] = CT
    kkt[:, n:, :n] = np.swapaxes(CT, 1, 2)
    return KKTSystem(free, xp, _matvec(H, xp), d - xp @ C.T, kkt)


def start_system(H, C, d, lo, hi):
    """The starting :class:`KKTSystem` of ``solve_box_qp``'s first pass on
    the stack (H, C, d, lo, hi): only the fixed coordinates (lo = hi)
    pinned, with the inverses of the KKT matrices (one batched solve, NaN
    on a singular matrix) and the certificate of every row (meaningless,
    and never read, on a row whose H is not finite).  It depends on the
    stack and not on the gradients, so the sweep keeps one per ``qp``
    group and rho + tau_x (``QuadraticGroup.kkt_start``)."""
    fixed = np.isfinite(lo) & (lo == hi)
    system = kkt_system(H, C, d, lo, hi, fixed, np.zeros_like(fixed))
    kkt = system.kkt
    eye = np.broadcast_to(np.eye(kkt.shape[-1]), kkt.shape)
    return system._replace(inv=_solve_rows(kkt, eye),
                           strict=_strict_minimizers(kkt, system.free))


def solve_box_qp(H, g, C, d, lo, hi, rtol=1e-8, start=None):
    """Minimize 0.5 x'H_i x + g_i'x subject to C x = d_i and
    lo_i <= x <= hi_i, for every row i of a stack of k problems: H
    (k, n, n), g, lo and hi (k, n), the shared rows C (r, n) and d (k, r).

    Primal-dual active set (Hintermueller, Ito & Kunisch, SIAM J. Optim.
    13(3), 2002), run on all rows at once: coordinates with lo = hi stay
    pinned.  Each pass solves, for every row still in the loop, its
    equality KKT system on the free coordinates with the pinned ones held
    at their bounds (a :class:`KKTSystem`, whose identity rows for the
    pinned coordinates let one batched solve serve the pass).  The first
    pass pins only the fixed coordinates, so its system does not depend on
    g: ``start``, when given, is that system (``start_system`` of the same
    stack), solved by its inverses as the exact step solves by H^-1, with
    its certificate precomputed; otherwise, and on every later pass, the
    pass builds a one-shot system for its rows (``kkt_system``) and solves
    it by LU (``_solve_rows``).  The pass then pins the free coordinates
    that left the box and releases the pinned ones whose box multiplier
    Hx + g + C'mu has the wrong sign.  A row whose pass changes nothing
    leaves the loop; its KKT residual, on the free coordinates and the
    equality rows, must be at most ``rtol (1 + max|rhs|)``, and its point
    must be a strict local minimizer on the free coordinates
    (``_strict_minimizers``).

    Returns ``(x, mu, passes)`` of shapes (k, n), (k, r) and (k,):
    ``passes[i]`` is the pass on which row i settled, or 0 when row i has
    no certified minimizer (a non-finite value, a singular KKT system, a
    residual too large, no strict local minimizer, or an active set that
    has not settled within QP_MAX_PASSES passes); x and mu of such a row
    are zero.
    """
    k, n = g.shape
    r = len(C)
    x, mu = np.zeros((k, n)), np.zeros((k, r))
    passes = np.zeros(k, dtype=int)
    fixed = np.isfinite(lo) & (lo == hi)
    at_lo = fixed.copy()
    at_hi = np.zeros((k, n), dtype=bool)
    live = np.flatnonzero(np.isfinite(H).all(axis=(1, 2))
                          & np.isfinite(g).all(axis=1))
    for p in range(1, QP_MAX_PASSES + 1):
        if live.size == 0:
            break
        # a pass over every row reads the stacks in place
        at = live if live.size < k else slice(None)
        Hl, gl, lol, hil = H[at], g[at], lo[at], hi[at]
        lo_l, hi_l = at_lo[at], at_hi[at]
        if p == 1 and start is not None:
            system = KKTSystem(*(a[at] for a in start))
        else:
            system = kkt_system(Hl, C, d[at], lol, hil, lo_l, hi_l)
        free, kkt = system.free, system.kkt
        rhs = np.concatenate([np.where(free, -(gl + system.Hxp), system.xp),
                              system.dCxp], axis=1)
        sol = (_solve_rows(kkt, rhs[..., None]) if system.inv is None
               else system.inv @ rhs[..., None])[..., 0]
        xl = np.where(free, sol[:, :n], system.xp)
        mul = sol[:, n:]
        # the rows of the reduced system: free coordinates and equalities
        rows = np.concatenate([free, np.ones((live.size, r), bool)], axis=1)
        tol = rtol * (1.0 + np.abs(np.where(rows, rhs, 0.0)).max(
            axis=1, initial=0.0))
        # only a coordinate pinned by an earlier pass can be released, so a
        # first pass forms no box multiplier
        loose = lo_l & ~fixed[at]
        release = loose | hi_l
        if release.any():
            mult = _matvec(Hl, xl) + gl + mul @ C
            release = ((loose & (mult < -tol[:, None]))
                       | (hi_l & (mult > tol[:, None])))
        below = free & (xl < lol)
        above = free & (xl > hil)
        finite = np.isfinite(sol).all(axis=1)
        settled = finite & ~(release | below | above).any(axis=1)
        resid = np.abs(np.where(rows, _matvec(kkt, sol) - rhs, 0.0)).max(
            axis=1, initial=0.0)
        cert = settled & (resid <= tol)
        idx = np.flatnonzero(cert)
        if idx.size:
            cert[idx] = (_strict_minimizers(kkt[idx], free[idx])
                         if system.strict is None else system.strict[idx])
        done = live[cert]
        x[done], mu[done], passes[done] = xl[cert], mul[cert], p
        at_lo[at] = (lo_l & ~release) | below
        at_hi[at] = (hi_l & ~release) | above
        live = live[finite & ~settled]
    return x, mu, passes


def _pg_criticality(X, G, lower, upper):
    """Per row, the infinity norm of x - proj(x - g) (unit-step projected
    gradient)."""
    return np.max(np.abs(X - project_box(X - G, lower, upper)), axis=-1,
                  initial=0.0)


def _newton_directions(H, G, free):
    """Per row, the Newton direction -(Hff + ridge I)^-1 g_f on the free
    coordinates, and zero on the others, which are identity rows and
    columns of the row's system (as in ``solve_box_qp``).  One batched
    Cholesky (``_cholesky``) tests the rows and one batched solve serves
    those that pass; the others climb the ridge ladder 0, 1e-8 s, 1e-7 s,
    ... below 1e12 s, with s = max(max|diag Hff|, 1), together, one such
    pair of calls per rung.  A row that no rung factors, or whose solve is
    not finite, takes -g_f.  The batched calls treat each matrix alone, so
    a row's direction is the one a solve of its block alone computes, bit
    for bit."""
    k, n = G.shape
    diag = np.arange(n)
    scale = np.maximum(np.max(np.where(free, np.abs(H[:, diag, diag]), 0.0),
                              axis=1), 1.0)
    rhs = np.where(free, -G, 0.0)
    Hf = np.where(free[:, :, None] & free[:, None, :], H, 0.0)
    Hf[:, diag, diag] += ~free
    D = rhs.copy()
    ridge = np.zeros(k)
    todo = np.arange(k)
    while todo.size:
        A = Hf[todo]
        A[:, diag, diag] += ridge[todo, None] * free[todo]
        ok = _cholesky(A)[1]
        done = todo[ok]
        D[done] = np.where(free[done], _solve_rows(
            A[ok], rhs[done][..., None])[..., 0], 0.0)
        todo = todo[~ok]
        ridge[todo] = np.maximum(10.0 * ridge[todo], 1e-8 * scale[todo])
        todo = todo[ridge[todo] < 1e12 * scale[todo]]
    bad = ~np.isfinite(D).all(axis=1)
    D[bad] = rhs[bad]
    return D


def _unbounded_below(H, lo, hi):
    """Per row of the stack H (k, n, n), whether the Hessian is not finite
    or has negative curvature on the coordinates without a finite bound,
    along which a quadratic model over the box lo, hi (k, n) is unbounded
    below.  One batched ``eigvalsh``, with the bounded coordinates and the
    non-finite rows zero, looks for an eigenvalue below -1e-12 times the
    largest magnitude, a margin that rounding of a PSD matrix stays above."""
    finite = np.isfinite(H).all(axis=(1, 2))
    free = ~(np.isfinite(lo) | np.isfinite(hi))
    eig = np.linalg.eigvalsh(np.where(
        finite[:, None, None] & free[:, :, None] & free[:, None, :], H, 0.0))
    return ~finite | (np.min(eig, axis=1, initial=0.0)
                      < -1e-12 * np.max(np.abs(eig), axis=1, initial=0.0))


def box_newton_rows(obj, X, lo, hi, tol=INNER_TOL, max_iter=INNER_MAX_ITER,
                    screen=True):
    """Projected Newton over the boxes lo, hi (k, n) for a stack of block
    models from the warm starts X (k, n), projected onto the boxes on
    entry, all rows in lockstep; ``obj`` exposes ``value``, ``gradient``
    and ``hessian`` of the rows ``rows`` of the stack at points X
    (len(rows), n).  Each row keeps its own active set, ridge, step length,
    stall count and status, and leaves the loop when it finishes.  Returns
    the arrays ``(X, status, inner, crit)``: the points (k, n), the
    statuses, the inner iteration counts and the projected-gradient
    criticality (k,), inf on the rows that ended in numerical failure.

    Coordinates with finite, equal bounds, and those pressed against a
    bound by the gradient, are frozen; the Newton system on the free set is
    regularized by an escalating ridge until it factors.  Backtracking uses the projected-arc Armijo rule with
    a machine-noise allowance so the final sharpening steps near the
    minimizer are not rejected.  With ``screen``, a row whose Hessian is
    not finite, or has negative curvature on the coordinates without a
    finite bound (``_unbounded_below`` at the start), fails at once, with
    no inner iteration.
    """
    k = len(X)
    X = project_box(X, lo, hi)
    fixed = np.isfinite(lo) & (lo == hi)
    rows = np.arange(k)
    f = obj.value(X, rows)
    G = obj.gradient(X, rows)
    status = np.full(k, STATUS_ITERATION_CAP, dtype=object)
    inner = np.zeros(k, dtype=int)
    crit = np.full(k, np.inf)
    bad = ~(np.isfinite(f) & np.isfinite(G).all(axis=1))
    if screen:
        bad |= _unbounded_below(obj.hessian(X, rows), lo, hi)
    status[bad] = STATUS_NUMERICAL_FAILURE
    live = rows[~bad]
    crit[live] = _pg_criticality(X[live], G[live], lo[live], hi[live])
    best = crit.copy()
    stall = np.zeros(k, dtype=int)
    for it in range(1, max_iter + 1):
        inner[live] = it
        done = crit[live] <= tol
        status[live[done]] = STATUS_CONVERGED
        live = live[~done]
        c = crit[live]
        worse = c >= 0.999 * best[live]
        stall[live] = np.where(worse, stall[live] + 1, 0)
        best[live] = np.where(worse, best[live], c)
        # stalled rows, and rows with no free coordinate, stop at the cap
        live = live[stall[live] < 20]
        x, g, lol, hil = X[live], G[live], lo[live], hi[live]
        eps_a = np.minimum(1e-8, crit[live])[:, None]
        free = ~(fixed[live] | ((x <= lol + eps_a) & (g > 0))
                 | ((x >= hil - eps_a) & (g < 0)))
        some = free.any(axis=1)
        if not some.all():
            live, x, g, lol, hil, free = (
                a[some] for a in (live, x, g, lol, hil, free))
        if not live.size:
            break
        d = _newton_directions(obj.hessian(x, live), g, free)
        f0 = f[live]
        alpha = np.ones(len(live))
        moved = np.zeros(len(live), dtype=bool)
        x_new, f_new = x.copy(), f0.copy()
        look = np.arange(len(live))
        for _ in range(40):
            trial = project_box(x[look] + alpha[look, None] * d[look],
                                lol[look], hil[look])
            ft = obj.value(trial, live[look])
            ok = np.isfinite(ft) & (ft <= f0[look] + ARMIJO_C * _dot(
                g[look], trial - x[look]) + 1e-12 * (1.0 + np.abs(f0[look])))
            x_new[look[ok]], f_new[look[ok]] = trial[ok], ft[ok]
            moved[look[ok]] = True
            look = look[~ok]
            if not look.size:
                break
            alpha[look] *= 0.5
        # a row whose search failed, or whose step changed nothing, stops
        # at the cap
        moved &= ~(x_new == x).all(axis=1)
        live = live[moved]
        X[live], f[live] = x_new[moved], f_new[moved]
        G[live] = obj.gradient(X[live], live)
        bad = ~np.isfinite(G[live]).all(axis=1)
        status[live[bad]] = STATUS_NUMERICAL_FAILURE
        live = live[~bad]
        crit[live] = _pg_criticality(X[live], G[live], lo[live], hi[live])
        done = crit[live] <= tol
        status[live[done]] = STATUS_CONVERGED
        live = live[~done]
        if not live.size:
            break
    crit[status == STATUS_NUMERICAL_FAILURE] = np.inf
    return X, status, inner, crit


class _PenalizedObjective:
    """obj + y'c + (sigma/2)||c||^2 over the box, row by row, for the inner
    ALM solves of a stack: row i is row ``idx[i]`` of ``obj``, with the
    equality map c(x) = ``eqmap``(x) - D_i, its own multipliers y_i and its
    own penalty sigma_i.

    The map's value and Jacobian at the last point each row asked for are
    kept, so the value, gradient and Hessian of one point evaluate the map
    once.
    """

    def __init__(self, obj, eqmap, D, y, sigma, idx):
        self.obj = obj
        self.map = eqmap
        self.D = D
        self.y = y
        self.sigma = sigma
        self.idx = idx
        k, r = D.shape
        self._x = np.full((k, eqmap.n), np.nan)
        self._c = np.zeros((k, r))
        self._J = np.zeros((k, r, eqmap.n))
        self._has_J = np.zeros(k, dtype=bool)

    def _map(self, X, rows, jacobian=False):
        """``(c(X), J(X))`` of the rows ``rows``; J is None unless
        ``jacobian`` is asked for."""
        new = ~(X == self._x[rows]).all(axis=1)
        if new.any():
            at = rows[new]
            self._x[at] = X[new]
            self._c[at] = self.map.values(X[new], self.D[at])
            self._has_J[at] = False
        if not jacobian:
            return self._c[rows], None
        at = rows[~self._has_J[rows]]
        if at.size:
            self._J[at] = self.map.jacobian(self._x[at])
            self._has_J[at] = True
        return self._c[rows], self._J[rows]

    def value(self, X, rows):
        c, _ = self._map(X, rows)
        return (self.obj.value(X, self.idx[rows]) + _dot(self.y[rows], c)
                + 0.5 * self.sigma[rows] * _dot(c, c))

    def gradient(self, X, rows):
        """grad obj + J'(y + sigma c)."""
        c, J = self._map(X, rows, jacobian=True)
        w = self.y[rows] + self.sigma[rows, None] * c
        return self.obj.gradient(X, self.idx[rows]) + _matvec(
            np.swapaxes(J, 1, 2), w)

    def hessian(self, X, rows):
        """obj'' + sum_i (y + sigma c)_i c_i'' + sigma J'J."""
        c, J = self._map(X, rows, jacobian=True)
        sigma = self.sigma[rows]
        return (self.obj.hessian(X, self.idx[rows])
                + self.map.weighted_hessian(X, self.y[rows]
                                            + sigma[:, None] * c)
                + sigma[:, None, None] * (np.swapaxes(J, 1, 2) @ J))


def alm_cold_start(k, r):
    """The inner ALM's cold start for k rows with r equalities: the
    multipliers y (k, r) at zero and the penalties sigma (k,) at
    ALM_SIGMA_INIT."""
    return np.zeros((k, r)), np.full(k, ALM_SIGMA_INIT)


def equality_alm_rows(obj, eqmap, D, X, lo, hi, y, sigma, tol=INNER_TOL,
                      max_iter=INNER_MAX_ITER):
    """Inner augmented-Lagrangian loop for a stack of blocks whose
    equalities are the map ``eqmap`` up to the right-hand sides D (k, r),
    from the warm starts X (k, n), the multipliers y (k, r) and the
    penalties sigma (k,), over the boxes lo and hi (k, n); ``obj`` exposes
    the stacked callbacks of the k block objectives.  Returns the arrays
    ``(X, status, inner, crit, y, sigma)``: each row's point, status,
    total inner iteration count and projected-gradient criticality of its
    last inner solve, and the multipliers and penalty at that point.

    Multiplier estimates are updated as ``y <- y + sigma c``; the penalty
    grows tenfold whenever the equality violation fails to shrink by a
    factor of 4 in a round, up to the 1e12 cap.  The rows run their rounds
    in lockstep, each with its own multipliers, penalty and stopping tests,
    through one projected-Newton call per round; a row leaves the loop when
    it finishes.  A row whose point stops moving, or whose violation stops
    shrinking at the penalty cap, leaves it STATUS_STALLED.
    """
    k, r = D.shape
    X = X.copy()
    y = np.array(y, dtype=float)
    sigma = np.array(sigma, dtype=float)
    total = np.zeros(k, dtype=int)
    c_prev = np.full(k, np.inf)
    x_last = np.full_like(X, np.nan)
    # what each row returns: its best point (least violation) so far, until
    # it converges or fails
    status = np.full(k, STATUS_ITERATION_CAP, dtype=object)
    best_c = np.full(k, np.inf)
    best_x, best_y, best_s = X.copy(), y.copy(), sigma.copy()
    best_g = np.zeros(k)
    live = np.arange(k)
    for rnd in range(ALM_MAX_ROUNDS):
        pen = _PenalizedObjective(obj, eqmap, D[live], y[live],
                                  sigma[live], live)
        x, st, inner, gn = box_newton_rows(pen, X[live], lo[live],
                                           hi[live], tol, max_iter,
                                           screen=False)
        total[live] += inner
        bad = st == STATUS_NUMERICAL_FAILURE
        at = live[bad]
        status[at] = STATUS_NUMERICAL_FAILURE
        best_x[at], best_y[at], best_s[at], best_g[at] = (
            x[bad], y[at], sigma[at], gn[bad])
        live, x, gn = live[~bad], x[~bad], gn[~bad]
        X[live] = x
        c = eqmap.values(x, D[live])
        cn = np.max(np.abs(c), axis=1, initial=0.0)
        y[live] = y[live] + sigma[live, None] * c
        done = (cn <= tol) & (gn <= tol)
        better = done | (cn < best_c[live]) | (rnd == 0)
        at = live[better]
        best_c[at], best_x[at], best_y[at], best_s[at], best_g[at] = (
            cn[better], x[better], y[at], sigma[at], gn[better])
        status[live[done]] = STATUS_CONVERGED
        # a row whose iterates stall cannot improve, nor can one whose
        # violation stopped shrinking at the penalty cap
        moved = np.max(np.abs(x - x_last[live]), axis=1, initial=0.0)
        stalled = moved <= 1e-14 * (1.0 + np.max(np.abs(x), axis=1,
                                                  initial=0.0))
        x_last[live] = x
        grow = cn > c_prev[live] / 4.0
        capped = grow & (sigma[live] >= ALM_SIGMA_CAP)
        stuck = ~done & (stalled | capped)
        status[live[stuck]] = STATUS_STALLED
        keep = ~(done | stuck)
        up = live[grow & keep]
        sigma[up] = np.minimum(sigma[up] * ALM_SIGMA_GROWTH, ALM_SIGMA_CAP)
        c_prev[live] = cn
        live = live[keep]
        if not live.size:
            break
    return best_x, status, total, best_g, best_y, best_s

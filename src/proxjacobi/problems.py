"""Test-problem generators and reference oracles.

Provides seeded coupled quadratic programs with exact KKT solutions, a
multi-period ramp-limited dispatch model (convex surrogate, so the KKT
oracle applies), a desk-scale nonconvex AC optimal power flow toy in polar
coordinates, and the block-separable objective lower bound (closed form,
one linear solve or the active-set QP per block).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .model import (BlockSpec, ConstraintSet, PolarBalance, Problem,
                    Quadratic, triplets_to_csr)
from .subsolver import solve_box_qp

KKT_RESIDUAL_TOL = 1e-10


@dataclass
class NetworkData:
    """Admittance-based description of a small power network.

    ``y_re``/``y_im`` are the real and imaginary parts of the bus admittance
    matrix (shunt-adjusted diagonal included); loads are per period and per
    bus with shape (T, nbus).
    """

    nbus: int
    y_re: sp.csr_matrix
    y_im: sp.csr_matrix
    gen_bus: list
    pd: np.ndarray
    qd: np.ndarray
    pmax: np.ndarray
    ramp: np.ndarray
    delta_t: float = 1.0

    def __post_init__(self):
        self.y_re = sp.csr_matrix(self.y_re, dtype=float)
        self.y_im = sp.csr_matrix(self.y_im, dtype=float)
        self.pd = np.asarray(self.pd, dtype=float)
        self.qd = np.asarray(self.qd, dtype=float)
        self.pmax = np.asarray(self.pmax, dtype=float)
        self.ramp = np.asarray(self.ramp, dtype=float)

    @property
    def ngen(self):
        return len(self.gen_bus)

    @property
    def nperiods(self):
        return self.pd.shape[0]

    def neighbors(self, i):
        """Neighbor buses of ``i`` with the matching off-diagonal entries."""
        nbrs, yre, yim = [], [], []
        seen = set()
        for mat in (self.y_re, self.y_im):
            row = mat.getrow(i)
            for j in row.indices:
                if j != i and j not in seen:
                    seen.add(j)
                    nbrs.append(int(j))
        nbrs.sort()
        for j in nbrs:
            yre.append(float(self.y_re[i, j]))
            yim.append(float(self.y_im[i, j]))
        return nbrs, yre, yim


@dataclass
class OracleSolution:
    """Reference solution with KKT-certified residuals."""

    x_star: list
    lambda_star: np.ndarray
    objective: float
    provenance: str


def _dispatch_gen_data(generators):
    idx = np.arange(generators, dtype=float)
    pmax = 1.0 + 0.25 * idx
    cost_a = 1.0 + 0.3 * idx
    cost_b = 0.1 * idx
    return pmax, cost_a, cost_b


def default_load_profile(T, base=0.5, amplitude=0.1):
    t = np.arange(T, dtype=float)
    return base + amplitude * np.sin(2.0 * np.pi * t / max(T, 1))


def gen_multiperiod_dispatch(T, generators, ramp_frac, profile=None):
    """Ramp-limited multi-period dispatch as a convex coupled QP.

    Block t holds (p_g, s_g); the coupling rows encode
    ``p[t+1] - p[t] + s[t+1] = r dt`` with ``s in [0, 2 r dt]`` and the
    per-period demand balance is an affine equality inside the block, so the
    KKT oracle applies.
    """
    if T < 2:
        raise ValueError("dispatch generator needs T >= 2")
    if generators < 1:
        raise ValueError("need at least one generator")
    if not 0 < ramp_frac <= 1:
        raise ValueError("ramp fraction must lie in (0, 1]")
    G = generators
    pmax, cost_a, cost_b = _dispatch_gen_data(G)
    rdt = ramp_frac * pmax
    if profile is None:
        # swing slow enough that the ramping budget stays strictly interior
        profile = default_load_profile(T, amplitude=0.3 * ramp_frac)
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (T,):
        raise ValueError(f"profile length {profile.shape} != T={T}")
    total_cap = float(np.sum(pmax))
    n = 2 * G                       # (p_g, s_g)
    m = G * (T - 1)
    blocks = []
    for t in range(T):
        Q = sp.diags(np.concatenate([2.0 * cost_a, np.zeros(G)]), format="csr")
        c = np.concatenate([cost_b, np.zeros(G)])
        lower = np.concatenate([np.zeros(G), np.zeros(G)])
        upper = np.concatenate([pmax, 2.0 * rdt])
        if t == 0:
            upper[G:] = 0.0         # s unused in the first period
        # demand balance: sum_i p_i = demand_t
        cvec = np.concatenate([np.ones(G), np.zeros(G)])
        demand = profile[t] * total_cap
        balance = Quadratic(sp.csr_matrix((n, n)), cvec, -demand)
        trip = []
        for i in range(G):
            if t < T - 1:
                trip.append([t * G + i, i, -1.0])       # -p[t]
            if t > 0:
                trip.append([(t - 1) * G + i, i, 1.0])  # +p[t+1]
                trip.append([(t - 1) * G + i, G + i, 1.0])  # +s[t+1]
        A = triplets_to_csr(trip, (m, n))
        blocks.append(BlockSpec(
            n=n, objective=Quadratic(Q, c, 0.0),
            set=ConstraintSet(lower, upper, [balance]), coupling=A))
    b = np.tile(rdt, T - 1)
    return Problem(m=m, b=b, blocks=blocks)


def toy_network(nbus=2, T=3, load_base=0.45, load_amplitude=0.1, ramp=0.1):
    """A small radial network with one generator at bus 0.

    The load-profile amplitude is capped so consecutive-period demand steps
    stay inside the ramping budget; otherwise the multi-period problem has
    no feasible point.
    """
    if nbus < 1:
        raise ValueError("need at least one bus")
    if T > 1:
        max_step = 2.0 * np.sin(np.pi / T)
        load_amplitude = min(load_amplitude, 0.4 * ramp / max_step)
    # chain of identical lines with series impedance 0.01 + 0.1j and small
    # shunt charging
    r_line, x_line, b_sh = 0.01, 0.1, 0.02
    y_series = 1.0 / complex(r_line, x_line)
    Yre = np.zeros((nbus, nbus))
    Yim = np.zeros((nbus, nbus))
    for i in range(nbus - 1):
        j = i + 1
        Yre[i, j] = Yre[j, i] = -y_series.real
        Yim[i, j] = Yim[j, i] = -y_series.imag
        for k in (i, j):
            Yre[k, k] += y_series.real
            Yim[k, k] += y_series.imag + b_sh / 2.0
    profile = default_load_profile(T, base=load_base, amplitude=load_amplitude)
    pd = np.zeros((T, nbus))
    qd = np.zeros((T, nbus))
    if nbus > 1:
        pd[:, 1] = profile
        qd[:, 1] = 0.3 * profile
    else:
        pd[:, 0] = profile
        qd[:, 0] = 0.3 * profile
    return NetworkData(
        nbus=nbus,
        y_re=sp.csr_matrix(Yre),
        y_im=sp.csr_matrix(Yim),
        gen_bus=[0],
        pd=pd, qd=qd,
        pmax=np.array([2.0]),
        ramp=np.array([ramp]),
        delta_t=1.0,
    )


def twin_generator_network(T=3, load=0.6, ramp=0.5, pmax=4.0):
    """A 2-bus network with one generator at each bus and flat loads.

    With both generators free to trade generation across the line, the
    dispatch split is an interior degree of freedom, which makes the
    proximal weight's stabilizing role visible: small tau_x leaves the
    parallel block updates underdamped.
    """
    r_line, x_line, b_sh = 0.01, 0.1, 0.02
    y = 1.0 / complex(r_line, x_line)
    Yre = np.zeros((2, 2))
    Yim = np.zeros((2, 2))
    Yre[0, 1] = Yre[1, 0] = -y.real
    Yim[0, 1] = Yim[1, 0] = -y.imag
    for k in (0, 1):
        Yre[k, k] += y.real
        Yim[k, k] += y.imag + b_sh / 2.0
    pd = np.full((T, 2), load)
    qd = 0.3 * pd
    return NetworkData(
        nbus=2,
        y_re=sp.csr_matrix(Yre),
        y_im=sp.csr_matrix(Yim),
        gen_bus=[0, 1],
        pd=pd, qd=qd,
        pmax=np.full(2, pmax),
        ramp=np.full(2, ramp),
        delta_t=1.0,
    )


def acopf_block_layout(net):
    """Coordinate offsets of one ACOPF block: (p, q, V, theta, s)."""
    G, B = net.ngen, net.nbus
    return {
        "p": 0, "q": G, "v": 2 * G, "theta": 2 * G + B, "s": 2 * G + 2 * B,
        "n": 3 * G + 2 * B,
    }


def gen_acopf_toy(net, T, cost_a=None, cost_b=None):
    """Multi-period polar ACOPF at desk scale (nonconvex equality blocks).

    Block t holds (p_g, q_g, V, theta, s_g); power balances are builtin
    equality functions, the reference angle is pinned through equal bounds,
    and the coupling rows are the ramping equalities.  Generation cost is
    a p^2 + b p per generator; defaults give mildly heterogeneous costs.
    """
    if net.nbus > 5:
        raise ValueError("toy generator is capped at 5 buses")
    if T > 24:
        raise ValueError("toy generator is capped at 24 periods")
    if net.nperiods < T:
        raise ValueError(f"network carries {net.nperiods} load periods < T={T}")
    G, B = net.ngen, net.nbus
    lay = acopf_block_layout(net)
    n = lay["n"]
    m = G * (T - 1)
    rdt = net.ramp * net.delta_t
    cost_a = (1.0 + 0.3 * np.arange(G) if cost_a is None
              else np.broadcast_to(np.asarray(cost_a, float), (G,)).copy())
    cost_b = (0.1 * np.arange(G) if cost_b is None
              else np.broadcast_to(np.asarray(cost_b, float), (G,)).copy())
    blocks = []
    for t in range(T):
        qdiag = np.zeros(n)
        qdiag[:G] = 2.0 * cost_a
        c = np.zeros(n)
        c[:G] = cost_b
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lower[:G], upper[:G] = 0.0, net.pmax
        lower[G:2 * G], upper[G:2 * G] = -0.5 * net.pmax, 0.5 * net.pmax
        lower[lay["v"]:lay["v"] + B] = 0.9
        upper[lay["v"]:lay["v"] + B] = 1.1
        lower[lay["theta"]:lay["theta"] + B] = -0.5
        upper[lay["theta"]:lay["theta"] + B] = 0.5
        lower[lay["theta"]] = upper[lay["theta"]] = 0.0  # reference angle
        lower[lay["s"]:] = 0.0
        upper[lay["s"]:] = 2.0 * rdt if t > 0 else 0.0
        eqs = []
        for i in range(B):
            nbrs, yre, yim = net.neighbors(i)
            payload = {
                "bus": i, "nbus": B,
                "gen_coords": [int(g) for g in range(G) if net.gen_bus[g] == i],
                "v_offset": lay["v"], "theta_offset": lay["theta"],
                "y_diag_re": float(net.y_re[i, i]),
                "y_diag_im": float(net.y_im[i, i]),
                "neighbors": nbrs, "y_re": yre, "y_im": yim,
            }
            re_payload = dict(payload, load=float(net.pd[t, i]))
            re_payload["gen_coords"] = payload["gen_coords"]
            im_payload = dict(payload, load=float(net.qd[t, i]))
            im_payload["gen_coords"] = [g + G for g in payload["gen_coords"]]
            eqs.append(PolarBalance("acopf_re", re_payload))
            eqs.append(PolarBalance("acopf_im", im_payload))
        trip = []
        for i in range(G):
            if t < T - 1:
                trip.append([t * G + i, i, -1.0])
            if t > 0:
                trip.append([(t - 1) * G + i, i, 1.0])
                trip.append([(t - 1) * G + i, lay["s"] + i, 1.0])
        A = triplets_to_csr(trip, (m, n))
        blocks.append(BlockSpec(
            n=n,
            objective=Quadratic(sp.diags(qdiag, format="csr"), c, 0.0),
            set=ConstraintSet(lower, upper, eqs),
            coupling=A))
    b = np.tile(rdt, T - 1) if T > 1 else np.zeros(0)
    return Problem(m=m, b=b, blocks=blocks)


def gen_coupled_qp(seed, T, n_t, m):
    """Seeded random strictly convex coupled QP with its KKT oracle."""
    dims = [n_t] * T if np.isscalar(n_t) else list(n_t)
    total = sum(dims)
    if m > total:
        raise ValueError("m may not exceed the total variable count")
    rng = np.random.default_rng(seed)
    blocks_data = []
    for nt in dims:
        M = rng.standard_normal((nt, nt))
        Q = M.T @ M + np.eye(nt)
        c = rng.standard_normal(nt)
        blocks_data.append((Q, c))
    for attempt in range(100):
        A = rng.standard_normal((m, total))
        if np.linalg.matrix_rank(A) == m:
            break
    else:
        raise RuntimeError("failed to draw a full-row-rank coupling matrix")
    b = rng.standard_normal(m)
    blocks = []
    off = 0
    for nt, (Q, c) in zip(dims, blocks_data):
        blocks.append(BlockSpec(
            n=nt,
            objective=Quadratic(sp.csr_matrix(Q), c, 0.0),
            set=ConstraintSet(np.full(nt, -np.inf), np.full(nt, np.inf)),
            coupling=sp.csr_matrix(A[:, off:off + nt]),
        ))
        off += nt
    problem = Problem(m=m, b=b, blocks=blocks)
    oracle = kkt_reference_solve(problem)
    return problem, oracle


def kkt_reference_solve(problem):
    """Certified KKT solve for convex-quadratic problems with linear
    equalities and boxes.

    Assembles the block-diagonal Q and c and one constraint matrix that
    stacks the block equality rows over the coupling, and solves with the
    block solver's active-set QP: the point and multipliers satisfy the KKT
    conditions, box multiplier signs included, to 1e-10, and the point is a
    strict local minimizer.  Errors on a nonlinear equality, a singular KKT
    system, a point without that certificate or an active set that does not
    settle.
    """
    eq_rows = []
    for blk in problem.blocks:
        rows = blk.set.linear_rows
        if rows is None:
            raise ValueError("block has a nonlinear equality constraint")
        eq_rows.append(rows)
    C = np.vstack([scipy.linalg.block_diag(*[C_t for C_t, _ in eq_rows]),
                   problem.coupling.toarray()])
    d = np.concatenate([d_t for _, d_t in eq_rows] + [problem.b])
    qp = solve_box_qp(
        scipy.linalg.block_diag(*[blk.Q_dense for blk in problem.blocks]),
        np.concatenate([blk.objective.c for blk in problem.blocks]), C, d,
        np.concatenate([blk.set.lower for blk in problem.blocks]),
        np.concatenate([blk.set.upper for blk in problem.blocks]),
        rtol=KKT_RESIDUAL_TOL)
    if qp is None:
        raise ValueError("no certified KKT point (singular system, no strict "
                         "minimizer or an active set that does not settle)")
    x, mu, _ = qp
    x_star = np.split(x, np.cumsum(problem.dims)[:-1])
    objective = sum(blk.objective.value(xt)
                    for blk, xt in zip(problem.blocks, x_star))
    return OracleSolution(
        x_star=x_star, lambda_star=mu[len(d) - problem.m:],
        objective=float(objective), provenance="kkt-linear-solve")


def _box_quadratic_min_diag(qdiag, c, c0, lo, hi):
    """Coordinatewise min of 0.5 q x^2 + c x over [lo, hi]; errors if any
    coordinate is unbounded below."""
    total = c0
    for q, ci, l, u in zip(qdiag, c, lo, hi):
        phi = lambda v: 0.5 * q * v * v + ci * v
        if q > 0:
            total += phi(min(max(-ci / q, l), u))
        elif q == 0:
            if ci > 0:
                if not np.isfinite(l):
                    raise ValueError("coordinate unbounded below")
                total += phi(l)
            elif ci < 0:
                if not np.isfinite(u):
                    raise ValueError("coordinate unbounded below")
                total += phi(u)
        else:
            # concave coordinate: minimum at an endpoint, both must be finite
            if not (np.isfinite(l) and np.isfinite(u)):
                raise ValueError("coordinate unbounded below")
            total += min(phi(l), phi(u))
    return total


def _block_minimum(blk):
    """min f_t over X_t of one block; raises ValueError when it is not
    certified."""
    f, Q = blk.objective, blk.Q_dense
    lo, hi = blk.set.lower, blk.set.upper
    if not blk.set.equalities and not np.any(Q - np.diag(np.diag(Q))):
        return _box_quadratic_min_diag(np.diag(Q), f.c, f.c0, lo, hi)
    rows = blk.set.linear_rows
    if rows is None:
        raise ValueError("nonlinear equality constraint")
    evals = np.linalg.eigvalsh(Q)
    if blk.set.equalities or blk.set.has_bounds:
        if evals[0] < -1e-10:
            raise ValueError("nonconvex objective")
        qp = solve_box_qp(Q, f.c, *rows, lo, hi, rtol=KKT_RESIDUAL_TOL)
        if qp is None:
            raise ValueError("no certified minimizer")
        return f.value(qp[0])
    if evals[0] <= 1e-12:
        raise ValueError("nonconvex or singular non-diagonal objective")
    x = np.linalg.solve(Q, -f.c)
    return 0.5 * x @ (Q @ x) + f.c @ x + f.c0


def separable_lower_bound(problem):
    """sum_t min_{x_t in X_t} f_t(x_t), certified per block.

    Diagonal quadratics over boxes take the coordinatewise closed form
    (concave coordinates included); unconstrained positive definite
    quadratics one linear solve; convex quadratics with linear equalities
    or a box the active-set QP, certified to 1e-10.  Anything else raises:
    the bound would require global optimization.
    """
    total = 0.0
    for t, blk in enumerate(problem.blocks):
        try:
            total += _block_minimum(blk)
        except ValueError as exc:
            raise ValueError(
                f"block {t}: lower bound unavailable ({exc})") from exc
    return float(total)

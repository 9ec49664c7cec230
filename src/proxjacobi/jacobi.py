"""The distributed proximal Jacobi iteration and its run loop (``run``).

Each iteration solves the T block subproblems independently (no block sees
another block's current-iteration value), joins, then applies the
closed-form z and lambda updates (``advance``) and emits one trace record,
with the penalty residuals (``iterate``).  Every
subproblem is an exact quadratic about the previous iterate, whose
gradients come from one stacked product.  The blocks are partitioned into
quadratic groups (``Problem.quadratic_groups``), and each group is solved
by one stacked call of its kind's solver: the unconstrained blocks of one
size by one batched exact step, the box-only blocks of one size by
projected Newton, the blocks of one size and the same linear equality rows
by one batched active-set QP, and the blocks that share one nonlinear
equality map up to its right-hand side (the periods of one ACOPF network)
by one stacked inner ALM over projected Newton.  Each ALM row starts from
the multipliers and penalty its last converged solve ended with, which the
iterate carries (``IterateState.alm``).  The groups are spread over the
worker pool when there is one.  Results are identical at any worker count:
group solves are pure, each reads and returns only its own ALM stacks, and
all reductions run in block order.
"""

import contextlib
import csv
import io
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import auglag
from .algebra import couple_apply
from .auglag import BlockObjective
from .model import IterateState
from .subsolver import (alm_cold_start, box_newton_rows, equality_alm_rows,
                        project_box, solve_box_qp, solve_quadratic_exact,
                        STATUS_CONVERGED, STATUS_ITERATION_CAP,
                        STATUS_NUMERICAL_FAILURE)

log = logging.getLogger("proxjacobi")

TRACE_COLUMNS = [
    "k", "phi", "dphi", "coupling_inf", "p_inf", "d_inf", "pi", "delta_max",
    "rho", "theta", "tau_x", "tau_z", "t_xupd_ms", "t_zupd_ms",
    "inner_iters_total", "t_metrics_ms",
]
# Traces written before the metrics timing column; ``read_trace_csv`` reads
# them with t_metrics_ms = 0.
OLD_TRACE_COLUMNS = TRACE_COLUMNS[:-1]

# Why a run ended: ``run`` returns all but the block failure, which raises.
TERMINATION_FEASIBLE = "feasible-stop"
TERMINATION_UNCONVERGED = "unconverged-blocks"
TERMINATION_ITERATION_CAP = "iteration-cap"
TERMINATION_BLOCK_FAILURE = "block-failure"
TERMINATION_NON_FINITE = "non-finite"


class BlockSolveError(RuntimeError):
    """A block subproblem solve ended in numerical failure: ``t`` is the
    block, ``status`` the status its solver returned.

    ``run`` attaches ``state``, the iterate the failed sweep started from,
    and ``trace``, the records of the finished iterations.
    """

    def __init__(self, t, status):
        self.t = t
        self.status = status
        super().__init__(f"block {t} solver failed: {status}")


@dataclass
class RunConfig:
    """Iteration budget, parallelism, timings and trace sink of a run.

    ``max_iters`` is the cap of ``run``; ``tuner.run_adaptive`` caps its
    run at ``TunerConfig.max_outer`` instead."""

    max_iters: int = 1000
    workers: int = 0            # 0 = serial
    record_timings: bool = True
    trace_sink: object = None   # callable invoked with each TraceRecord


@dataclass
class TraceRecord:
    """Per-iteration observability record."""

    k: int
    phi: float
    dphi: float
    coupling_inf: float
    p_inf: float
    d_inf: float
    pi: float
    delta_max: float
    rho: float
    theta: float
    tau_x: float
    tau_z: float
    t_xupd_ms: float
    t_zupd_ms: float
    inner_iters_total: int
    t_metrics_ms: float = 0.0
    inner_iters: list = field(default_factory=list)
    delta: list = field(default_factory=list)   # per block; not in the CSV
    unconverged: int = 0    # blocks whose solve did not converge; not in CSV

    def row(self):
        return [getattr(self, name) for name in TRACE_COLUMNS]

    @property
    def finite(self):
        """False once phi or the coupling residual is not finite: ``run``
        stops right after such a record."""
        return bool(np.isfinite(self.phi) and np.isfinite(self.coupling_inf))


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def trace_csv_sink(fileobj):
    """Write the trace CSV header now and return a ``trace_sink`` that
    writes and flushes one row per record, so that a run which dies still
    leaves the rows of its finished iterations."""
    writer = csv.writer(fileobj)
    writer.writerow(TRACE_COLUMNS)

    def sink(rec):
        writer.writerow([_fmt(v) for v in rec.row()])
        fileobj.flush()
    return sink


def write_trace_csv(records, fileobj):
    """Write trace records as CSV with 17-significant-digit floats."""
    sink = trace_csv_sink(fileobj)
    for rec in records:
        sink(rec)


def trace_csv_text(records):
    buf = io.StringIO()
    write_trace_csv(records, buf)
    return buf.getvalue()


def read_trace_csv(fileobj):
    """Read trace records written by :func:`write_trace_csv`, or by its
    versions before the ``t_metrics_ms`` column (``OLD_TRACE_COLUMNS``)."""
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header not in (TRACE_COLUMNS, OLD_TRACE_COLUMNS):
        raise ValueError("trace header does not match the expected columns")
    types = {f.name: f.type for f in fields(TraceRecord)}
    records = []
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"malformed trace row: {row!r}")
        records.append(TraceRecord(**{
            name: types[name](value) for name, value in zip(header, row)}))
    return records


def init_state(problem, x0, z0, lam0, params):
    """State at k = 0 with ``dz0 = -(lam0 + theta z0)/tau_z`` and zero
    x-differences; x0, one flat vector of length N, is projected onto the
    boxes on entry.  ``alm`` is empty: every ``alm`` group's ALM starts
    cold in the first sweep.  ``Ax`` and ``Qx`` are the products at x, and
    ``Kdx`` is zero, as x - x_prev is."""
    N = problem.offsets[-1]
    try:
        x0 = np.asarray(x0, dtype=float)
    except ValueError:  # a ragged per-block list
        x0 = None
    if x0 is None or x0.shape != (N,):
        raise ValueError(f"x0 must be one flat vector of shape ({N},)")
    x = project_box(x0, problem.lower, problem.upper)
    z0 = np.asarray(z0, dtype=float).copy()
    lam0 = np.asarray(lam0, dtype=float).copy()
    if z0.shape != (problem.m,) or lam0.shape != (problem.m,):
        raise ValueError("z0 and lambda0 must have length m")
    if params.tau_z > 0:
        dz0 = -(lam0 + params.theta * z0) / params.tau_z
    else:
        dz0 = np.zeros(problem.m)
    return IterateState(
        x=x, z=z0, lam=lam0,
        x_prev=x.copy(), z_prev=z0.copy(), lam_prev=lam0.copy(),
        dz=dz0, Ax=couple_apply(problem, x), Qx=problem.objective_products(x),
        Kdx=np.zeros(len(problem.coupling_rows.row)), k=0)


def initial_lyapunov(problem, state, params):
    """Phi0 = L(x0, z0, lam0) + (tau_z/4)||dz0||^2."""
    val = auglag.aug_lagrangian(problem, state, params)
    return val + 0.25 * params.tau_z * float(state.dz @ state.dz)


@contextlib.contextmanager
def worker_pool(workers):
    """The thread pool of a run with ``workers`` workers (None when 0)."""
    if not workers:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def _map(pool, fn, items):
    return list(pool.map(fn, items) if pool else map(fn, items))


def solve_group(grp, vec, g, w, start=None):
    """Solve the subproblems of the quadratic group ``grp`` from the anchors
    ``grp.take(vec)``, with their gradients ``grp.take(g)`` there and the
    Hessians ``grp.hessian(w)``, by one stacked call of the group kind's
    solver.  The rows of an ``exact`` group whose step fails go to
    projected Newton, and those of a ``qp`` group without a certified
    minimizer to the inner ALM, in one stacked call each; the solver's
    arrays are written into the rows it was given.  The ALM of an ``alm``
    group starts from ``start``, the stacks ``(y, sigma)`` (cold when
    None); the ALM rows of a ``qp`` group always start cold.

    Returns the new points (k, n), the inner iteration counts (k,) (1 for
    an exact step, the passes of a QP), the statuses (k,) (converged for
    the rows an exact step or the QP solved), and, for an ``alm`` group,
    the stacks its next sweep starts from (None for the other kinds): the
    multipliers and penalty of each converged row, a cold start for the
    others.
    """
    X, G, H = grp.take(vec), grp.take(g), grp.hessian(w)
    lo, hi = grp.lower, grp.upper
    status = np.full(len(X), STATUS_CONVERGED, dtype=object)
    if grp.kind == "exact":
        _, H_inv, ok = grp.hessian_factor(w)
        dx, solved = solve_quadratic_exact(H, H_inv, G)
        x, inner = X + dx, np.ones(len(X), dtype=int)
        rows = np.flatnonzero(~(solved & ok))
    elif grp.kind == "qp":
        # the model G'(x - X) + (x - X)'H(x - X)/2 has the gradient G - HX
        # at x = 0
        x, _, inner = solve_box_qp(H, G + (H @ -X[..., None])[..., 0],
                                   grp.C, grp.d, lo, hi)
        rows = np.flatnonzero(inner == 0)
    else:
        x, inner = X.copy(), np.zeros(len(X), dtype=int)
        rows = np.arange(len(X))
    if not rows.size:
        return x, inner, status, None
    obj = BlockObjective(H[rows], G[rows], X[rows])
    if grp.kind in ("exact", "box"):
        x[rows], status[rows], inner[rows], _ = box_newton_rows(
            obj, X[rows], lo[rows], hi[rows])
        return x, inner, status, None
    cold = alm_cold_start(len(rows), grp.d.shape[1])
    y, sigma = start if grp.kind == "alm" and start else cold
    x[rows], status[rows], inner[rows], _, y, sigma = equality_alm_rows(
        obj, grp.equality_map, grp.d[rows], X[rows], lo[rows], hi[rows], y,
        sigma)
    if grp.kind != "alm":
        return x, inner, status, None
    # every row of an alm group is in ``rows``
    ok = status == STATUS_CONVERGED
    return x, inner, status, (np.where(ok[:, None], y, cold[0]),
                              np.where(ok, sigma, cold[1]))


def x_update_all(problem, state, params, pool=None):
    """Jacobi sweep: solve all T block subproblems from the k-1 iterate.

    Every subproblem gradient at the anchor x_t is one stacked product
    (``auglag.subproblem_gradients``, from the products ``state.Ax`` and
    ``state.Qx``).  Each quadratic group is solved from it by
    ``solve_group``, the groups spread over the ``pool`` when there is
    one; each ``alm`` group starts from its stacks in
    ``state.alm`` (cold while that is empty, before the first sweep).  The
    groups' statuses fill one array by block, whose blocks that did not
    converge are walked in block order: the first numerical failure raises
    :class:`BlockSolveError`, and a solve that stopped at its iteration cap,
    or stalled, is logged with the solver its group kind routes to.
    Returns (the new flat x, per-block inner iteration counts, the new
    ``state.alm``, the number of blocks whose solve did not converge).
    """
    vec = state.x
    g = auglag.subproblem_gradients(problem, state, params.rho)
    w = params.rho + params.tau_x
    groups = problem.quadratic_groups
    starts = iter(state.alm)
    jobs = [(grp, next(starts, None) if grp.kind == "alm" else None)
            for grp in groups]
    x_new = np.empty_like(vec)
    inner = np.empty(problem.T, dtype=int)
    status = np.empty(problem.T, dtype=object)
    solver = np.empty(problem.T, dtype=object)
    alm = []
    for grp, (x, it, st, nxt) in zip(groups, _map(
            pool, lambda job: solve_group(job[0], vec, g, w, job[1]), jobs)):
        x_new[grp.cols] = x.ravel()
        inner[grp.blocks] = it
        status[grp.blocks] = st
        solver[grp.blocks] = ("box-newton" if grp.kind in ("exact", "box")
                              else "equality-alm")
        if grp.kind == "alm":
            alm.append(nxt)
    for t in np.flatnonzero(status != STATUS_CONVERGED):
        if status[t] == STATUS_NUMERICAL_FAILURE:
            raise BlockSolveError(int(t), status[t])
        how = ("stopped at its iteration cap"
               if status[t] == STATUS_ITERATION_CAP else "stalled")
        log.warning("iteration %d: block %d's %s solve %s after %d "
                    "inner iterations; its last point is taken",
                    state.k + 1, t, solver[t], how, inner[t])
    unconverged = int(np.count_nonzero(status != STATUS_CONVERGED))
    return x_new, inner.tolist(), alm, unconverged


def z_update(problem, Ax, state, params):
    """z = (tau_z z_prev - rho(Ax - b) - lam_prev) / (tau_z + rho + theta)."""
    denom = params.tau_z + params.rho + params.theta
    viol = Ax - problem.b
    return (params.tau_z * state.z - params.rho * viol - state.lam) / denom


def lambda_update(problem, Ax, z_k, state, params):
    """lam = lam_prev + rho (Ax + z - b)."""
    return state.lam + params.rho * (Ax + z_k - problem.b)


@dataclass
class Step:
    """What ``advance`` returns: the new Lyapunov value, the per-block inner
    iteration counts, the number of blocks whose solve did not converge,
    and the seconds of its three phases (the sweep; the z and lambda
    updates with Ax; the products Qx and K(x - x_prev) with the Lyapunov
    value)."""

    phi: float
    inner_iters: list
    unconverged: int
    t_xupd: float
    t_zupd: float
    t_metrics: float


def advance(problem, state, params, pool=None):
    """Move ``state`` in place to the next iterate: the sweep, the z and
    lambda updates, the state's products at the new x, Ax, Qx and
    Kdx = K(x - x_prev), and the Lyapunov value.
    ``pool`` is the run's worker pool (``worker_pool``; serial without).
    Returns the :class:`Step`; it computes no residual."""
    t0 = time.perf_counter()
    x_k, inner_iters, alm, unconverged = x_update_all(problem, state, params,
                                                      pool)
    t1 = time.perf_counter()
    Ax_k = couple_apply(problem, x_k)
    z_k = z_update(problem, Ax_k, state, params)
    lam_k = lambda_update(problem, Ax_k, z_k, state, params)
    t2 = time.perf_counter()

    state.x_prev = state.x
    state.z_prev = state.z
    state.lam_prev = state.lam
    state.x = x_k
    state.alm = alm
    state.z = z_k
    state.lam = lam_k
    state.dz = z_k - state.z_prev
    state.k += 1
    state.Ax = Ax_k
    state.Qx = problem.objective_products(x_k)
    state.Kdx = problem.block_products(x_k - state.x_prev)
    phi = auglag.lyapunov(problem, state, params)
    return Step(phi=phi, inner_iters=inner_iters, unconverged=unconverged,
                t_xupd=t1 - t0, t_zupd=t2 - t1,
                t_metrics=time.perf_counter() - t2)


def iterate(problem, state, params, config, phi_prev=None, pool=None):
    """One full iteration: ``advance``, then the penalty residuals at the
    new iterate, the trace record and the trace sink.

    ``phi_prev`` is the previous Lyapunov value (computed here if omitted);
    ``pool`` is the run's worker pool (``worker_pool``; serial without).
    Mutates ``state`` in place and returns the trace record.  The residuals
    read the products ``advance`` made at the new x; ``t_metrics_ms``
    covers those products, the Lyapunov value and the residuals.
    """
    if phi_prev is None:
        phi_prev = (initial_lyapunov(problem, state, params) if state.k == 0
                    else auglag.lyapunov(problem, state, params))
    step = advance(problem, state, params, pool)
    t0 = time.perf_counter()
    snap = auglag.penalty_residuals(problem, state, params)
    t_metrics = step.t_metrics + time.perf_counter() - t0
    ms = 1e3 if config.record_timings else 0.0
    rec = TraceRecord(
        k=state.k, phi=step.phi, dphi=step.phi - phi_prev,
        coupling_inf=snap.infnorm_coupling,
        p_inf=snap.infnorm_p, d_inf=snap.infnorm_d,
        pi=snap.pi, delta_max=snap.delta_max,
        rho=params.rho, theta=params.theta,
        tau_x=params.tau_x, tau_z=params.tau_z,
        t_xupd_ms=step.t_xupd * ms,
        t_zupd_ms=step.t_zupd * ms,
        inner_iters_total=int(sum(step.inner_iters)),
        t_metrics_ms=t_metrics * ms,
        inner_iters=step.inner_iters,
        delta=snap.delta,
        unconverged=step.unconverged,
    )
    if config.trace_sink is not None:
        config.trace_sink(rec)
    return rec


def run(problem, params, init, config, rule=None):
    """Run the iteration from a copy of ``init`` under ``params``, for up
    to ``config.max_iters`` iterations.

    After each record, ``rule(rec)`` returns ``(params, stop)``: the
    parameters of the next iteration, and whether the run stops there
    (without ``rule`` the parameters stay fixed and it never stops).  The
    run stops right after the first record that is not ``finite``, before
    ``rule`` sees it.  Returns ``(final state, trace list, reason)``, the
    reason one of ``TERMINATION_FEASIBLE`` (the rule stopped after a sweep
    in which every block solve converged), ``TERMINATION_UNCONVERGED`` (the
    rule stopped after a sweep in which some did not),
    ``TERMINATION_NON_FINITE`` and ``TERMINATION_ITERATION_CAP``; a block
    failure raises :class:`BlockSolveError` with the state and the partial
    trace attached (``TERMINATION_BLOCK_FAILURE``).
    """
    state = init.copy()
    trace = []
    phi_prev = initial_lyapunov(problem, state, params) if state.k == 0 else None
    with worker_pool(config.workers) as pool:
        for _ in range(config.max_iters):
            try:
                rec = iterate(problem, state, params, config,
                              phi_prev=phi_prev, pool=pool)
            except BlockSolveError as exc:
                exc.state, exc.trace = state, trace
                raise
            trace.append(rec)
            if not rec.finite:
                return state, trace, TERMINATION_NON_FINITE
            phi_prev = rec.phi
            if rule is not None:
                params, stop = rule(rec)
                if stop:
                    return state, trace, (TERMINATION_UNCONVERGED
                                          if rec.unconverged
                                          else TERMINATION_FEASIBLE)
    return state, trace, TERMINATION_ITERATION_CAP

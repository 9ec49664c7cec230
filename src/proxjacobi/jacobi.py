"""The fixed-parameter distributed proximal Jacobi iteration.

Each iteration forks T independent block solves (no block sees another
block's current-iteration value), joins, then applies the closed-form z and
lambda updates and emits one trace record.  Results are identical at any
worker count: block solves are pure and all reductions run in block order.
"""

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import auglag
from .algebra import couple_apply
from .auglag import BlockObjective, penalty_residuals
from .model import IterateState
from .subsolver import (BlockSolveRequest, dispatch, project_box,
                        STATUS_NUMERICAL_FAILURE)

TRACE_COLUMNS = [
    "k", "phi", "dphi", "coupling_inf", "p_inf", "d_inf", "pi", "delta_max",
    "rho", "theta", "tau_x", "tau_z", "t_xupd_ms", "t_zupd_ms",
    "inner_iters_total",
]


class BlockSolveError(RuntimeError):
    """A block subproblem solver reported numerical failure."""

    def __init__(self, t, result):
        self.t = t
        self.result = result
        super().__init__(f"block {t} solver failed: {result.status}")


@dataclass
class RunConfig:
    """Iteration budget, parallelism and inner-solve tolerances for a run."""

    max_iters: int = 1000
    workers: int = 0            # 0 = serial
    inner_tol: float = 1e-8
    inner_max_iter: int = 500
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
    inner_iters: list = field(default_factory=list)

    def row(self):
        return [getattr(self, name) for name in TRACE_COLUMNS]


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
    """Read trace records written by :func:`write_trace_csv`."""
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header != TRACE_COLUMNS:
        raise ValueError("trace header does not match the expected columns")
    records = []
    for row in reader:
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"malformed trace row: {row!r}")
        vals = dict(zip(TRACE_COLUMNS, row))
        records.append(TraceRecord(
            k=int(vals["k"]),
            phi=float(vals["phi"]), dphi=float(vals["dphi"]),
            coupling_inf=float(vals["coupling_inf"]),
            p_inf=float(vals["p_inf"]), d_inf=float(vals["d_inf"]),
            pi=float(vals["pi"]), delta_max=float(vals["delta_max"]),
            rho=float(vals["rho"]), theta=float(vals["theta"]),
            tau_x=float(vals["tau_x"]), tau_z=float(vals["tau_z"]),
            t_xupd_ms=float(vals["t_xupd_ms"]),
            t_zupd_ms=float(vals["t_zupd_ms"]),
            inner_iters_total=int(vals["inner_iters_total"]),
        ))
    return records


def init_state(problem, x0, z0, lam0, params):
    """State at k = 0 with ``dz0 = -(lam0 + theta z0)/tau_z`` and zero
    x-differences; x0 is projected onto the boxes on entry."""
    if len(x0) != problem.T:
        raise ValueError(f"x0 has {len(x0)} blocks, expected {problem.T}")
    x = []
    for blk, xt in zip(problem.blocks, x0):
        xt = np.asarray(xt, dtype=float)
        if xt.shape != (blk.n,):
            raise ValueError(
                f"x0 block of shape {xt.shape} does not match n={blk.n}")
        x.append(project_box(xt, blk.set.lower, blk.set.upper))
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
        x_prev=[xt.copy() for xt in x], z_prev=z0.copy(), lam_prev=lam0.copy(),
        dz=dz0, k=0)


def initial_lyapunov(problem, state, params):
    """Phi0 = L(x0, z0, lam0) + (tau_z/4)||dz0||^2."""
    val = auglag.aug_lagrangian(problem, state.x, state.z, state.lam, params)
    return val + 0.25 * params.tau_z * float(state.dz @ state.dz)


def _solve_block(problem, state, params, config, Ax, t):
    obj = BlockObjective(problem, t, Ax, state.z, state.lam, params,
                         state.x[t])
    req = BlockSolveRequest(
        t=t, objective=obj, set=problem.blocks[t].set,
        warm_start=state.x[t], tol=config.inner_tol,
        max_iter=config.inner_max_iter)
    return dispatch(req)


def x_update_all(problem, state, params, config):
    """Jacobi sweep: solve all T block subproblems from the k-1 iterate.

    The coupling sum of the k-1 iterate is formed once and shared by every
    block.  Returns (new block vectors, per-block inner iteration counts).
    Any numerical failure aborts with the failing block index.
    """
    Ax = couple_apply(problem, state.x)
    indices = range(problem.T)
    if config.workers and problem.T > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(
                lambda t: _solve_block(problem, state, params, config, Ax, t),
                indices))
    else:
        results = [_solve_block(problem, state, params, config, Ax, t)
                   for t in indices]
    for t, res in enumerate(results):
        if res.status == STATUS_NUMERICAL_FAILURE:
            raise BlockSolveError(t, res)
    return ([res.x for res in results],
            [res.inner_iterations for res in results])


def z_update(problem, Ax, state, params):
    """z = (tau_z z_prev - rho(Ax - b) - lam_prev) / (tau_z + rho + theta)."""
    denom = params.tau_z + params.rho + params.theta
    viol = Ax - problem.b
    return (params.tau_z * state.z - params.rho * viol - state.lam) / denom


def lambda_update(problem, Ax, z_k, state, params):
    """lam = lam_prev + rho (Ax + z - b)."""
    return state.lam + params.rho * (Ax + z_k - problem.b)


def iterate(problem, state, params, config, phi_prev=None):
    """One full iteration: x, z, lambda updates, state advance, trace record.

    ``phi_prev`` is the previous Lyapunov value (computed here if omitted).
    Mutates ``state`` in place and returns the trace record.
    """
    if phi_prev is None:
        if state.k == 0:
            phi_prev = initial_lyapunov(problem, state, params)
        else:
            phi_prev = auglag.lyapunov(problem, state.x, state.z, state.lam,
                                       state.x_prev, state.z_prev, params)
    t0 = time.perf_counter()
    x_k, inner_iters = x_update_all(problem, state, params, config)
    t1 = time.perf_counter()
    Ax_k = couple_apply(problem, x_k)
    z_k = z_update(problem, Ax_k, state, params)
    lam_k = lambda_update(problem, Ax_k, z_k, state, params)
    t2 = time.perf_counter()

    state.x_prev = state.x
    state.z_prev = state.z
    state.lam_prev = state.lam
    state.x = x_k
    state.z = z_k
    state.lam = lam_k
    state.dz = z_k - state.z_prev
    state.k += 1

    phi = auglag.lyapunov(problem, state.x, state.z, state.lam,
                          state.x_prev, state.z_prev, params)
    snap = penalty_residuals(problem, state, params, feas_tol=np.inf)
    rec = TraceRecord(
        k=state.k, phi=phi, dphi=phi - phi_prev,
        coupling_inf=snap.infnorm_coupling,
        p_inf=snap.infnorm_p, d_inf=snap.infnorm_d,
        pi=snap.pi, delta_max=snap.delta_max,
        rho=params.rho, theta=params.theta,
        tau_x=params.tau_x, tau_z=params.tau_z,
        t_xupd_ms=(t1 - t0) * 1e3 if config.record_timings else 0.0,
        t_zupd_ms=(t2 - t1) * 1e3 if config.record_timings else 0.0,
        inner_iters_total=int(sum(inner_iters)),
        inner_iters=inner_iters,
    )
    if config.trace_sink is not None:
        config.trace_sink(rec)
    return rec


def run_fixed(problem, params, init, config, stop=None):
    """Run the fixed-parameter iteration for up to ``config.max_iters``
    iterations, or until the caller's stop predicate fires.

    Returns ``(final state, trace list)``; a partial trace is attached to
    the raised error on block failure.
    """
    state = init.copy()
    trace = []
    phi_prev = initial_lyapunov(problem, state, params) if state.k == 0 else None
    for _ in range(config.max_iters):
        try:
            rec = iterate(problem, state, params, config, phi_prev=phi_prev)
        except BlockSolveError as exc:
            exc.trace = trace
            raise
        trace.append(rec)
        phi_prev = rec.phi
        if stop is not None and stop(state, rec):
            break
    return state, trace

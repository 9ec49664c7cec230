"""Command-line entry points: solve, validate, generate, trace-check.

Batch-oriented; every run is fully determined by its inputs and flags.
Exit codes are stable contracts: 0 success/feasible-stop, 1 I/O or schema
error, 2 iteration cap (or a failed trace-check property), 3 numerical
failure.
"""

import argparse
import contextlib
import json
import logging
import os
import sys

import numpy as np

from . import auglag, jacobi, model, problems, tuner
from .algebra import couple_apply, spectral_norm
from .jacobi import BlockSolveError, RunConfig
from .model import Params, SchemaError

EXIT_OK = 0
EXIT_IO = 1
EXIT_ITERATION_CAP = 2
EXIT_NUMERICAL = 3

IDENTITY_RTOL = 1e-10
MONOTONE_RTOL = 1e-8
REPLAY_RTOL = 1e-9

log = logging.getLogger("proxjacobi")


def _setup_logging():
    level_name = os.environ.get("PROXJACOBI_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown PROXJACOBI_LOG level {level_name!r}; "
              "using 'error'", file=sys.stderr)
        level_name = "error"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def default_start(problem):
    """Box-midpoint start: (lower+upper)/2 where finite, else the finite
    bound, else zero."""
    x0 = []
    for blk in problem.blocks:
        lo, hi = blk.set.lower, blk.set.upper
        mid = np.zeros(blk.n)
        both = np.isfinite(lo) & np.isfinite(hi)
        mid[both] = 0.5 * (lo[both] + hi[both])
        only_lo = np.isfinite(lo) & ~np.isfinite(hi)
        mid[only_lo] = lo[only_lo]
        only_hi = ~np.isfinite(lo) & np.isfinite(hi)
        mid[only_hi] = hi[only_hi]
        x0.append(mid)
    return x0, np.zeros(problem.m), np.zeros(problem.m)


def _load_problem_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(path, f"cannot read: {exc.strerror}") from exc
    return model.load_problem(text)


def _solution_doc(problem, state, reason, trace):
    objective = float(sum(problem.objective_values(problem.stack(state.x))))
    last = trace[-1] if trace else None
    residuals = {}
    if last is not None:
        residuals = {
            "coupling_inf": last.coupling_inf,
            "pi": last.pi,
            "p_inf": last.p_inf,
            "d_inf": last.d_inf,
            "delta_max": last.delta_max,
        }
    return {
        "x": [[float(v) for v in xt] for xt in state.x],
        "z": [float(v) for v in state.z],
        "lam": [float(v) for v in state.lam],
        "objective": objective,
        "iterations": state.k,
        "termination": reason,
        "residuals": residuals,
    }


def _tuner_overrides(args):
    return {"eps": args.eps, "max_outer": args.max_iters}


def cmd_solve(args):
    try:
        problem = _load_problem_file(args.problem)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = model.validate_problem(problem)
    if not report.ok:
        for msg in report.errors:
            print(f"error: {msg}", file=sys.stderr)
        return EXIT_IO
    for msg in report.warnings:
        log.info("validate: %s", msg)

    config_text = ""
    if args.config:
        try:
            with open(args.config) as fh:
                config_text = fh.read()
        except OSError as exc:
            print(f"error: {args.config}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
    try:
        cfg = tuner.load_config(config_text, overrides=_tuner_overrides(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    run_config = RunConfig(workers=args.workers,
                           record_timings=not args.no_timings)
    with contextlib.ExitStack() as stack:
        if args.trace:
            try:
                fh = stack.enter_context(open(args.trace, "w", newline=""))
            except OSError as exc:
                print(f"error: {args.trace}: {exc.strerror}", file=sys.stderr)
                return EXIT_IO
            run_config.trace_sink = jacobi.trace_csv_sink(fh)
        return _run_solve(args, problem, cfg, run_config)


def _run_solve(args, problem, cfg, run_config):
    """Run the solve of ``cmd_solve``, its trace streamed through
    ``run_config.trace_sink``, and write the solution."""
    x0, z0, lam0 = default_start(problem)
    eps = cfg.eps
    try:
        if args.fixed_params:
            params = _fixed_params(args, cfg, problem.T)
            init = jacobi.init_state(problem, x0, z0, lam0, params)
            run_config.max_iters = (args.max_iters if args.max_iters
                                    else cfg.max_outer)
            state, trace = jacobi.run_fixed(
                problem, params, init, run_config,
                stop=lambda s, rec: rec.coupling_inf <= eps)
            feasible = bool(trace) and trace[-1].coupling_inf <= eps
            reason = (tuner.TERMINATION_FEASIBLE if feasible
                      else tuner.TERMINATION_ITERATION_CAP)
        else:
            init = tuner.make_initial_state(problem, cfg, x0, z0, lam0)
            state, trace, reason = tuner.run_adaptive(
                problem, cfg, init, run_config)
    except BlockSolveError as exc:
        print(f"error: block {exc.t} failed: {exc.result.status}",
              file=sys.stderr)
        _write_solution(args, problem, exc.state, exc.trace,
                        tuner.TERMINATION_BLOCK_FAILURE)
        return EXIT_NUMERICAL
    if trace and not np.isfinite(trace[-1].phi):
        _write_solution(args, problem, state, trace, "non-finite")
        return EXIT_NUMERICAL

    _write_solution(args, problem, state, trace, reason)
    log.info("terminated %s after %d iterations", reason,
             trace[-1].k if trace else 0)
    if reason == tuner.TERMINATION_FEASIBLE:
        return EXIT_OK
    return EXIT_ITERATION_CAP


def _fixed_params(args, cfg, T):
    if None not in (args.rho, args.theta, args.tau_x, args.tau_z):
        return Params(rho=args.rho, theta=args.theta,
                      tau_x=args.tau_x, tau_z=args.tau_z)
    base = auglag.theorem1_params(cfg.eps, T)
    return Params(
        rho=args.rho if args.rho is not None else base.rho,
        theta=args.theta if args.theta is not None else base.theta,
        tau_x=args.tau_x if args.tau_x is not None else base.tau_x,
        tau_z=args.tau_z if args.tau_z is not None else base.tau_z)


def _write_solution(args, problem, state, trace, reason):
    if args.solution:
        doc = _solution_doc(problem, state, reason, trace)
        with open(args.solution, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def cmd_validate(args):
    try:
        problem = _load_problem_file(args.problem)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = model.validate_problem(problem)
    for msg in report.errors:
        print(f"error: {msg}")
    for msg in report.warnings:
        print(f"warning: {msg}")
    if report.ok:
        print(f"ok: T={problem.T} blocks, m={problem.m} coupling rows, "
              f"n={sum(problem.dims)} variables")
        return EXIT_OK
    return EXIT_IO


def cmd_generate(args):
    try:
        if args.kind == "dispatch":
            problem = problems.gen_multiperiod_dispatch(
                args.periods, args.generators, args.ramp_frac)
            oracle = None
        elif args.kind == "acopf-toy":
            net = problems.toy_network(nbus=args.buses, T=args.periods)
            problem = problems.gen_acopf_toy(net, args.periods)
            oracle = None
        elif args.kind == "coupled-qp":
            problem, oracle = problems.gen_coupled_qp(
                args.seed, args.blocks, args.n_t, args.m)
        elif args.kind == "split":
            if not args.input:
                print("error: split requires --input", file=sys.stderr)
                return EXIT_IO
            problem = _load_problem_file(args.input)
            problem = model.variable_splitting_transform(problem)
            oracle = None
        else:
            print(f"error: unknown kind {args.kind!r}", file=sys.stderr)
            return EXIT_IO
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = model.validate_problem(problem)
    if not report.ok:
        for msg in report.errors:
            print(f"error: generated problem invalid: {msg}", file=sys.stderr)
        return EXIT_IO
    with open(args.out, "w") as fh:
        fh.write(model.save_problem(problem))
        fh.write("\n")
    if args.oracle and args.kind == "dispatch":
        try:
            oracle = problems.kkt_reference_solve(problem)
        except ValueError as exc:
            print(f"note: no oracle written: {exc}", file=sys.stderr)
    if oracle is not None and args.oracle:
        doc = {
            "x_star": [[float(v) for v in xt] for xt in oracle.x_star],
            "lambda_star": [float(v) for v in oracle.lambda_star],
            "objective": oracle.objective,
            "provenance": oracle.provenance,
        }
        with open(args.oracle, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_OK


class TraceCheckReport:
    """Accumulates named property checks with pass/fail/skip outcomes."""

    def __init__(self):
        self.results = []

    def record(self, name, outcome, detail=""):
        self.results.append((name, outcome, detail))

    def print(self, out=None):
        out = out if out is not None else sys.stdout
        for name, outcome, detail in self.results:
            line = f"{outcome.upper():5s} {name}"
            if detail:
                line += f" ({detail})"
            print(line, file=out)

    @property
    def failed(self):
        return any(outcome == "fail" for _, outcome, _ in self.results)


def replay_trace(problem, records):
    """Re-run the iteration under the recorded parameter schedule.

    Uses the solver's default start; returns (states, replayed records)
    where ``states`` holds a snapshot after every iteration.  Raises
    ValueError when the replayed scalars disagree with the trace beyond
    replay tolerance (trace/problem mismatch).
    """
    if not records:
        raise ValueError("empty trace")
    x0, z0, lam0 = default_start(problem)
    first = records[0]
    params = Params(rho=first.rho, theta=first.theta,
                    tau_x=first.tau_x, tau_z=first.tau_z)
    state = jacobi.init_state(problem, x0, z0, lam0, params)
    config = RunConfig(record_timings=False)
    phi_prev = jacobi.initial_lyapunov(problem, state, params)
    states, replayed = [], []
    for rec in records:
        params = Params(rho=rec.rho, theta=rec.theta,
                        tau_x=rec.tau_x, tau_z=rec.tau_z)
        new_rec = jacobi.iterate(problem, state, params, config,
                                 phi_prev=phi_prev)
        phi_prev = new_rec.phi
        scale = 1.0 + abs(rec.phi)
        if not np.isclose(new_rec.phi, rec.phi, rtol=0.0,
                          atol=REPLAY_RTOL * scale):
            raise ValueError(
                f"iteration {rec.k}: replayed phi {new_rec.phi!r} does not "
                f"match the trace value {rec.phi!r}; trace/problem mismatch")
        states.append(state.copy())
        replayed.append(new_rec)
    return states, replayed


def identity_residuals(problem, state, params):
    """Relative residuals of the update rules' identities at one iterate:
    the lambda-z relation, p = dlam/rho and z-update stationarity.

    Each residual is scaled by the operands that enter it.  lambda carries
    rho * (Ax + z - b), whose summands cancel, so an identity with lambda
    can only hold to roundoff relative to rho * max(|Ax|, |b|).
    """
    amax = lambda v: float(np.max(np.abs(v), initial=0.0))
    ax = couple_apply(problem, state.x)
    z_terms = max(params.theta * amax(state.z),
                  params.tau_z * amax(state.dz),
                  params.rho * max(amax(ax), amax(problem.b)))
    lemma1 = state.lam + params.theta * state.z + params.tau_z * state.dz
    p = ax + state.z - problem.b
    dlam = state.lam - state.lam_prev
    zstat = (state.lam_prev + params.rho * p + params.theta * state.z
             + params.tau_z * state.dz)
    return (amax(lemma1) / (1.0 + max(amax(state.lam), z_terms)),
            amax(p - dlam / params.rho)
            / (1.0 + max(amax(p), amax(dlam) / params.rho)),
            amax(zstat) / (1.0 + max(amax(state.lam_prev), z_terms)))


def _check_identities(problem, states, params_seq, report):
    """The worst identity residual over the replayed run, per identity."""
    worst = np.max([identity_residuals(problem, state, params)
                    for state, params in zip(states, params_seq)], axis=0)
    for name, w in zip(("lambda-z relation", "p equals dlam/rho",
                        "z-update stationarity"), worst):
        outcome = "pass" if w <= IDENTITY_RTOL else "fail"
        report.record(f"identity: {name}", outcome, f"worst {w:.2e}")


def _check_monotonicity(records, params_seq, T, report):
    """Lyapunov monotonicity on stretches with constant, feasible-eta
    parameters.

    Checked against the recorded values: a genuine trace replays bitwise, so
    this is equivalent to checking the replay, but it also catches traces
    whose phi/dphi columns were edited after the fact."""
    checked = 0
    violations = 0
    worst = 0.0
    for i in range(1, len(records)):
        if params_seq[i] != params_seq[i - 1]:
            continue
        etas = auglag.eta_pair(params_seq[i], T)
        if not etas.feasible:
            continue
        checked += 1
        slack = records[i].dphi - MONOTONE_RTOL * (1.0 + abs(records[i].phi))
        if slack > 0:
            violations += 1
            worst = max(worst, slack)
    if checked == 0:
        report.record("lyapunov monotonicity", "skip",
                      "no feasible-eta iterations")
    elif violations:
        report.record("lyapunov monotonicity", "fail",
                      f"{violations}/{checked} ascents, worst {worst:.2e}")
    else:
        report.record("lyapunov monotonicity", "pass",
                      f"{checked} iterations")


def _check_theorem_bounds(problem, records, replayed, params_seq, report):
    """Theorem-style bound existence on a constant-parameter feasible-eta
    run (skipped otherwise); the block dual residuals are the replayed
    records' ``delta``."""
    if len(records) < 2:
        report.record("bound existence", "skip", "trace too short")
        return
    if any(p != params_seq[0] for p in params_seq):
        report.record("bound existence", "skip", "parameters vary")
        return
    params = params_seq[0]
    etas = auglag.eta_pair(params, problem.T)
    if not etas.feasible:
        report.record("bound existence", "skip", "eta infeasible")
        return
    try:
        phi_hat = problems.separable_lower_bound(problem)
    except ValueError:
        report.record("bound existence", "skip", "no lower-bound oracle")
        return
    K = len(records)
    specnorms = [spectral_norm(blk.coupling) for blk in problem.blocks]
    pi_bound, delta_bounds = auglag.theorem1_bounds(
        records[0].phi, phi_hat, records[-1].phi, K, params, specnorms,
        problem.T)
    ok = any(rec.pi <= pi_bound
             and all(d <= db for d, db in zip(again.delta, delta_bounds))
             for rec, again in zip(records, replayed))
    report.record("bound existence", "pass" if ok else "fail",
                  f"pi bound {pi_bound:.3e}")


def cmd_trace_check(args):
    try:
        problem = _load_problem_file(args.problem)
        with open(args.trace, newline="") as fh:
            records = jacobi.read_trace_csv(fh)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        states, replayed = replay_trace(problem, records)
    except BlockSolveError as exc:
        print(f"error: replay failed at block {exc.t}: {exc.result.status}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    params_seq = [Params(rho=r.rho, theta=r.theta, tau_x=r.tau_x,
                         tau_z=r.tau_z) for r in records]
    report = TraceCheckReport()
    _check_monotonicity(records, params_seq, problem.T, report)
    _check_identities(problem, states, params_seq, report)
    _check_theorem_bounds(problem, records, replayed, params_seq, report)
    report.print()
    if report.failed:
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _add_solve_flags(p):
    p.add_argument("--eps", type=float, default=1e-4,
                   help="coupling feasibility tolerance")
    p.add_argument("--max-iters", type=int, default=None,
                   help="outer iteration cap")
    p.add_argument("--workers", type=int, default=0,
                   help="parallel block-solve workers (0 = serial)")
    p.add_argument("--fixed-params", action="store_true",
                   help="run with fixed parameters instead of the tuner")
    p.add_argument("--trace", help="write the per-iteration trace CSV here")
    p.add_argument("--solution", help="write the solution JSON here")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--no-timings", action="store_true",
                   help="zero the wall-clock trace columns (reproducible CSV)")
    p.add_argument("--rho", type=float, help="fixed-params rho")
    p.add_argument("--theta", type=float, help="fixed-params theta")
    p.add_argument("--tau-x", type=float, help="fixed-params tau_x")
    p.add_argument("--tau-z", type=float, help="fixed-params tau_z")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxjacobi",
        description="Distributed proximal Jacobi augmented-Lagrangian solver "
                    "for linearly coupled block problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem", help="problem JSON path")
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="validate a problem file")
    p.add_argument("problem", help="problem JSON path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="generate a test problem")
    p.add_argument("kind",
                   choices=["dispatch", "acopf-toy", "coupled-qp", "split"])
    p.add_argument("--out", required=True, help="output problem JSON path")
    p.add_argument("--oracle", help="output oracle JSON path, when available")
    p.add_argument("--input", help="input problem for the split transform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--periods", type=int, default=3)
    p.add_argument("--generators", type=int, default=2)
    p.add_argument("--ramp-frac", type=float, default=0.1)
    p.add_argument("--buses", type=int, default=2)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--n-t", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trace-check",
                       help="re-verify the method's invariants on a trace")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("problem", help="problem JSON path")
    p.set_defaults(func=cmd_trace_check)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

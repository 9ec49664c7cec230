"""Outside-in layer timing for proxjacobi.

``install`` replaces the public functions of each proxjacobi module, and
every module attribute bound to one of them (``jacobi.dispatch`` is
``subsolver.dispatch``), with a wrapper that opens a span on entry and
closes it on exit.  Spans nest on one stack, since the measured process runs
one solve at a time on one thread.  A span's self time is its duration minus
the durations of the spans it encloses; spans are folded into per-metric
self times and counts as they close, so memory stays flat however many
calls a run makes.  Time outside every span is ``other_s``.

The patching is process-wide and is never undone: install it only in the
process that measures, after importing proxjacobi and before the first
call.  A wrapped name the program no longer defines is listed in
``Tracer.absent`` rather than failing the run.
"""

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

LAYERS = ("model", "algebra", "auglag", "subsolver", "jacobi", "tuner",
          "cli", "problems")

# (module, attribute) -> the metric that receives the span's self time.
SPANS = {
    ("model", "load_problem"): "model.load_s",
    ("model", "validate_problem"): "model.validate_s",
    ("algebra", "couple_apply"): "algebra.coupling_s",
    ("algebra", "couple_apply_except"): "algebra.coupling_s",
    ("auglag", "BlockObjective.__init__"): "auglag.assembly_s",
    ("auglag", "BlockObjective.value"): "auglag.callback_s",
    ("auglag", "BlockObjective.gradient"): "auglag.callback_s",
    ("auglag", "BlockObjective.hessian"): "auglag.callback_s",
    ("auglag", "BlockObjective.hess_vec"): "auglag.callback_s",
    ("auglag", "lyapunov"): "auglag.metrics_s",
    ("auglag", "aug_lagrangian"): "auglag.metrics_s",
    ("auglag", "penalty_residuals"): "auglag.metrics_s",
    ("auglag", "dual_residual"): "auglag.metrics_s",
    ("subsolver", "dispatch"): "subsolver.solve_s",
    ("subsolver", "solve_quadratic_exact"): "subsolver.solve_s",
    ("subsolver", "solve_quadratic_kkt"): "subsolver.solve_s",
    ("subsolver", "solve_equality_alm"): "subsolver.solve_s",
    ("subsolver", "solve_box_pg"): "subsolver.solve_s",
    ("subsolver", "solve_box_newton"): "subsolver.solve_s",
    ("jacobi", "x_update_all"): "jacobi.xupd_s",
    ("jacobi", "z_update"): "jacobi.zupd_s",
    ("jacobi", "lambda_update"): "jacobi.zupd_s",
    ("jacobi", "write_trace_csv"): "jacobi.trace_io_s",
    ("jacobi", "read_trace_csv"): "jacobi.trace_io_s",
    ("jacobi", "iterate"): "jacobi.loop_s",
    ("jacobi", "run_fixed"): "jacobi.loop_s",
    ("jacobi", "init_state"): "jacobi.loop_s",
    ("jacobi", "initial_lyapunov"): "jacobi.loop_s",
    ("tuner", "run_adaptive"): "tuner.tune_s",
    ("tuner", "tune_step"): "tuner.tune_s",
    ("tuner", "make_initial_state"): "tuner.tune_s",
    ("tuner", "load_config"): "tuner.tune_s",
    ("cli", "cmd_solve"): "cli.solve_s",
    ("cli", "default_start"): "cli.solve_s",
    ("cli", "replay_trace"): "cli.replay_s",
    ("cli", "cmd_trace_check"): "cli.audit_s",
    ("problems", "separable_lower_bound"): "problems.lower_bound_s",
}

# Block solvers: the count each call adds to, and the ``solver`` name its
# result carries.
SOLVERS = {
    "solve_quadratic_exact": ("subsolver.solves_exact", "quadratic-exact"),
    "solve_quadratic_kkt": ("subsolver.solves_kkt", "quadratic-kkt"),
    "solve_equality_alm": ("subsolver.solves_alm", "equality-alm"),
    "solve_box_pg": ("subsolver.solves_pg", "box-pg"),
    "solve_box_newton": ("subsolver.solves_newton", "box-newton"),
}

EQUALITY_METHODS = ("value", "gradient", "hessian")

COUNTS = ("model.eq_evals", "algebra.coupling_products",
          "subsolver.block_solves", "subsolver.inner_iters",
          "subsolver.capped_solves", "subsolver.first_path",
          "tuner.param_changes") + tuple(c for c, _ in SOLVERS.values())
TIMES = tuple(sorted(set(SPANS.values()) | {"model.eq_s"}))


class Tracer:
    """Per-metric self times and counts of the spans closed so far."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        # durations of the children of each open span; slot 0 collects the
        # spans that have no parent
        self._child = [0.0]
        # first solver tried by each open dispatch call
        self._first = []

    @property
    def covered_s(self):
        """Summed duration of the outermost spans."""
        return self._child[0]

    def span(self, metric, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span whose self time goes to
        ``metric``; ``before(args)`` and ``after(args, result)`` run
        inside it."""
        child, self_s, clock = self._child, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                dur = clock() - t0
                self_s[metric] += dur - child.pop()
                child[-1] += dur
        return wrapper

    # hooks that turn call arguments and results into counts

    def _coupling(self, args, _result):
        self.counts["algebra.coupling_products"] += args[0].T

    def _coupling_except(self, args, _result):
        self.counts["algebra.coupling_products"] += args[0].T - 1

    def _dispatch_in(self, _args):
        self._first.append(None)

    def _dispatch_out(self, _args, result):
        c = self.counts
        c["subsolver.block_solves"] += 1
        c["subsolver.inner_iters"] += result.inner_iterations
        c["subsolver.capped_solves"] += result.status == "iteration-cap"
        c["subsolver.first_path"] += self._first.pop() == result.solver

    def _solver_in(self, count, solver):
        def hook(_args):
            self.counts[count] += 1
            if self._first and self._first[-1] is None:
                self._first[-1] = solver
        return hook

    def _tune_out(self, args, result):
        self.counts["tuner.param_changes"] += (
            result[0].params != args[0].params)

    def _load_out(self, _args, problem):
        for blk in problem.blocks:
            for eq in blk.set.equalities:
                for meth in EQUALITY_METHODS:
                    if hasattr(eq, meth):
                        setattr(eq, meth, self._count_span(
                            "model.eq_evals", "model.eq_s", getattr(eq, meth)))

    def _count_span(self, count, metric, fn):
        def bump(_args):
            self.counts[count] += 1
        return self.span(metric, fn, before=bump)

    def _hooks(self, mod, attr):
        if (mod, attr) == ("algebra", "couple_apply"):
            return None, self._coupling
        if (mod, attr) == ("algebra", "couple_apply_except"):
            return None, self._coupling_except
        if (mod, attr) == ("subsolver", "dispatch"):
            return self._dispatch_in, self._dispatch_out
        if mod == "subsolver" and attr in SOLVERS:
            return self._solver_in(*SOLVERS[attr]), None
        if (mod, attr) == ("tuner", "tune_step"):
            return None, self._tune_out
        if (mod, attr) == ("model", "load_problem"):
            return None, self._load_out
        return None, None

    def install(self):
        """Patch proxjacobi in place; returns the tracer."""
        import proxjacobi
        modules = {name: importlib.import_module(f"proxjacobi.{name}")
                   for name in LAYERS}
        scan = [proxjacobi] + [
            importlib.import_module(f"proxjacobi.{info.name}")
            for info in pkgutil.iter_modules(proxjacobi.__path__)]
        for (mod, attr), metric in SPANS.items():
            owner, _, meth = attr.rpartition(".")
            if owner:
                cls = getattr(modules[mod], owner, None)
                original = vars(cls).get(meth) if cls is not None else None
            else:
                original = getattr(modules[mod], attr, None)
            if original is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            before, after = self._hooks(mod, attr)
            wrapper = self.span(metric, original, before, after)
            if owner:
                setattr(cls, meth, wrapper)
                continue
            for module in scan:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        return self

    def metrics(self, traced_s, rounds):
        """Per-round self times, counts and ratios, plus ``other_s``: the
        traced time no span covers."""
        out = {}
        for name in TIMES:
            out[name] = (self.self_s[name] / rounds, "s")
        for name in COUNTS:
            if name != "subsolver.first_path":
                out[name] = (self.counts[name] / rounds, "count")
        solves = self.counts["subsolver.block_solves"]
        out["subsolver.first_path_ratio"] = (
            self.counts["subsolver.first_path"] / solves if solves else 1.0,
            "ratio")
        out["other_s"] = ((traced_s - self.covered_s) / rounds, "s")
        out["trace.round_s"] = (traced_s / rounds, "s")
        return out

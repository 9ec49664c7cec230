"""The measured process: set-up, solve and trace-check, one at a time.

    python3 perfbench/measure.py <workload> <workdir> <seconds> <trace> [--quick]

Reads ``<workdir>/problem.json``, then runs whole rounds until ``seconds``
have passed (one round in quick mode).  A round is ``setup_reps`` set-ups
(one when traced), one in-process ``proxjacobi solve`` and one in-process
``proxjacobi trace-check`` of the trace that solve wrote; the host kernel is
timed before each of the three.  Prints one JSON
object with the per-round timings, exit codes and the peak resident set of
this process.  With ``trace`` 1 the tracer wraps the program first and the
object also carries its per-layer metrics.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy.linalg
import scipy.sparse as sp

import workloads

sys.path.insert(0, str(workloads.SRC))

from proxjacobi import auglag, cli, jacobi, model, tuner  # noqa: E402

KERNEL_REPS = 1500


def host_kernel():
    """Fixed work in the program's mix, timed to follow the host's speed:
    sparse products, small Cholesky solves, NumPy reductions and
    interpreter-bound loops.  It never changes with the program."""
    rng = np.random.default_rng(12345)
    A = sp.random(40, 60, density=0.1, random_state=rng, format="csr")
    M = rng.standard_normal((10, 10))
    H = M.T @ M + np.eye(10)
    x = np.ones(60)
    acc = 0.0
    for i in range(KERNEL_REPS):
        x = x - 1e-2 * (A.T @ (A @ x))
        x /= np.linalg.norm(x)
        s = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), x[:10])
        acc += float(s @ s) + sum(v * 0.5 for v in range(30))
        acc += {"k": i, "v": float(x[0])}["v"]
    return acc


def time_host_kernel():
    """One timing of the host kernel, from a collected heap and with the
    collector paused, so that it measures the host and not leftover
    garbage of the program."""
    gc.collect()
    gc.disable()
    try:
        return timed(host_kernel)[1]
    finally:
        gc.enable()


def set_up(path, spec):
    """What every solve pays before its first iteration: parse, validate
    and build the initial iterate (mirrors ``cmd_solve``)."""
    with open(path) as fh:
        text = fh.read()
    problem = model.load_problem(text)
    report = model.validate_problem(problem)
    if not report.ok:
        raise ValueError(f"invalid problem: {report.errors}")
    x0, z0, lam0 = cli.default_start(problem)
    if spec["fixed_params"]:
        params = auglag.theorem1_params(spec["eps"], problem.T)
        return jacobi.init_state(problem, x0, z0, lam0, params)
    cfg = tuner.load_config("", overrides={"eps": spec["eps"]})
    return tuner.make_initial_state(problem, cfg, x0, z0, lam0)


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def one_round(name, workdir, quick, reps):
    spec = workloads.WORKLOADS[name]
    problem = os.path.join(workdir, "problem.json")
    trace = os.path.join(workdir, "trace.csv")
    solution = os.path.join(workdir, "solution.json")
    kernel = [time_host_kernel()]
    setups = [timed(set_up, problem, spec)[1] for _ in range(reps)]
    kernel.append(time_host_kernel())
    solve_rc, solve_s = timed(cli.main, [
        "solve", problem, "--trace", trace, "--solution", solution,
        *workloads.solve_flags(name, quick)])
    kernel.append(time_host_kernel())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        check_rc, check_s = timed(cli.main, ["trace-check", trace, problem])
    with open(solution, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"setup_s": setups, "solve_s": solve_s, "check_s": check_s,
            "kernel_s": kernel,
            "solve_rc": solve_rc, "check_rc": check_rc,
            "check_out": out.getvalue(), "solution_sha256": digest}


def main(argv):
    if len(argv) not in (4, 5) or argv[4:] not in ([], ["--quick"]):
        print(__doc__, file=sys.stderr)
        return 2
    name, workdir, seconds, traced = argv[0], argv[1], float(argv[2]), \
        argv[3] == "1"
    quick = len(argv) == 5
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    reps = 1 if traced else workloads.WORKLOADS[name]["setup_reps"]
    rounds, failures = [], []
    start = time.perf_counter()
    while True:
        try:
            rounds.append(one_round(name, workdir, quick, reps))
        except Exception:  # reported as a failed round, never a crash
            failures.append(traceback.format_exc())
        if quick or time.perf_counter() - start >= seconds:
            break
    doc = {"rounds": rounds, "failures": failures,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        traced_s = sum(sum(r["setup_s"]) + r["solve_s"] + r["check_s"]
                       for r in rounds)
        doc["layers"] = tracer.metrics(traced_s, max(len(rounds), 1))
        doc["absent"] = tracer.absent
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

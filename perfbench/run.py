"""proxjacobi benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload qp-fixed --seed 0 --seconds 30 --trace 0

Generates the workload's problem from the seed in a process of its own,
then runs set-up, ``proxjacobi solve`` and ``proxjacobi trace-check`` in one
measured process (serial, one BLAS thread) for ``--seconds``, checks the
outputs with computations made apart from the program, and prints one JSON
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--quick`` runs the workload at toy size, one round, every check.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_TIMEOUT_S = 170.0
# Time metrics are wall times scaled to a reference host speed: the measured
# process times the host kernel right before the set-ups, the solve and the
# trace-check of every round, and each timing is multiplied by
# KERNEL_REF_S / (the kernel time just before it).
# The speed of this kind of shared host drifts by 10-30% over minutes, which
# no run length averages out; the kernel drifts with it (README, "Host
# noise").  KERNEL_REF_S is the kernel's median time on the host the
# reference figures come from, so the scaled figures read as seconds there.
KERNEL_REF_S = 0.16
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PROXJACOBI_LOG": "error"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true",
                   help="toy size, one round, every check")
    p.add_argument("--blocks", type=int,
                   help="qp-fixed only: number of blocks T (for T sweeps)")
    p.add_argument("--save", help="also write the result, tagged with its "
                                  "workload and seed, into this directory")
    return p.parse_args(argv)


def end_to_end(measured, sol, trace_rows):
    rounds = measured["rounds"]
    setup_s = statistics.median(s * KERNEL_REF_S / r["kernel_s"][0]
                                for r in rounds for s in r["setup_s"])
    solve_s = statistics.median(r["solve_s"] * KERNEL_REF_S / r["kernel_s"][1]
                                for r in rounds)
    check_s = statistics.median(r["check_s"] * KERNEL_REF_S / r["kernel_s"][2]
                                for r in rounds)
    outer = int(sol["iterations"])
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "iter_ms": (1e3 * (solve_s - setup_s) / max(outer, 1), "ms"),
        "check_s": (check_s, "s"),
        "outer_iters": (outer, "count"),
        "inner_iters": (int(sum(row["inner_iters_total"]
                                for row in trace_rows)), "count"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


def per_layer(measured):
    """The tracer's metrics, times scaled by the run's median host-kernel
    time (spans fold over whole rounds, so they cannot be paired with the
    kernel timing next to each call), plus that raw median."""
    kernel_s = statistics.median(
        k for r in measured["rounds"] for k in r["kernel_s"])
    scale = KERNEL_REF_S / kernel_s
    out = {name: (value * scale if unit == "s" else value, unit)
           for name, (value, unit) in measured["layers"].items()}
    out["host.kernel_s"] = (kernel_s, "s")
    return out


def main(argv):
    args = parse_args(argv)
    if not (workloads.SRC / "proxjacobi" / "__init__.py").is_file():
        print(f"error: no proxjacobi sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    name, spec = args.workload, workloads.WORKLOADS[args.workload]
    workdir = OUT / (f"{name}-seed{args.seed}-trace{args.trace}"
                     + ("-quick" if args.quick else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, **THREAD_ENV)
    size_flags = ["--quick"] if args.quick else []
    gen_flags = size_flags + ([] if args.blocks is None
                              else ["--blocks", str(args.blocks)])
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(args.seed),
         str(workdir / "problem.json"), *gen_flags],
        env=env, check=True, timeout=RUN_TIMEOUT_S)
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), name, str(workdir),
         repr(args.seconds), str(args.trace), *size_flags],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
        timeout=max(RUN_TIMEOUT_S - (time.monotonic() - started), 1.0))
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(workdir / "measure.json", "w") as fh:
        json.dump(measured, fh, indent=1)

    fails = checks.check_run(spec, measured)
    if measured["rounds"]:
        fails += checks.check_outputs(
            name, spec, workdir, workloads.budget(name, args.quick))
    for msg in measured["failures"] + fails:
        print(f"{name}: {msg}", file=sys.stderr)
    if not measured["rounds"]:
        metrics = {}
    elif args.trace:
        metrics = per_layer(measured)
    else:
        metrics = end_to_end(
            measured, checks.read_solution(workdir / "solution.json"),
            checks.read_trace(workdir / "trace.csv"))
    result = {
        "correct": not fails,
        "attempted": len(measured["rounds"]) + len(measured["failures"]),
        "failed": len(measured["failures"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        path = (Path(args.save)
                / f"{name}-trace{args.trace}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": args.seed,
                       "trace": args.trace, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

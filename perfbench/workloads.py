"""Workload definitions and seeded input generation.

Each workload names the problem it generates, the ``proxjacobi solve`` flags
it runs with, the exit code and termination reason it expects, and how often
one measured round repeats the set-up.  ``generate`` builds the problem file
from ``--seed``; run as a script it does so in a process of its own, so the
generator's memory and time stay out of the measured process:

    python3 perfbench/workloads.py <workload> <seed> <out.json> [--quick]
                                   [--blocks T]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The full sizes keep one round (set-up, solve, trace-check) at 3-6 s, so a
# 30 s run takes the median of 5-10 rounds: on a shared 2-vCPU host single
# solves vary by 10% or more, and medians over many rounds are what repeat
# from run to run.  The quick sizes run every check in about a second.
# ``size`` keys are generator arguments.
WORKLOADS = {
    "qp-fixed": {
        "size": {"blocks": 128, "n_t": 10, "m": 8},
        "quick": {"blocks": 6, "n_t": 4, "m": 3},
        "eps": 1e-2,
        "fixed_params": True,
        "max_iters": {"size": 5, "quick": 6},
        "expect_rc": 2,
        "expect_termination": "iteration-cap",
        "setup_reps": 5,
    },
    "dispatch": {
        "size": {"periods": 24, "generators": 3},
        "quick": {"periods": 6, "generators": 3},
        "eps": 1e-6,
        "fixed_params": False,
        "expect_rc": 0,
        "expect_termination": "feasible-stop",
        "setup_reps": 20,
    },
    "acopf": {
        "size": {"periods": 12, "buses": 3},
        "quick": {"periods": 4, "buses": 3},
        "eps": 1e-3,
        "fixed_params": False,
        "expect_rc": 0,
        "expect_termination": "feasible-stop",
        "setup_reps": 25,
    },
}

# Seeded perturbations of the deterministic generators.  They are kept small
# so that every seed gives a feasible instance with the same iteration
# counts, which keeps the seed-to-seed spread of the timings down.
DISPATCH_PROFILE_NOISE = 2e-3
ACOPF_LOAD_BASE = 0.45
ACOPF_LOAD_NOISE = 1e-2


def sizes(name, quick=False, blocks=None):
    """Generator arguments of a workload; ``blocks`` overrides qp-fixed's T."""
    size = dict(WORKLOADS[name]["quick" if quick else "size"])
    if blocks is not None:
        if name != "qp-fixed":
            raise ValueError("--blocks applies to qp-fixed only")
        size["blocks"] = blocks
    return size


def budget(name, quick=False):
    """The fixed iteration budget of a fixed-parameter workload, else None."""
    spec = WORKLOADS[name]
    if not spec["fixed_params"]:
        return None
    return spec["max_iters"]["quick" if quick else "size"]


def solve_flags(name, quick=False):
    """The ``proxjacobi solve`` flags of a workload (serial, one caller)."""
    spec = WORKLOADS[name]
    flags = ["--eps", repr(spec["eps"]), "--workers", "0"]
    if spec["fixed_params"]:
        flags += ["--fixed-params", "--max-iters", str(budget(name, quick))]
    return flags


def generate(name, seed, size):
    """Build the workload's problem for ``seed`` and return its JSON text."""
    import numpy as np
    from proxjacobi import model, problems

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    if name == "qp-fixed":
        problem, _ = problems.gen_coupled_qp(
            seed, size["blocks"], size["n_t"], size["m"])
    elif name == "dispatch":
        T = size["periods"]
        profile = problems.default_load_profile(T, amplitude=0.03)
        profile = profile + rng.uniform(-DISPATCH_PROFILE_NOISE,
                                        DISPATCH_PROFILE_NOISE, T)
        problem = problems.gen_multiperiod_dispatch(
            T, size["generators"], 0.1, profile=profile)
    elif name == "acopf":
        T = size["periods"]
        base = ACOPF_LOAD_BASE + rng.uniform(-ACOPF_LOAD_NOISE,
                                             ACOPF_LOAD_NOISE)
        net = problems.toy_network(nbus=size["buses"], T=T, load_base=base)
        problem = problems.gen_acopf_toy(net, T)
    else:
        raise ValueError(f"unknown workload {name!r}")
    report = model.validate_problem(problem)
    if not report.ok:
        raise ValueError(f"generated {name} problem invalid: {report.errors}")
    return model.save_problem(problem) + "\n"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--blocks", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    text = generate(args.workload, args.seed,
                    sizes(args.workload, args.quick, args.blocks))
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

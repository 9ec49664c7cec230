"""Solve a randomly generated coupled quadratic program with the adaptive
tuner, compare against the direct KKT solution, and verify the written trace
with the trace-check command.

Run:  python3 demos/coupled_qp.py
"""

import tempfile
from pathlib import Path

import numpy as np

from proxjacobi import cli, problems, tuner
from proxjacobi.jacobi import RunConfig, write_trace_csv
from proxjacobi.model import save_problem

SEED = 0
T, N_T, M = 4, 3, 2
EPS = 1e-6


def main():
    prob, oracle = problems.gen_coupled_qp(SEED, T, N_T, M)
    print(f"coupled QP: T={prob.T} blocks, m={prob.m} coupling rows")
    print(f"oracle objective {oracle.objective:.6f} ({oracle.provenance})")

    cfg = tuner.TunerConfig(eps=EPS)
    init = tuner.make_initial_state(prob, cfg, *cli.default_start(prob))
    state, trace, reason = tuner.run_adaptive(
        prob, cfg, init, RunConfig(record_timings=False))

    print(f"\n{reason} after {len(trace)} outer iterations")
    print(f"final coupling residual {trace[-1].coupling_inf:.2e}")
    err = max(float(np.max(np.abs(xt - xs)))
              for xt, xs in zip(prob.split(state.x),
                                prob.split(oracle.x_star)))
    print(f"max |x - x_star| = {err:.2e}")

    # round trip: write problem and trace to disk, then replay and audit
    with tempfile.TemporaryDirectory() as tmp:
        pfile = Path(tmp) / "qp.json"
        tfile = Path(tmp) / "trace.csv"
        pfile.write_text(save_problem(prob))
        with open(tfile, "w", newline="") as fh:
            write_trace_csv(trace, fh)
        print("\ntrace-check output:")
        code = cli.main(["trace-check", str(tfile), str(pfile)])
        print(f"trace-check exit code {code}")


if __name__ == "__main__":
    main()

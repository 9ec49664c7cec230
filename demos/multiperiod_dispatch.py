"""Ramp-limited multi-period economic dispatch solved block-parallel.

Each period is one block; the ramping constraints couple consecutive
periods.  The adaptive tuner drives the coupling residual below eps and
the result is compared against the direct KKT solution.

Run:  python3 demos/multiperiod_dispatch.py
"""

import numpy as np

from proxjacobi import cli, problems, tuner
from proxjacobi.jacobi import RunConfig

PERIODS = 6
GENERATORS = 3
RAMP_FRAC = 0.2
EPS = 1e-6


def main():
    prob = problems.gen_multiperiod_dispatch(PERIODS, GENERATORS, RAMP_FRAC)
    oracle = problems.kkt_reference_solve(prob)
    print(f"dispatch: {PERIODS} periods x {GENERATORS} generators, "
          f"m={prob.m} ramping rows")

    cfg = tuner.TunerConfig(eps=EPS)
    init = tuner.make_initial_state(prob, cfg, *cli.default_start(prob))
    state, trace, reason = tuner.run_adaptive(
        prob, cfg, init, RunConfig(record_timings=False))
    print(f"{reason} after {len(trace)} iterations, "
          f"coupling {trace[-1].coupling_inf:.2e}")

    print("\nschedule (rows = periods, cols = generator outputs):")
    x = prob.split(state.x)
    for t, xt in enumerate(x):
        p = xt[:GENERATORS]
        print(f"  t={t}: " + "  ".join(f"{v:7.4f}" for v in p))

    err = max(float(np.max(np.abs(xt - xs)))
              for xt, xs in zip(x, prob.split(oracle.x_star)))
    print(f"\nmax deviation from the KKT solution: {err:.2e}")
    ramp = max(abs(trace[-1].coupling_inf), 0.0)
    balance = max(float(np.max(np.abs(blk.set.equality_values(xt))))
                  for blk, xt in zip(prob.blocks, x))
    print(f"ramping residual {ramp:.2e}, demand balance {balance:.2e}")


if __name__ == "__main__":
    main()

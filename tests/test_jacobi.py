"""Unit tests for the fixed-parameter iteration loop and trace handling."""

import io

import numpy as np
import pytest

from proxjacobi import jacobi, problems
from proxjacobi.algebra import couple_apply
from proxjacobi.auglag import (BlockObjective, dual_residual,
                               penalty_residuals, subproblem_gradients)
from proxjacobi.jacobi import (BlockSolveError, RunConfig, TraceRecord,
                               init_state, initial_lyapunov, iterate,
                               read_trace_csv, run_fixed, trace_csv_text,
                               write_trace_csv)
from proxjacobi.model import Params
from proxjacobi.subsolver import (BlockSolveResult, STATUS_NUMERICAL_FAILURE)

from conftest import build_qp, default_start, mixed_problem

PARAMS = Params(rho=2.0, theta=4.0, tau_x=1.0, tau_z=8.0)


@pytest.fixture(scope="module")
def qp():
    return build_qp(8)[0]


class TestInitState:
    def test_conventions(self, qp):
        rng = np.random.default_rng(0)
        x0 = [rng.standard_normal(blk.n) for blk in qp.blocks]
        z0 = rng.standard_normal(qp.m)
        lam0 = rng.standard_normal(qp.m)
        state = init_state(qp, x0, z0, lam0, PARAMS)
        assert state.k == 0
        for xt, x0t in zip(state.x, x0):
            assert np.array_equal(xt, x0t)  # unbounded: projection is identity
        for xt, xp in zip(state.x, state.x_prev):
            assert np.array_equal(xt, xp)
        assert np.allclose(state.dz,
                           -(lam0 + PARAMS.theta * z0) / PARAMS.tau_z)

    def test_projects_onto_box(self):
        from proxjacobi import problems
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.2)
        x0 = [np.full(blk.n, 100.0) for blk in prob.blocks]
        state = init_state(prob, x0, np.zeros(prob.m), np.zeros(prob.m),
                           PARAMS)
        for blk, xt in zip(prob.blocks, state.x):
            assert np.all(xt <= blk.set.upper)

    def test_length_mismatch(self, qp):
        with pytest.raises(ValueError):
            init_state(qp, [np.zeros(2)], np.zeros(qp.m), np.zeros(qp.m),
                       PARAMS)

    def test_initial_lyapunov(self, qp):
        from proxjacobi import auglag
        state = init_state(qp, *default_start(qp), PARAMS)
        expected = auglag.aug_lagrangian(qp, state.x, state.z, state.lam,
                                         PARAMS)
        expected += 0.25 * PARAMS.tau_z * float(state.dz @ state.dz)
        assert initial_lyapunov(qp, state, PARAMS) == pytest.approx(expected)


class TestIterate:
    def test_update_formulas(self, qp):
        from proxjacobi.algebra import couple_apply
        state = init_state(qp, *default_start(qp), PARAMS)
        cfg = RunConfig(record_timings=False)
        rec = iterate(qp, state, PARAMS, cfg)
        assert rec.k == 1 and state.k == 1
        denom = PARAMS.tau_z + PARAMS.rho + PARAMS.theta
        viol = couple_apply(qp, state.x) - qp.b
        z_expected = (PARAMS.tau_z * state.z_prev - PARAMS.rho * viol
                      - state.lam_prev) / denom
        assert np.array_equal(state.z, z_expected)
        lam_expected = state.lam_prev + PARAMS.rho * (
            couple_apply(qp, state.x) + state.z - qp.b)
        assert np.array_equal(state.lam, lam_expected)
        assert np.array_equal(state.dz, state.z - state.z_prev)

    def test_dphi_is_phi_difference(self, qp):
        state = init_state(qp, *default_start(qp), PARAMS)
        cfg = RunConfig(record_timings=False)
        r1 = iterate(qp, state, PARAMS, cfg)
        r2 = iterate(qp, state, PARAMS, cfg, phi_prev=r1.phi)
        assert r2.dphi == pytest.approx(r2.phi - r1.phi)

    def test_trace_sink(self, qp):
        seen = []
        cfg = RunConfig(record_timings=False, trace_sink=seen.append)
        state = init_state(qp, *default_start(qp), PARAMS)
        iterate(qp, state, PARAMS, cfg)
        assert len(seen) == 1 and seen[0].k == 1


class TestRunFixed:
    def test_stop_predicate(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        state, trace = run_fixed(qp, PARAMS, init,
                                 RunConfig(record_timings=False, max_iters=50),
                                 stop=lambda s, rec: rec.k >= 7)
        assert len(trace) == 7
        assert state.k == 7
        assert [r.k for r in trace] == list(range(1, 8))

    def test_does_not_mutate_init(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        x_before = [xt.copy() for xt in init.x]
        run_fixed(qp, PARAMS, init, RunConfig(record_timings=False,
                                              max_iters=3))
        for xt, xb in zip(init.x, x_before):
            assert np.array_equal(xt, xb)

    def test_serial_parallel_bitwise(self, qp):
        traces = []
        for workers in (0, 2, qp.T):
            init = init_state(qp, *default_start(qp), PARAMS)
            _, trace = run_fixed(qp, PARAMS, init,
                                 RunConfig(record_timings=False, max_iters=20,
                                           workers=workers))
            traces.append(trace_csv_text(trace))
        assert traces[0] == traces[1] == traces[2]

    def test_block_failure_attaches_trace(self, qp, monkeypatch):
        # from the third sweep on, block 0's batched step fails and so does
        # its fallback through dispatch
        def failing(req):
            return BlockSolveResult(
                x=req.warm_start, mu=np.empty(0),
                status=STATUS_NUMERICAL_FAILURE, inner_iterations=0,
                grad_norm=float("inf"), solver="broken")

        calls = {"n": 0}
        step = jacobi.solve_quadratic_exact

        def flaky(H, H_inv, g):
            dx, ok = step(H, H_inv, g)
            calls["n"] += 1
            if calls["n"] > 2:
                ok[0] = False       # row 0 of the one group is block 0
            return dx, ok

        monkeypatch.setattr(jacobi, "solve_quadratic_exact", flaky)
        monkeypatch.setattr(jacobi, "dispatch", failing)
        init = init_state(qp, *default_start(qp), PARAMS)
        cfg = RunConfig(record_timings=False, max_iters=10)
        with pytest.raises(BlockSolveError) as info:
            run_fixed(qp, PARAMS, init, cfg)
        assert info.value.t == 0
        assert len(info.value.trace) == 2  # partial trace preserved


class TestTraceCsv:
    def test_round_trip_exact(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace = run_fixed(qp, PARAMS, init,
                             RunConfig(record_timings=False, max_iters=5))
        text = trace_csv_text(trace)
        back = read_trace_csv(io.StringIO(text))
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a.row() == b.row()  # 17 significant digits round-trip

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_truncated_row(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace = run_fixed(qp, PARAMS, init,
                             RunConfig(record_timings=False, max_iters=2))
        lines = trace_csv_text(trace).splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(io.StringIO("\n".join(lines)))

    def test_timings_recorded_when_enabled(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace = run_fixed(qp, PARAMS, init, RunConfig(max_iters=2))
        assert all(r.t_xupd_ms > 0 for r in trace)
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace = run_fixed(qp, PARAMS, init,
                             RunConfig(record_timings=False, max_iters=2))
        assert all(r.t_xupd_ms == 0 for r in trace)


def random_state(problem, params, seed):
    rng = np.random.default_rng(seed)
    x0 = [np.clip(rng.standard_normal(blk.n), -1.0, 1.0)
          for blk in problem.blocks]
    return init_state(problem, x0, rng.standard_normal(problem.m),
                      rng.standard_normal(problem.m), params)


def record_routes(monkeypatch):
    """Record the sweep's dispatch calls; returns the {t: solver} of the
    blocks that go through dispatch, filled as they do."""
    routed = {}
    real = jacobi.dispatch

    def recording(req):
        res = real(req)
        routed[req.t] = res.solver
        return res

    monkeypatch.setattr(jacobi, "dispatch", recording)
    return routed


@pytest.mark.parametrize("w, batched", [(0.5, [0, 1, 5, 6]),
                                        (3.0, [0, 1, 3, 5, 6])])
def test_batched_sweep_solves_grouped_blocks(monkeypatch, w, batched):
    # the indefinite block 3 is batched only when its Hessian is positive
    # definite; otherwise its subproblem is unbounded below, and dispatch
    # fails it at once, with every other block routed as before
    prob = mixed_problem()
    params = Params(rho=w / 3.0, theta=4.0, tau_x=2.0 * w / 3.0, tau_z=8.0)
    state = random_state(prob, params, 1)
    routed = record_routes(monkeypatch)
    others = {t: "box-newton" for t in range(prob.T) if t not in batched}
    others[4] = "quadratic-kkt"
    if 3 not in batched:
        with pytest.raises(BlockSolveError) as info:
            jacobi.x_update_all(prob, state, params)
        assert info.value.t == 3
        assert info.value.result.inner_iterations == 0
        assert routed == others
        return
    x, inner = jacobi.x_update_all(prob, state, params)
    assert routed == others
    g = subproblem_gradients(prob, state.x.vec, state.z, state.lam,
                             params.rho)
    for t in batched:
        obj = BlockObjective(prob, t, g, state.x[t], params)
        g0 = np.linalg.norm(obj.gradient(state.x[t]))
        assert np.linalg.norm(obj.gradient(x[t])) <= 1e-10 * (1.0 + g0)
        assert inner[t] == 1
    for t in set(range(prob.T)) - set(batched):
        assert not np.array_equal(x[t], state.x[t])


def test_batched_sweep_worker_counts_bitwise():
    prob = mixed_problem()
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    runs = []
    for workers in (0, 1, 2, prob.T):
        state, trace = run_fixed(prob, params, random_state(prob, params, 2),
                                 RunConfig(record_timings=False, max_iters=30,
                                           workers=workers))
        runs.append((trace_csv_text(trace), state.x.vec.tobytes()))
    assert np.isfinite(trace[-1].phi)
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("case", ["mixed", "qp", "dispatch"])
def test_batched_dual_residuals_match_reference(qp, case):
    # the delta of penalty_residuals, one stacked gradient for the blocks
    # without equalities, is dual_residual of each block
    prob = {"mixed": mixed_problem, "qp": lambda: qp,
            "dispatch": lambda: problems.gen_multiperiod_dispatch(
                3, 2, 0.2)}[case]()
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    state, _ = run_fixed(prob, params, random_state(prob, params, 3),
                         RunConfig(record_timings=False, max_iters=2))
    if case == "mixed":
        state.x[2][:] = [0.0, 1.0]      # the boxed block at its upper bound
    delta = penalty_residuals(prob, state, params, feas_tol=np.inf).delta
    ref = [dual_residual(prob, t, state.x[t], state.lam, feas_tol=np.inf)
           for t in range(prob.T)]
    assert len(delta) == prob.T
    assert np.allclose(delta, ref, rtol=1e-12, atol=0.0)

"""Unit tests for the fixed-parameter iteration loop and trace handling."""

import io

import numpy as np
import pytest

from proxjacobi import jacobi
from proxjacobi.jacobi import (BlockSolveError, RunConfig, TraceRecord,
                               init_state, initial_lyapunov, iterate,
                               read_trace_csv, run_fixed, trace_csv_text,
                               write_trace_csv)
from proxjacobi.model import Params
from proxjacobi.subsolver import (BlockSolveResult, STATUS_NUMERICAL_FAILURE)

from conftest import build_qp, default_start

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
        def failing(req):
            return BlockSolveResult(
                x=req.warm_start, mu=np.empty(0),
                status=STATUS_NUMERICAL_FAILURE, inner_iterations=0,
                grad_norm=float("inf"), solver="broken")

        calls = {"n": 0}
        dispatch = jacobi.dispatch

        def flaky(req):
            if req.t == 0:
                calls["n"] += 1
                if calls["n"] > 2:
                    return failing(req)
            return dispatch(req)

        monkeypatch.setattr(jacobi, "dispatch", flaky)
        init = init_state(qp, *default_start(qp), PARAMS)
        cfg = RunConfig(record_timings=False, max_iters=10)
        with pytest.raises(BlockSolveError) as info:
            run_fixed(qp, PARAMS, init, cfg)
        assert info.value.t == 0
        assert len(info.value.trace) >= 1  # partial trace preserved


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

"""Unit tests for the adaptive parameter tuner."""

import numpy as np
import pytest

from proxjacobi import jacobi
from proxjacobi.jacobi import RunConfig, TraceRecord
from proxjacobi.tuner import (TunerConfig, init_params, load_config,
                              make_initial_state, run_adaptive, tune_step)

from conftest import build_qp, default_start


def rec(dphi=-1.0, phi=1.0, p_inf=1.0, d_inf=1.0, coupling_inf=1.0):
    return TraceRecord(
        k=1, phi=phi, dphi=dphi, coupling_inf=coupling_inf, p_inf=p_inf,
        d_inf=d_inf, pi=0.0, delta_max=0.0, rho=0.0, theta=0.0, tau_x=0.0,
        tau_z=0.0, t_xupd_ms=0.0, t_zupd_ms=0.0, inner_iters_total=0)


class TestConfig:
    def test_defaults(self):
        cfg = TunerConfig(eps=1e-3)
        assert cfg.rho0 == 1e-3 and cfg.omega == 32.0 and cfg.chi == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(eps=2.0)
        with pytest.raises(ValueError):
            TunerConfig(eps=1e-3, nu_rho=0.5)
        with pytest.raises(ValueError):
            TunerConfig(eps=1e-3, rho0=-1.0)
        with pytest.raises(ValueError, match="max_outer"):
            TunerConfig(eps=1e-3, max_outer=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["eps", "rho0", "zeta", "nu_rho", "chi"])
    def test_nonfinite_rejected(self, name, value):
        values = {"eps": 1e-3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TunerConfig(**values)


def test_init_params():
    cfg = TunerConfig(eps=1e-2)
    params, state = init_params(cfg)
    assert params.theta == pytest.approx(1e4)
    assert params.rho == cfg.rho0
    assert params.tau_x == cfg.kappa_x * cfg.rho0
    assert params.tau_z == cfg.kappa_z * cfg.rho0
    assert state.psi == 0


class TestTuneStep:
    def setup_method(self):
        self.cfg = TunerConfig(eps=1e-2)
        _, self.state = init_params(self.cfg)

    def test_ascent_grows_tau_x(self):
        new, stop = tune_step(self.state, rec(dphi=1.0), 3, self.cfg)
        assert new.params.tau_x == pytest.approx(
            self.cfg.nu_x * self.state.params.tau_x)
        assert not stop

    def test_tau_x_capped(self):
        state = self.state
        for _ in range(20):
            state, _ = tune_step(state, rec(dphi=1.0, p_inf=1.0, d_inf=1.0),
                                 3, self.cfg)
        assert state.params.tau_x <= (2 * 3 - 1) * state.params.rho + 1e-15

    def test_small_ascent_tolerated(self):
        new, _ = tune_step(self.state, rec(dphi=1e-6, phi=1.0), 3, self.cfg)
        assert new.params.tau_x == self.state.params.tau_x

    def test_theta_growth(self):
        new, stop = tune_step(
            self.state, rec(p_inf=1e-3, d_inf=1e-3, coupling_inf=0.5),
            3, self.cfg)
        assert new.params.theta == pytest.approx(
            self.cfg.nu_theta * self.state.params.theta)
        assert not stop

    def test_rho_increase_on_primal_dominance(self):
        new, _ = tune_step(self.state, rec(p_inf=1.0, d_inf=0.01), 3, self.cfg)
        p = new.params
        assert p.rho == pytest.approx(self.cfg.nu_rho * self.state.params.rho)
        assert p.tau_x == pytest.approx(self.cfg.kappa_x * p.rho)
        assert p.tau_z == pytest.approx(self.cfg.kappa_z * p.rho)

    def test_rho_decrease_consumes_budget(self):
        new, _ = tune_step(self.state, rec(p_inf=0.01, d_inf=1.0), 3, self.cfg)
        assert new.params.rho == pytest.approx(self.state.params.rho / 2)
        assert new.psi == 1

    def test_rho_decrease_stops_at_budget(self):
        cfg = TunerConfig(eps=1e-2, Psi=1)
        _, state = init_params(cfg)
        state, _ = tune_step(state, rec(p_inf=0.01, d_inf=1.0), 3, cfg)
        rho_after = state.params.rho
        state, _ = tune_step(state, rec(p_inf=0.01, d_inf=1.0), 3, cfg)
        assert state.params.rho == rho_after
        assert state.psi == 1

    def test_stop_condition(self):
        _, stop = tune_step(self.state, rec(coupling_inf=5e-3), 3, self.cfg)
        assert stop
        _, stop = tune_step(self.state, rec(coupling_inf=2e-2), 3, self.cfg)
        assert not stop


class TestRunAdaptive:
    def test_feasible_stop_on_qp(self):
        prob, oracle = build_qp(0)
        cfg = TunerConfig(eps=1e-5)
        init = make_initial_state(prob, cfg, *default_start(prob))
        state, trace, reason = run_adaptive(prob, cfg, init,
                                            RunConfig(record_timings=False))
        assert reason == jacobi.TERMINATION_FEASIBLE
        assert trace[-1].coupling_inf <= cfg.eps
        for xt, xs in zip(prob.split(state.x), prob.split(oracle.x_star)):
            assert np.allclose(xt, xs, atol=1e-3)

    def test_iteration_cap(self):
        prob, _ = build_qp(0)
        cfg = TunerConfig(eps=1e-8, max_outer=3)
        init = make_initial_state(prob, cfg, *default_start(prob))
        _, trace, reason = run_adaptive(prob, cfg, init,
                                        RunConfig(record_timings=False))
        assert reason == jacobi.TERMINATION_ITERATION_CAP
        assert len(trace) == 3

    def test_trace_records_parameter_schedule(self):
        prob, _ = build_qp(5)
        cfg = TunerConfig(eps=1e-6)
        init = make_initial_state(prob, cfg, *default_start(prob))
        _, trace, _ = run_adaptive(prob, cfg, init,
                                   RunConfig(record_timings=False))
        # the k-th record carries the parameters in force at iteration k
        params0, _ = init_params(cfg)
        assert trace[0].rho == params0.rho
        assert trace[0].theta == params0.theta
        assert any(r.rho != trace[0].rho for r in trace)  # tuner engaged


class TestLoadConfig:
    def test_parse_with_comments(self):
        cfg = load_config("eps = 1e-3\n# note\n\nPsi = 5\nomega=16\n")
        assert cfg.eps == 1e-3 and cfg.Psi == 5 and cfg.omega == 16.0

    def test_overrides_take_precedence(self):
        cfg = load_config("eps = 1e-3\n", overrides={"eps": 1e-5,
                                                     "chi": None})
        assert cfg.eps == 1e-5 and cfg.chi == 10.0

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            load_config("eps = 1e-3\nbogus = 1\n")

    def test_missing_separator(self):
        with pytest.raises(ValueError, match="key = value"):
            load_config("eps 1e-3\n")

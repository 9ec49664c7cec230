"""Unit tests for the fixed-parameter iteration loop and trace handling."""

import io
import logging
from dataclasses import fields, replace

import numpy as np
import pytest

from proxjacobi import auglag, cli, jacobi, problems, subsolver, tuner
from proxjacobi.algebra import couple_apply
from proxjacobi.auglag import penalty_residuals, subproblem_gradients
from proxjacobi.jacobi import (BlockSolveError, RunConfig, TRACE_COLUMNS,
                               TraceRecord, init_state, initial_lyapunov,
                               iterate, read_trace_csv, run,
                               trace_csv_text, write_trace_csv)
from proxjacobi.model import (Params, PolarBalance, Problem, save_problem,
                              variable_splitting_transform)
from proxjacobi.subsolver import (STATUS_CONVERGED, STATUS_ITERATION_CAP,
                                  STATUS_NUMERICAL_FAILURE, solve_box_qp)

from conftest import (acopf_rows, at_point, block_objective, build_qp,
                      default_start, mixed_problem, replace_equalities,
                      routes, spy_row_solvers, state_at)
from reference import dual_residual

PARAMS = Params(rho=2.0, theta=4.0, tau_x=1.0, tau_z=8.0)


@pytest.fixture(scope="module")
def qp():
    return build_qp(8)[0]


class TestInitState:
    def test_conventions(self, qp):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(sum(qp.dims))
        z0 = rng.standard_normal(qp.m)
        lam0 = rng.standard_normal(qp.m)
        state = init_state(qp, x0, z0, lam0, PARAMS)
        assert state.k == 0
        for xt, x0t in zip(qp.split(state.x), qp.split(x0)):
            assert np.array_equal(xt, x0t)  # unbounded: projection is identity
        for xt, xp in zip(qp.split(state.x), qp.split(state.x_prev)):
            assert np.array_equal(xt, xp)
        assert np.allclose(state.dz,
                           -(lam0 + PARAMS.theta * z0) / PARAMS.tau_z)

    def test_projects_onto_box(self):
        from proxjacobi import problems
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.2)
        x0 = np.full(sum(prob.dims), 100.0)
        state = init_state(prob, x0, np.zeros(prob.m), np.zeros(prob.m),
                           PARAMS)
        for blk, xt in zip(prob.blocks, prob.split(state.x)):
            assert np.all(xt <= blk.set.upper)

    def test_alm_stacks_start_cold_and_copy_apart(self):
        # no ALM stacks before the first sweep, which starts cold; after
        # it, one pair per alm group, and a copy of the state owns its
        # stacks
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=4), 4)
        state = init_state(prob, *default_start(prob), PARAMS)
        assert state.alm == [] and state.copy().alm == []
        iterate(prob, state, PARAMS, RunConfig(record_timings=False))
        grp, = prob.quadratic_groups
        (y, sigma), = state.alm
        assert y.shape == grp.d.shape and sigma.shape == (4,)
        assert y.any()
        y0, sigma0 = y.copy(), sigma.copy()
        other = state.copy()
        other.alm[0][0][:] = 1.0
        other.alm[0][1][:] = 2.0
        assert np.array_equal(y, y0) and np.array_equal(sigma, sigma0)

    def test_products_at_x_copy_apart(self, qp):
        # init_state makes Ax and Qx at the projected x0, and Kdx = 0 as
        # x - x_prev is; a copy owns them
        state = init_state(qp, *default_start(qp), PARAMS)
        assert np.array_equal(state.Ax, couple_apply(qp, state.x))
        assert np.array_equal(state.Qx, qp.objective_Q @ state.x)
        assert np.array_equal(state.Kdx,
                              qp.block_products(state.x - state.x_prev))
        other = state.copy()
        other.Ax[:] = 0.0
        other.Qx[:] = 0.0
        other.Kdx[:] = 1.0
        assert np.array_equal(state.Ax, couple_apply(qp, state.x))
        assert np.array_equal(state.Qx, qp.objective_Q @ state.x)
        assert not state.Kdx.any()

    def test_length_mismatch(self, qp):
        with pytest.raises(ValueError):
            init_state(qp, [np.zeros(2)], np.zeros(qp.m), np.zeros(qp.m),
                       PARAMS)

    @pytest.mark.parametrize("case", ["per-block list", "ragged list",
                                      "block matrix", "short", "long"])
    def test_refuses_x0_not_flat(self, qp, case):
        # x0 is one flat vector of shape (N,): any other shape is refused
        # with a message naming it, even where its entries add up to N
        prob = mixed_problem() if case == "ragged list" else qp
        N = sum(prob.dims)
        x0 = {"block matrix": np.zeros((prob.T, N // prob.T)),
              "short": np.zeros(N - 1),
              "long": np.zeros(N + 1)}.get(
                  case, [np.zeros(n) for n in prob.dims])
        with pytest.raises(ValueError, match=rf"\({N},\)"):
            init_state(prob, x0, np.zeros(prob.m), np.zeros(prob.m), PARAMS)

    def test_initial_lyapunov(self, qp):
        from proxjacobi import auglag
        state = init_state(qp, *default_start(qp), PARAMS)
        expected = auglag.aug_lagrangian(qp, state, PARAMS)
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
    def test_rule_sets_params_and_stops(self, qp):
        # the rule doubles rho after every record and stops at k = 7:
        # record k carries the parameters in force at iteration k
        def rule(rec):
            return replace(PARAMS, rho=2 * rec.rho), rec.k >= 7

        init = init_state(qp, *default_start(qp), PARAMS)
        state, trace, reason = run(
            qp, PARAMS, init, RunConfig(record_timings=False, max_iters=50),
            rule)
        assert len(trace) == 7
        assert state.k == 7
        assert [r.k for r in trace] == list(range(1, 8))
        assert [r.rho for r in trace] == [PARAMS.rho * 2 ** k
                                          for k in range(7)]
        assert reason == jacobi.TERMINATION_FEASIBLE

    @pytest.mark.parametrize("column", ["phi", "coupling_inf"])
    def test_stops_after_first_non_finite_record(self, qp, monkeypatch,
                                                 column):
        # the third record's phi, or its coupling residual, is not finite:
        # the run ends right after it
        real = jacobi.iterate

        def spoiled(*args, **kwargs):
            rec = real(*args, **kwargs)
            if rec.k == 3:
                setattr(rec, column, np.nan)
            return rec

        monkeypatch.setattr(jacobi, "iterate", spoiled)
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, reason = run(qp, PARAMS, init,
                               RunConfig(record_timings=False, max_iters=50))
        assert [rec.finite for rec in trace] == [True, True, False]
        assert reason == jacobi.TERMINATION_NON_FINITE

    def test_does_not_mutate_init(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        x_before = [xt.copy() for xt in init.x]
        run(qp, PARAMS, init, RunConfig(record_timings=False,
                                        max_iters=3))
        for xt, xb in zip(init.x, x_before):
            assert np.array_equal(xt, xb)

    def test_serial_parallel_bitwise(self, qp):
        traces = []
        for workers in (0, 2, qp.T):
            init = init_state(qp, *default_start(qp), PARAMS)
            _, trace, _ = run(qp, PARAMS, init,
                              RunConfig(record_timings=False, max_iters=20,
                                        workers=workers))
            traces.append(trace_csv_text(trace))
        assert traces[0] == traces[1] == traces[2]

    def test_block_failure_attaches_trace(self, qp, monkeypatch):
        # from the third sweep on, block 0's batched step fails and so does
        # its fallback, projected Newton
        def failing(obj, X, lo, hi):
            k = len(X)
            return (X, np.full(k, STATUS_NUMERICAL_FAILURE, dtype=object),
                    np.zeros(k, dtype=int), np.full(k, np.inf))

        calls = {"n": 0}
        step = jacobi.solve_quadratic_exact

        def flaky(H, H_inv, g):
            dx, ok = step(H, H_inv, g)
            calls["n"] += 1
            if calls["n"] > 2:
                ok[0] = False       # row 0 of the one group is block 0
            return dx, ok

        monkeypatch.setattr(jacobi, "solve_quadratic_exact", flaky)
        monkeypatch.setattr(jacobi, "box_newton_rows", failing)
        init = init_state(qp, *default_start(qp), PARAMS)
        cfg = RunConfig(record_timings=False, max_iters=10)
        with pytest.raises(BlockSolveError) as info:
            run(qp, PARAMS, init, cfg)
        assert info.value.t == 0
        assert len(info.value.trace) == 2  # partial trace preserved


class TestTraceCsv:
    def test_round_trip_exact(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, _ = run(qp, PARAMS, init,
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
        _, trace, _ = run(qp, PARAMS, init,
                          RunConfig(record_timings=False, max_iters=2))
        lines = trace_csv_text(trace).splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(io.StringIO("\n".join(lines)))

    def test_timings_recorded_when_enabled(self, qp):
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, _ = run(qp, PARAMS, init, RunConfig(max_iters=2))
        assert all(r.t_xupd_ms > 0 and r.t_metrics_ms > 0 for r in trace)
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, _ = run(qp, PARAMS, init,
                          RunConfig(record_timings=False, max_iters=2))
        assert all(r.t_xupd_ms == 0 and r.t_metrics_ms == 0 for r in trace)

    def test_reads_old_header(self, qp):
        # a trace written before the t_metrics_ms column reads with the
        # column at 0 and every other column as written
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, _ = run(qp, PARAMS, init, RunConfig(max_iters=3))
        assert jacobi.REQUIRED_TRACE_COLUMNS == len(TRACE_COLUMNS) - 1 == 15
        old = "\n".join(line.rsplit(",", 1)[0]
                        for line in trace_csv_text(trace).splitlines())
        back = read_trace_csv(io.StringIO(old))
        assert [r.t_metrics_ms for r in back] == [0.0] * 3
        for a, b in zip(trace, back):
            assert a.row()[:15] == b.row()[:15]

    def test_columns_are_the_first_record_fields(self):
        # read_trace_csv converts a row by position, through the types of
        # the first fields of TraceRecord
        names = [f.name for f in fields(TraceRecord)]
        assert names[:len(TRACE_COLUMNS)] == TRACE_COLUMNS

    @pytest.mark.parametrize("case", ["14-column prefix", "reordered",
                                      "extra column", "empty"])
    def test_header_outside_the_rule_is_refused(self, qp, case):
        # a header is read only when it is a prefix of TRACE_COLUMNS with
        # at least its first 15 columns
        init = init_state(qp, *default_start(qp), PARAMS)
        _, trace, _ = run(qp, PARAMS, init, RunConfig(max_iters=2))
        rows = [line.split(",")
                for line in trace_csv_text(trace).splitlines()]
        if case == "14-column prefix":
            rows = [row[:14] for row in rows]
        elif case == "reordered":
            for row in rows:
                row[1], row[2] = row[2], row[1]
        elif case == "extra column":
            rows = [row + [value] for row, value
                    in zip(rows, ["unconverged", "0", "0"])]
        else:
            rows = []
        text = "".join(",".join(row) + "\n" for row in rows)
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(io.StringIO(text))


@pytest.mark.parametrize("case", ["dispatch", "coupled-qp"])
def test_iterate_makes_each_product_once(monkeypatch, case):
    # an iteration after the first makes K x and K(x - x_prev) at the new
    # x once each, K'v three times (the sweep's gradients, d_x and the dual
    # residuals' gradients) and Q x once: the metrics and the next sweep
    # reuse them.  The trace replay, which computes no residual, makes K'v
    # once per iteration
    prob = (problems.gen_multiperiod_dispatch(6, 3, 0.1)
            if case == "dispatch" else problems.coupled_qp(0, 8, 4, 3))
    params = Params(rho=2.0, theta=4.0, tau_x=20.0, tau_z=8.0)
    config = RunConfig(record_timings=False)
    _, trace, _ = run(prob, params,
                      init_state(prob, *default_start(prob), params),
                      RunConfig(record_timings=False, max_iters=3))
    state = init_state(prob, *default_start(prob), params)
    rec = iterate(prob, state, params, config)
    counts = dict.fromkeys(
        ("block_products", "block_products_T", "objective_products"), 0)
    for name in counts:
        real = getattr(Problem, name)

        def counted(self, vec, real=real, name=name):
            counts[name] += 1
            return real(self, vec)
        monkeypatch.setattr(Problem, name, counted)
    for _ in range(2):
        rec = iterate(prob, state, params, config, phi_prev=rec.phi)
        assert counts == {"block_products": 2, "block_products_T": 3,
                          "objective_products": 1}
        counts.update(dict.fromkeys(counts, 0))
    # the products the state carries are those at its x
    assert np.array_equal(state.Ax, couple_apply(prob, state.x))
    assert np.array_equal(state.Qx, prob.objective_Q @ state.x)
    # the replay: one K x and one Q x from init_state, then per iteration
    # K x, K(x - x_prev), the sweep's K'v and Q x
    counts.update(dict.fromkeys(counts, 0))
    assert len(cli.replay_trace(prob, trace,
                                cli.param_schedule(trace))) == 3
    assert counts == {"block_products": 1 + 2 * 3, "block_products_T": 3,
                      "objective_products": 1 + 3}


def test_qp_start_built_once_per_weight(monkeypatch, tmp_path):
    # a 24 x 3 dispatch solve, and its trace-check replay, build their qp
    # group's starting KKT system only when rho + tau_x changes between
    # sweeps (the cache keeps the latest weight, as hessian_factor does):
    # 11 builds over 44 sweeps here, for 9 distinct weights, since w goes
    # 0.096 -> 0.192 -> 0.096 once
    problem = problems.gen_multiperiod_dispatch(24, 3, 0.1)
    assert [g.kind for g in problem.quadratic_groups] == ["qp"]
    path, trace = tmp_path / "d.json", tmp_path / "d.csv"
    path.write_text(save_problem(problem))
    builds = []
    real = subsolver.start_system
    monkeypatch.setattr(subsolver, "start_system",
                        lambda *a: builds.append(1) or real(*a))
    assert cli.main(["solve", str(path), "--eps", "1e-6", "--no-timings",
                     "--trace", str(trace)]) == cli.EXIT_OK
    with open(trace) as fh:
        w = [rec.rho + rec.tau_x for rec in read_trace_csv(fh)]
    changes = 1 + sum(a != b for a, b in zip(w, w[1:]))
    assert changes < len(w) // 2
    assert len(builds) == changes
    builds.clear()
    assert cli.main(["trace-check", str(trace), str(path)]) == cli.EXIT_OK
    assert len(builds) == changes


def random_state(problem, params, seed):
    rng = np.random.default_rng(seed)
    x0 = np.clip(rng.standard_normal(sum(problem.dims)), -1.0, 1.0)
    return init_state(problem, x0, rng.standard_normal(problem.m),
                      rng.standard_normal(problem.m), params)


@pytest.mark.parametrize("w, batched", [(0.5, [0, 1, 5, 6]),
                                        (3.0, [0, 1, 3, 5, 6])])
def test_batched_sweep_solves_grouped_blocks(monkeypatch, w, batched):
    # the indefinite block 3 takes the batched exact step only when its
    # Hessian is positive definite; otherwise its subproblem is unbounded
    # below, and projected Newton fails it at once, with every other block
    # routed as before.  Block 4, with a linear equality, is solved by the
    # batched QP; only the boxed block 2 is solved by projected Newton.
    prob = mixed_problem()
    params = Params(rho=w / 3.0, theta=4.0, tau_x=2.0 * w / 3.0, tau_z=8.0)
    state = random_state(prob, params, 1)
    calls = spy_row_solvers(monkeypatch)
    others = {t: "box-newton" for t in range(prob.T)
              if t not in batched and t != 4}
    if 3 not in batched:
        with pytest.raises(BlockSolveError) as info:
            jacobi.x_update_all(prob, state, params)
        assert info.value.t == 3
        assert info.value.status == STATUS_NUMERICAL_FAILURE
        (_, blocks, (_, _, inner, _)), = [c for c in calls if 3 in c[1]]
        assert inner[blocks.index(3)] == 0
        assert routes(calls) == others
        return
    x, inner, _, _ = jacobi.x_update_all(prob, state, params)
    assert routes(calls) == others
    g = subproblem_gradients(prob, state, params.rho)
    x, x_bar = prob.split(x), prob.split(state.x)
    for t in batched:
        obj = block_objective(prob, t, g, x_bar[t], params)
        g0 = np.linalg.norm(at_point(obj.gradient, x_bar[t]))
        assert np.linalg.norm(at_point(obj.gradient, x[t])) <= 1e-10 * (
            1.0 + g0)
        assert inner[t] == 1
    obj = block_objective(prob, 4, g, x_bar[4], params)
    C, d = prob.blocks[4].set.linear_rows
    ref, _, passes = solve_box_qp(
        obj.H, at_point(obj.gradient, np.zeros(3))[None], C, d[None],
        prob.blocks[4].set.lower[None], prob.blocks[4].set.upper[None])
    assert passes[0] > 0 and inner[4] == passes[0]
    assert np.allclose(x[4], ref[0], rtol=1e-12, atol=1e-14)
    assert not np.array_equal(x[2], x_bar[2])


def test_uncertified_grouped_block_reaches_the_alm(monkeypatch):
    # every block of the split mixed_problem has linear equalities and is
    # solved by a batched QP; at w = rho + tau_x = 0.5 the QP of block 3
    # finds only a saddle, so that block alone takes the ALM path
    prob = variable_splitting_transform(mixed_problem())
    assert {grp.kind for grp in prob.quadratic_groups} == {"qp"}
    params = Params(rho=0.5 / 3.0, theta=4.0, tau_x=1.0 / 3.0, tau_z=8.0)
    state = init_state(prob, np.zeros(sum(prob.dims)),
                       np.zeros(prob.m), np.zeros(prob.m), params)
    calls = spy_row_solvers(monkeypatch)
    _, inner, _, _ = jacobi.x_update_all(prob, state, params)
    assert routes(calls) == {3: "equality-alm"}
    assert inner[3] > 1


@pytest.mark.parametrize("shape", ["coupled-qp", "dispatch", "acopf-toy"])
def test_workload_sweeps_make_no_fallback_solve(monkeypatch, shape):
    # the benchmark's problem shapes form one group each, and their sweeps
    # solve it by its kind's own call alone: no exact step or QP falls back
    # to projected Newton or the ALM.  The coupled QP runs with its
    # Theorem-1 parameters, the others under the tuner
    if shape == "coupled-qp":
        prob, _ = problems.gen_coupled_qp(0, 12, 4, 3)
        kind = "exact"
    elif shape == "dispatch":
        prob = problems.gen_multiperiod_dispatch(24, 3, 0.1)
        kind = "qp"
    else:
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=4), 4)
        kind = "alm"
    grp, = prob.quadratic_groups
    assert grp.kind == kind and grp.blocks == list(range(prob.T))
    calls = []
    for name in ("box_newton_rows", "equality_alm_rows"):
        real = getattr(jacobi, name)

        def recording(obj, *args, name=name, real=real):
            calls.append((name, len(obj.g)))
            return real(obj, *args)

        monkeypatch.setattr(jacobi, name, recording)
    cfg = tuner.TunerConfig(eps={"coupled-qp": 1e-2, "dispatch": 1e-6,
                                 "acopf-toy": 1e-3}[shape])
    x0 = default_start(prob)
    if shape == "coupled-qp":
        params = auglag.theorem1_params(cfg.eps, prob.T)
        _, trace, _ = run(prob, params, init_state(prob, *x0, params),
                          RunConfig(record_timings=False, max_iters=5))
    else:
        _, trace, reason = tuner.run_adaptive(
            prob, cfg, tuner.make_initial_state(prob, cfg, *x0),
            RunConfig(record_timings=False))
        assert reason == jacobi.TERMINATION_FEASIBLE
    assert len(trace) >= 2
    if kind == "qp":
        assert max(max(rec.inner_iters) for rec in trace) > 1
    own = [("equality_alm_rows", prob.T)] * len(trace) if kind == "alm" \
        else []
    assert calls == own


@pytest.mark.parametrize("shape", ["mixed", "coupled-qp", "dispatch",
                                   "acopf-toy"])
def test_iterations_never_split_the_iterate(monkeypatch, shape):
    # x stays one flat vector through every iteration of a fixed and an
    # adaptive run and of the trace replay: Problem.split, the per-block
    # view, serves only the writers of per-block output
    if shape == "mixed":
        prob = mixed_problem()
    elif shape == "coupled-qp":
        prob, _ = problems.gen_coupled_qp(0, 12, 4, 3)
    elif shape == "dispatch":
        prob = problems.gen_multiperiod_dispatch(24, 3, 0.1)
    else:
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=4), 4)

    def refuse(self, vec):
        raise AssertionError("Problem.split called inside an iteration")

    monkeypatch.setattr(Problem, "split", refuse)
    x0 = default_start(prob)
    config = RunConfig(record_timings=False, max_iters=5)
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    _, fixed, _ = run(prob, params, init_state(prob, *x0, params), config)
    # the mixed problem's indefinite block needs rho + tau_x > 1
    cfg = tuner.TunerConfig(eps=1e-6, max_outer=5,
                            rho0=2.0 if shape == "mixed" else 1e-3)
    _, adaptive, _ = tuner.run_adaptive(
        prob, cfg, tuner.make_initial_state(prob, cfg, *x0), config)
    for trace in (fixed, adaptive):
        states = cli.replay_trace(prob, trace,
                                  cli.param_schedule(trace))
        assert len(states) == len(trace) >= 2


@pytest.mark.parametrize("shape", ["mixed", "acopf-toy"])
def test_advance_writes_into_no_array_of_the_state(shape):
    # advance rebinds the arrays of the state and writes into none, so a
    # snapshot that shares them (the trace replay's) stays as it was
    if shape == "mixed":
        prob = mixed_problem()
    else:
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=4), 4)
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    state = init_state(prob, *default_start(prob), params)
    jacobi.advance(prob, state, params)     # fills the ALM stacks
    held = [state.x, state.z, state.lam, state.x_prev, state.z_prev,
            state.lam_prev, state.dz, state.Ax, state.Qx, state.Kdx,
            *(a for pair in state.alm for a in pair)]
    copies = [a.copy() for a in held]
    for _ in range(2):
        jacobi.advance(prob, state, params)
    assert all(np.array_equal(a, c) for a, c in zip(held, copies))
    assert not np.array_equal(state.x, held[0])


def test_capped_inner_solve_is_logged(monkeypatch, caplog):
    # a solve that stops at its iteration cap is taken, with one warning
    # naming the block, the iteration, the solver and its inner count.
    # Block 2 is the one box-only block: the one block of projected Newton
    real = jacobi.box_newton_rows

    def capped(*args):
        x, status, inner, crit = real(*args)
        assert len(x) == 1
        status[0], inner[0] = STATUS_ITERATION_CAP, 500
        return x, status, inner, crit

    monkeypatch.setattr(jacobi, "box_newton_rows", capped)
    prob = mixed_problem()
    state = random_state(prob, PARAMS, 1)
    with caplog.at_level(logging.WARNING, logger="proxjacobi"):
        _, inner, _, _ = jacobi.x_update_all(prob, state, PARAMS)
    assert inner[2] == 500
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].name == "proxjacobi"
    msg = warnings[0].getMessage()
    assert all(part in msg for part in
               ("iteration 1", "block 2", "box-newton", "500"))


def test_batched_sweep_worker_counts_bitwise():
    prob = mixed_problem()
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    runs = []
    for workers in (0, 1, 2, prob.T):
        state, trace, _ = run(prob, params, random_state(prob, params, 2),
                              RunConfig(record_timings=False, max_iters=30,
                                        workers=workers))
        runs.append((trace_csv_text(trace), state.x.tobytes()))
    assert np.isfinite(trace[-1].phi)
    assert all(other == runs[0] for other in runs[1:])


@pytest.mark.parametrize("case", ["mixed", "qp", "dispatch", "acopf"])
def test_batched_dual_residuals_match_reference(qp, case):
    # the delta of penalty_residuals, from one stacked gradient with the
    # multipliers of a group fitted in one batch, is dual_residual of each
    # block
    prob = {"mixed": mixed_problem, "qp": lambda: qp,
            "dispatch": lambda: problems.gen_multiperiod_dispatch(
                3, 2, 0.2),
            "acopf": lambda: problems.gen_acopf_toy(
                problems.toy_network(nbus=3, T=4), 4)}[case]()
    params = Params(rho=2.0, theta=4.0, tau_x=4.0, tau_z=8.0)
    state, _, _ = run(prob, params, random_state(prob, params, 3),
                      RunConfig(record_timings=False, max_iters=2))
    x = prob.split(state.x)     # views: writes go into state.x
    if case == "mixed":
        x[2][:] = [0.0, 1.0]            # the boxed block at its upper bound
    if case == "dispatch":
        # the blocks form one group with the balance row; block 1's first
        # generator at its lower bound
        grp, = prob.quadratic_groups
        assert grp.kind == "qp" and grp.blocks == [0, 1, 2]
        x[1][0] = prob.blocks[1].set.lower[0]
    if case == "acopf":
        # the periods form one alm group.  x is moved a tenth of the way to
        # the box midpoints, off the sweep's points, where the blocks are
        # stationary up to roundoff, and off their bounds; then block 2's
        # first coordinate is put at its upper bound
        grp, = prob.quadratic_groups
        assert grp.kind == "alm" and grp.blocks == [0, 1, 2, 3]
        state.x[:] = 0.9 * state.x + 0.05 * (prob.lower + prob.upper)
        x[2][0] = prob.blocks[2].set.upper[0]
    # the iterate at the edited x, with its products there
    state = state_at(prob, state.x, state.z, state.lam, state.x_prev,
                     state.z_prev, state.lam_prev, state.k)
    delta = penalty_residuals(prob, state, params).delta
    ref = [dual_residual(prob, t, x[t], state.lam, feas_tol=np.inf)
           for t in range(prob.T)]
    assert len(delta) == prob.T
    assert np.allclose(delta, ref, rtol=1e-12, atol=0.0)


def acopf_state(prob, X, seed=0):
    rng = np.random.default_rng(seed)
    return init_state(prob, X.ravel(), 0.1 * rng.standard_normal(prob.m),
                      rng.standard_normal(prob.m), PARAMS)


def test_grouped_capped_row_is_logged(caplog):
    # the ACOPF periods are one group and one ALM call; block 3 demands a
    # load no point of its box meets, and its solve, which stalls, is
    # logged once as stalled
    prob, grp, _, _, X = acopf_rows(early=None, bad=None)
    assert grp.blocks == list(range(prob.T))
    state = acopf_state(prob, X)
    with caplog.at_level(logging.WARNING, logger="proxjacobi"):
        x, inner, _, _ = jacobi.x_update_all(prob, state, PARAMS)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    msg = warnings[0].getMessage()
    assert all(part in msg for part in
               ("iteration 1", "block 3", "equality-alm", "stalled",
                str(inner[3])))
    assert not np.array_equal(x, state.x)


@pytest.mark.parametrize("group_fails, single_fails, first", [
    ([4], [2], 2), ([1, 5], [2], 1), ([3, 5], [], 3), ([], [2], 2)])
def test_sweep_raises_for_lowest_failing_block(monkeypatch, group_fails,
                                               single_fails, first):
    # block 2 has its own admittance row and is a group of one; the others
    # are one group.  The failure raised is the one of the lowest block
    # index, whichever group that block is in.
    prob, _, _, _, X = acopf_rows(early=None, capped=None, bad=None)
    prob = replace_equalities(prob, 2, [
        PolarBalance(eq.name, dict(eq.payload, y_diag_im=eq.y_diag_im + 1.0))
        for eq in prob.blocks[2].set.equalities])
    grp, single = prob.quadratic_groups
    assert single.blocks == [2] and 2 not in grp.blocks
    assert grp.kind == single.kind == "alm"
    real_alm = jacobi.equality_alm_rows

    def failing_alm(obj, eqmap, D, *args):
        out = real_alm(obj, eqmap, D, *args)
        blocks, fails = ((grp.blocks, group_fails)
                         if eqmap is grp.equality_map else ([2], single_fails))
        for i, t in enumerate(blocks):
            if t in fails:
                out[1][i] = STATUS_NUMERICAL_FAILURE
        return out

    monkeypatch.setattr(jacobi, "equality_alm_rows", failing_alm)
    calls = spy_row_solvers(monkeypatch)
    with pytest.raises(BlockSolveError) as info:
        jacobi.x_update_all(prob, acopf_state(prob, X), PARAMS)
    assert info.value.t == first
    assert info.value.status == STATUS_NUMERICAL_FAILURE
    assert routes(calls)[first] == "equality-alm"


def spy_alm(monkeypatch, cold=False):
    """Record every call of the sweep's ALM: the starting stacks (y, sigma)
    and the arrays it returned, as a list.  With ``cold``, every call
    starts cold."""
    calls = []
    real = jacobi.equality_alm_rows

    def spying(obj, eqmap, D, X, lo, hi, y, sigma, *args):
        if cold:
            y, sigma = subsolver.alm_cold_start(*D.shape)
        res = real(obj, eqmap, D, X, lo, hi, y, sigma, *args)
        calls.append((y.copy(), sigma.copy(), res))
        return res

    monkeypatch.setattr(jacobi, "equality_alm_rows", spying)
    return calls


@pytest.fixture(scope="module")
def acopf12_runs():
    """The adaptive runs of the 12-period ACOPF toy with the ALM warm
    started, as the sweep does it, and with every ALM call started cold:
    {"warm": trace, "cold": trace}."""
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=12), 12)
    cfg = tuner.TunerConfig(eps=1e-3)
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for mode in ("warm", "cold"):
            if mode == "cold":
                spy_alm(mp, cold=True)
            _, trace, reason = tuner.run_adaptive(
                prob, cfg, tuner.make_initial_state(
                    prob, cfg, *default_start(prob)),
                RunConfig(record_timings=False))
            assert reason == jacobi.TERMINATION_FEASIBLE
            runs[mode] = trace
    return runs


def test_alm_first_sweep_is_the_cold_start(acopf12_runs):
    # the first sweep starts every ALM row cold, so its record is the
    # cold-started run's, bit for bit
    warm, cold = acopf12_runs["warm"], acopf12_runs["cold"]
    assert trace_csv_text(warm[:1]) == trace_csv_text(cold[:1])
    assert warm[0].inner_iters == cold[0].inner_iters


def test_alm_warm_start_cuts_inner_iterations(acopf12_runs):
    # from the second sweep on, the warm-started rows need fewer inner
    # iterations than the first sweep did, and than the cold-started
    # sweeps do
    warm, cold = acopf12_runs["warm"], acopf12_runs["cold"]
    first = warm[0].inner_iters_total
    assert all(rec.inner_iters_total < first for rec in warm[1:])
    assert sum(r.inner_iters_total for r in warm[1:]) < sum(
        r.inner_iters_total for r in cold[1:len(warm)])


def test_alm_rows_resume_only_from_converged_solves(monkeypatch):
    # spying on the sweep's ALM: each sweep after the first starts a row
    # from the multipliers and penalty its last solve returned when that
    # solve converged, and cold otherwise.  Block 3 demands a load no point
    # of its box meets and never converges
    prob, _, _, _, X = acopf_rows(early=None, bad=None)
    calls = spy_alm(monkeypatch)
    run(prob, PARAMS, acopf_state(prob, X),
        RunConfig(record_timings=False, max_iters=4))
    assert len(calls) == 4
    y0, s0 = subsolver.alm_cold_start(*calls[0][0].shape)
    assert np.array_equal(calls[0][0], y0)
    assert np.array_equal(calls[0][1], s0)
    resumed = 0
    for (_, _, before), (y, sigma, _) in zip(calls, calls[1:]):
        _, status, _, _, mu, sigma_end = before
        assert status[3] != STATUS_CONVERGED
        for i in range(len(status)):
            if status[i] == STATUS_CONVERGED:
                assert np.array_equal(y[i], mu[i])
                assert sigma[i] == sigma_end[i]
                resumed += mu[i].any()
            else:
                assert np.array_equal(y[i], y0[i])
                assert sigma[i] == s0[i]
    assert resumed >= 3 * (prob.T - 1)


def test_alm_warm_starts_worker_counts_bitwise():
    # two alm groups of different sizes (block 2 has its own admittance
    # row), each warm started from its own stacks: the runs agree bit for
    # bit at every worker count, and the iterate ends with one pair of
    # stacks per group, in group order
    prob, _, _, _, X = acopf_rows(early=None, capped=None, bad=None)
    prob = replace_equalities(prob, 2, [
        PolarBalance(eq.name, dict(eq.payload, y_diag_im=eq.y_diag_im + 1.0))
        for eq in prob.blocks[2].set.equalities])
    grp, single = prob.quadratic_groups
    runs = []
    for workers in (0, 2):
        state, trace, _ = run(prob, PARAMS, acopf_state(prob, X),
                              RunConfig(record_timings=False, max_iters=4,
                                        workers=workers))
        runs.append((trace_csv_text(trace), state.x.tobytes(),
                     [(y.tobytes(), s.tobytes()) for y, s in state.alm]))
    assert runs[0] == runs[1]
    assert [y.shape for y, _ in state.alm] == [grp.d.shape, single.d.shape]

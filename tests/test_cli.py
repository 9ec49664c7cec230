"""End-to-end tests of the command-line interface and its exit codes."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from proxjacobi import auglag, cli, jacobi, problems
from proxjacobi.algebra import spectral_norms
from proxjacobi.cli import (EXIT_IO, EXIT_ITERATION_CAP, EXIT_NUMERICAL,
                            EXIT_OK, main)
from proxjacobi.model import (BlockSpec, ConstraintSet, Params, Problem,
                              Quadratic, save_problem)

from conftest import build_qp, mixed_problem

# One concave unconstrained block, unbounded below under unit parameters
# (the Theorem-1 ones would make its subproblem convex): the first sweep
# fails it.
CONCAVE_BLOCK = {
    "m": 1, "b": [1.0],
    "blocks": [{
        "n": 1,
        "objective": {"type": "quadratic", "Q": [[0, 0, -100.0]],
                      "c": [0.0]},
        "bounds": {"lower": ["-inf"], "upper": ["inf"]},
        "A": [[0, 0, 1.0]],
    }],
}


@pytest.fixture
def qp_file(tmp_path):
    prob, _ = build_qp(0)
    path = tmp_path / "qp.json"
    path.write_text(save_problem(prob))
    return path


class TestValidate:
    def test_ok(self, qp_file, capsys):
        # its unbounded blocks hold the bound strings "inf" and "-inf"
        assert main(["validate", str(qp_file)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["validate", str(path)]) == EXIT_IO

    def test_rank_deficient(self, tmp_path, capsys):
        doc = {
            "m": 2, "b": [0.0, 0.0],
            "blocks": [{
                "n": 2,
                "objective": {"type": "quadratic",
                              "Q": [[0, 0, 1.0], [1, 1, 1.0]],
                              "c": [0.0, 0.0]},
                "bounds": {"lower": ["-inf", "-inf"],
                           "upper": ["inf", "inf"]},
                "A": [[0, 0, 1.0], [1, 0, 1.0]],
            }],
        }
        path = tmp_path / "rankdef.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_IO
        assert "rank" in capsys.readouterr().out


@pytest.mark.parametrize("eq, key, value, message", [
    (3, "v_offset", 100, "v_offset 100 out of range"),
    (3, "gen_coords", [42], "gen_coords [42] out of range"),
    (2, "neighbors", [5], "neighbors [5] out of range"),
    (2, "y_im", [], "y_re, y_im and neighbors differ in length"),
    (3, "y_diag_im", 0.5, "admittance row of bus 1 differs from equality 2"),
])
def test_malformed_polar_payload(tmp_path, capsys, eq, key, value, message):
    # both commands refuse the file with a message naming the block and the
    # equality, and solve writes no trace
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=2, T=3), 3)
    doc = json.loads(save_problem(prob))
    doc["blocks"][1]["equalities"][eq]["payload"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    where = f"block 1: equality {eq}"
    assert main(["validate", str(path)]) == EXIT_IO
    out = capsys.readouterr().out
    assert where in out and message in out
    trc = tmp_path / "trace.csv"
    assert main(["solve", str(path), "--trace", str(trc)]) == EXIT_IO
    err = capsys.readouterr().err
    assert where in err and message in err
    assert not trc.exists()


def _malform(doc, case):
    """Give one field of ``doc`` a value of the wrong type, or a NaN; returns
    the path the error must name."""
    blk = doc["blocks"][0]
    if case == "m":
        doc["m"] = "x"
        return "m"
    if case == "block":
        doc["blocks"] = [5]
        return "blocks[0]"
    if case == "c0":
        blk["objective"]["c0"] = "a"
        return "blocks[0].objective.c0"
    if case == "nan A":
        blk["A"][0][2] = float("nan")
        return "blocks[0].A"
    blk["bounds"]["lower"] = 5
    return "blocks[0].bounds.lower"


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", ["m", "block", "c0", "bounds", "nan A"])
def test_malformed_document_is_schema_error(qp_file, tmp_path, capsys,
                                            command, case):
    # a wrongly typed field, or a value that is not finite, ends in one
    # error line naming it, not a crash
    doc = json.loads(qp_file.read_text())
    where = _malform(doc, case)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and f"{where}: " in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("where, value", [
    ("m", 1.5), ("blocks[1].n", 1.9), ("blocks[1].n", True),
    ("blocks[1].n", "1"), ("blocks[1].A", 0.7),
    ("blocks[1].objective.Q", 0.7),
    *((f"blocks[1].equalities[2].payload.{key}", value) for key, value in [
        ("bus", 1.5), ("nbus", True), ("gen_coords", [0.5]),
        ("v_offset", "2"), ("theta_offset", 1.5), ("neighbors", [1.5])]),
])
def test_non_integral_integer_field_is_schema_error(tmp_path, capsys, where,
                                                    value):
    # an integer field that holds a fraction, a bool or a string ends in
    # one error line naming it; it is not truncated to an integer
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=2, T=3), 3)
    doc = json.loads(save_problem(prob))
    blk = doc["blocks"][1]
    if where == "m":
        doc["m"] = value
    elif where.endswith(".n"):
        blk["n"] = value
    elif where.endswith(".A"):
        blk["A"][0][1] = value          # a column index
    elif where.endswith(".Q"):
        blk["objective"]["Q"][0][0] = value     # a row index
    else:
        blk["equalities"][2]["payload"][where.rsplit(".", 1)[1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["mixed", "dispatch", "acopf"])
def test_block_violation_inf_is_worst_block(case):
    # the batched violation of the solution JSON is the largest
    # ConstraintSet.violation of any block: unbounded, boxed, linear
    # equality and polar balance blocks
    prob = {"mixed": mixed_problem,
            "dispatch": lambda: problems.gen_multiperiod_dispatch(5, 3, 0.2),
            "acopf": lambda: problems.gen_acopf_toy(
                problems.toy_network(nbus=3, T=4), 4)}[case]()
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal(sum(prob.dims))
        assert cli.block_violation_inf(prob, x) == max(
            blk.set.violation(xt)
            for blk, xt in zip(prob.blocks, prob.split(x)))


@pytest.mark.parametrize("where, value", [
    ("blocks[1].A", True), ("blocks[1].A", "0"),
    ("blocks[1].objective.c", "0.5"), ("blocks[1].objective.c0", "0.5"),
    ("blocks[1].equalities[2].payload.load", "0.5"),
    ("blocks[1].bounds.lower", "0"), ("b", True),
])
def test_non_number_in_number_field_is_schema_error(tmp_path, capsys, where,
                                                    value):
    # a bool, or a string that spells a number, in a number field ends in
    # one error line naming it; it is not converted to a number
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=2, T=3), 3)
    doc = json.loads(save_problem(prob))
    blk = doc["blocks"][1]
    if where == "b":
        doc["b"][0] = value
    elif where.endswith(".A"):
        blk["A"][0][1] = value          # a column index
    elif where.endswith(".c"):
        blk["objective"]["c"][0] = value
    elif where.endswith(".c0"):
        blk["objective"]["c0"] = value
    elif where.endswith(".load"):
        blk["equalities"][2]["payload"]["load"] = value
    else:
        blk["bounds"]["lower"][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: ")
    assert "Traceback" not in err


class TestGenerate:
    def test_coupled_qp_with_oracle(self, tmp_path):
        out = tmp_path / "p.json"
        orc = tmp_path / "o.json"
        code = main(["generate", "coupled-qp", "--out", str(out),
                     "--oracle", str(orc), "--seed", "3",
                     "--blocks", "3", "--n-t", "2", "--m", "2"])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK
        doc = json.loads(orc.read_text())
        assert doc["provenance"] == "kkt-linear-solve"
        assert len(doc["x_star"]) == 3

    def test_dispatch(self, tmp_path):
        out = tmp_path / "d.json"
        code = main(["generate", "dispatch", "--out", str(out),
                     "--periods", "4", "--generators", "2",
                     "--ramp-frac", "0.2"])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_dispatch_without_applicable_oracle(self, tmp_path, capsys,
                                                monkeypatch, with_oracle):
        # a failed oracle QP still writes the problem, with a note under
        # --oracle and no oracle file; without --oracle none is computed
        monkeypatch.setattr(problems, "solve_box_qp",
                            lambda H, g, C, d, *a, **k: (
                                0.0 * g, 0.0 * d, np.zeros(len(g), int)))
        calls = []
        oracle = problems.kkt_reference_solve
        monkeypatch.setattr(problems, "kkt_reference_solve",
                            lambda p: calls.append(p) or oracle(p))
        for kind in ("dispatch", "coupled-qp"):
            out = tmp_path / f"{kind}.json"
            orc = tmp_path / f"{kind}-oracle.json"
            argv = ["generate", kind, "--out", str(out)]
            if with_oracle:
                argv += ["--oracle", str(orc)]
            calls.clear()
            assert main(argv) == EXIT_OK
            assert len(calls) == with_oracle
            assert ("no certified KKT point" in capsys.readouterr().err) \
                == with_oracle
            assert main(["validate", str(out)]) == EXIT_OK
            assert not orc.exists()

    def test_dispatch_oracle_with_active_bound(self, tmp_path):
        # bounds are active at the 24 x 4 optimum; the oracle still applies
        # and an adaptive solve stops feasible next to it
        out, orc, sol = (tmp_path / name for name in
                         ("d.json", "o.json", "s.json"))
        assert main(["generate", "dispatch", "--out", str(out),
                     "--periods", "24", "--generators", "4",
                     "--oracle", str(orc)]) == EXIT_OK
        x_star = json.loads(orc.read_text())["x_star"]
        assert main(["solve", str(out), "--eps", "1e-6",
                     "--solution", str(sol)]) == EXIT_OK
        doc = json.loads(sol.read_text())
        assert doc["termination"] == jacobi.TERMINATION_FEASIBLE
        err = max(abs(a - b) for xt, xs in zip(doc["x"], x_star)
                  for a, b in zip(xt, xs))
        assert err <= 1e-5

    def test_acopf_toy(self, tmp_path):
        out = tmp_path / "a.json"
        code = main(["generate", "acopf-toy", "--out", str(out),
                     "--buses", "2", "--periods", "3"])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK

    def test_acopf_toy_past_24_periods(self, tmp_path):
        out = tmp_path / "a48.json"
        assert main(["generate", "acopf-toy", "--out", str(out),
                     "--buses", "3", "--periods", "48"]) == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK
        assert len(json.loads(out.read_text())["blocks"]) == 48

    def test_split_requires_input(self, tmp_path, capsys):
        code = main(["generate", "split", "--out", str(tmp_path / "s.json")])
        assert code == EXIT_IO

    def test_split_round_trip(self, tmp_path, qp_file):
        out = tmp_path / "s.json"
        code = main(["generate", "split", "--out", str(out),
                     "--input", str(qp_file)])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK

    def test_generate_rejects_bad_shape(self, tmp_path):
        # m larger than the variable count cannot be full row rank
        code = main(["generate", "coupled-qp", "--out",
                     str(tmp_path / "x.json"), "--blocks", "2", "--n-t", "2",
                     "--m", "9"])
        assert code == EXIT_IO


class TestSolve:
    def test_adaptive_feasible(self, qp_file, tmp_path):
        sol = tmp_path / "sol.json"
        trc = tmp_path / "trace.csv"
        code = main(["solve", str(qp_file), "--eps", "1e-5",
                     "--solution", str(sol), "--trace", str(trc),
                     "--no-timings"])
        assert code == EXIT_OK
        doc = json.loads(sol.read_text())
        assert doc["termination"] == "feasible-stop"
        assert doc["residuals"]["coupling_inf"] <= 1e-5
        prob, oracle = build_qp(0)
        for xt, xs in zip(doc["x"], prob.split(oracle.x_star)):
            assert np.allclose(xt, xs, atol=1e-3)

    def test_iteration_cap_exit(self, qp_file):
        code = main(["solve", str(qp_file), "--eps", "1e-8",
                     "--max-iters", "3"])
        assert code == EXIT_ITERATION_CAP

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "-1"], "--workers must be nonnegative"),
        (["--max-iters", "0"], "max_outer (--max-iters) must be at least 1"),
        (["--max-iters", "-3", "--fixed-params"],
         "max_outer (--max-iters) must be at least 1"),
        (["--eps", "-1"], "eps must lie in (0, 1)"),
        (["--fixed-params", "--rho", "0"],
         "penalty parameters must be positive"),
        (["--fixed-params", "--tau-z", "-1"],
         "proximal weights must be nonnegative"),
        (["--fixed-params", "--rho", "nan"],
         "penalty parameters and proximal weights must be finite")],
        ids=["workers", "max-iters-zero", "max-iters-negative", "eps",
             "fixed-rho-zero", "fixed-tau-z-negative", "fixed-rho-nan"])
    def test_out_of_range_budget_rejected(self, qp_file, tmp_path, capsys,
                                          flags, message):
        # an out-of-range budget is one error line and exit 1, before any
        # trace file is opened
        trc = tmp_path / "trace.csv"
        code = main(["solve", str(qp_file), "--trace", str(trc), *flags])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not trc.exists()

    def test_config_iteration_cap_rejected(self, qp_file, tmp_path, capsys):
        cfgf = tmp_path / "tuner.cfg"
        cfgf.write_text("max_outer = 0\n")
        assert main(["solve", str(qp_file), "--config", str(cfgf)]) == EXIT_IO
        assert "max_outer" in capsys.readouterr().err

    def test_fixed_params(self, qp_file, tmp_path):
        trc = tmp_path / "trace.csv"
        code = main(["solve", str(qp_file), "--fixed-params",
                     "--rho", "1.0", "--theta", "1e6", "--tau-x", "2.0",
                     "--tau-z", "0.1", "--eps", "1e-4", "--max-iters", "2000",
                     "--trace", str(trc), "--no-timings"])
        assert code in (EXIT_OK, EXIT_ITERATION_CAP)
        with open(trc, newline="") as fh:
            records = jacobi.read_trace_csv(fh)
        assert all(r.rho == 1.0 and r.theta == 1e6 for r in records)

    def test_config_file(self, qp_file, tmp_path):
        cfgf = tmp_path / "tuner.cfg"
        cfgf.write_text("rho0 = 1e-2\n# comment\nomega = 16\n")
        code = main(["solve", str(qp_file), "--eps", "1e-5",
                     "--config", str(cfgf)])
        assert code == EXIT_OK
        # tuner keys other than eps and the iteration cap have no flags
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(qp_file), "--omega", "16"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_config_nonfinite_value_rejected(self, qp_file, tmp_path, capsys,
                                             value):
        cfgf = tmp_path / "tuner.cfg"
        cfgf.write_text(f"rho0 = {value}\n")
        assert main(["solve", str(qp_file), "--config", str(cfgf)]) == EXIT_IO
        assert capsys.readouterr().err == "error: rho0 must be finite\n"

    def test_bad_config(self, qp_file, tmp_path):
        cfgf = tmp_path / "tuner.cfg"
        cfgf.write_text("nonsense = 1\n")
        assert main(["solve", str(qp_file), "--config", str(cfgf)]) == EXIT_IO

    def test_trace_streamed_before_a_crash(self, qp_file, tmp_path,
                                           monkeypatch):
        # a solve that dies in its third sweep leaves the header and the
        # rows of its two finished iterations (the blocks of qp_file form
        # one quadratic group: one batched step per sweep)
        steps = []
        real = jacobi.solve_quadratic_exact

        def dying(H, H_inv, g):
            steps.append(len(g))
            if len(steps) > 2:
                raise RuntimeError("block solver crashed")
            return real(H, H_inv, g)

        monkeypatch.setattr(jacobi, "solve_quadratic_exact", dying)
        trc = tmp_path / "trace.csv"
        with pytest.raises(RuntimeError, match="crashed"):
            main(["solve", str(qp_file), "--trace", str(trc),
                  "--no-timings"])
        lines = trc.read_text().splitlines()
        assert lines[0].split(",") == jacobi.TRACE_COLUMNS
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    @pytest.mark.parametrize("mode", [
        [], ["--fixed-params", "--rho", "1", "--theta", "1", "--tau-x", "1",
             "--tau-z", "1"]], ids=["adaptive", "fixed"])
    def test_numerical_failure_exit(self, tmp_path, capsys, mode):
        # the first sweep fails the concave block (CONCAVE_BLOCK), and both
        # modes report it the same way
        path = tmp_path / "concave.json"
        path.write_text(json.dumps(CONCAVE_BLOCK))
        trc, sol = tmp_path / "trace.csv", tmp_path / "sol.json"
        code = main(["solve", str(path), "--eps", "1e-4", "--max-iters", "50",
                     "--trace", str(trc), "--solution", str(sol), *mode])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "error: block 0 failed: numerical-failure"]
        assert trc.read_text().splitlines() == [",".join(jacobi.TRACE_COLUMNS)]
        doc = json.loads(sol.read_text())
        assert doc["termination"] == jacobi.TERMINATION_BLOCK_FAILURE
        assert doc["iterations"] == 0

    @pytest.mark.parametrize("T, k", [(1, 1), (3, 4)])
    def test_stop_after_unconverged_sweep(self, tmp_path, T, k):
        # a 2-bus ACOPF whose load exceeds its generator's limit meets the
        # coupling test at iteration k while its block solves stall: the
        # stop is not feasible, and the run exits as a numerical failure.
        # The solution counts the stalled blocks of the last sweep, and its
        # blocks miss their balances
        prob = problems.gen_acopf_toy(
            problems.toy_network(nbus=2, T=T, load_base=2.5), T)
        path, sol = tmp_path / "p.json", tmp_path / "s.json"
        path.write_text(save_problem(prob))
        assert main(["solve", str(path), "--eps", "1e-3",
                     "--solution", str(sol)]) == EXIT_NUMERICAL
        doc = json.loads(sol.read_text())
        assert doc["termination"] == jacobi.TERMINATION_UNCONVERGED
        assert doc["iterations"] == k
        assert doc["unconverged"] == T
        assert doc["block_violation_inf"] > 0.1

    @pytest.mark.parametrize("mode, code, termination", [
        ([], EXIT_OK, jacobi.TERMINATION_FEASIBLE),
        (["--fixed-params", "--max-iters", "30"], EXIT_ITERATION_CAP,
         jacobi.TERMINATION_ITERATION_CAP)], ids=["adaptive", "fixed"])
    def test_zero_size_block(self, tmp_path, mode, code, termination):
        # a block with n = 0 beside a one-variable block: the run ends as
        # usual, its trace passes trace-check, and the empty block's x is []
        doc = {
            "m": 1, "b": [1.0],
            "blocks": [
                {"n": 0, "objective": {"type": "quadratic", "Q": [], "c": []},
                 "bounds": {"lower": [], "upper": []}, "A": []},
                {"n": 1, "objective": {"type": "quadratic",
                                       "Q": [[0, 0, 1.0]], "c": [0.0]},
                 "bounds": {"lower": [-10.0], "upper": [10.0]},
                 "A": [[0, 0, 1.0]]},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_OK
        trc, sol = tmp_path / "trace.csv", tmp_path / "sol.json"
        assert main(["solve", str(path), "--trace", str(trc),
                     "--solution", str(sol), *mode]) == code
        doc = json.loads(sol.read_text())
        assert doc["termination"] == termination
        assert doc["x"][0] == [] and len(doc["x"][1]) == 1
        assert main(["trace-check", str(trc), str(path)]) == EXIT_OK


    def test_diverging_run_stops_at_first_non_finite(self, tmp_path,
                                                     capsys):
        # under the default tuner this run diverges: phi overflows to inf
        # at k = 445, and the run stops right after that record
        out, trc, sol = (tmp_path / name for name in
                         ("q.json", "t.csv", "s.json"))
        assert main(["generate", "coupled-qp", "--seed", "2", "--blocks",
                     "128", "--n-t", "10", "--m", "8",
                     "--out", str(out)]) == EXIT_OK
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["solve", str(out), "--eps", "1e-6", "--max-iters",
                         "3000", "--trace", str(trc), "--solution", str(sol),
                         "--no-timings"])
        assert code == EXIT_NUMERICAL
        rows = jacobi.read_trace_csv(io.StringIO(trc.read_text()))
        assert len(rows) == 445 and rows[-1].k == 445
        assert not np.isfinite(rows[-1].phi)
        assert all(rec.finite for rec in rows[:-1])
        doc = json.loads(sol.read_text())
        assert doc["termination"] == jacobi.TERMINATION_NON_FINITE
        assert doc["iterations"] == 445

    def test_fixed_params_non_finite_exit(self, qp_file, tmp_path,
                                          monkeypatch):
        # record 3's phi is NaN: the fixed-parameter run stops right after
        # it and ends like an adaptive one, with exit 3 and its trace rows
        real = jacobi.iterate

        def spoiled(*args, **kwargs):
            rec = real(*args, **kwargs)
            if rec.k == 3:
                rec.phi = np.nan
            return rec

        monkeypatch.setattr(jacobi, "iterate", spoiled)
        trc, sol = tmp_path / "trace.csv", tmp_path / "sol.json"
        assert main(["solve", str(qp_file), "--fixed-params",
                     "--max-iters", "50", "--trace", str(trc),
                     "--solution", str(sol), "--no-timings"]) \
            == EXIT_NUMERICAL
        doc = json.loads(sol.read_text())
        assert doc["termination"] == jacobi.TERMINATION_NON_FINITE
        assert doc["iterations"] == 3
        assert len(jacobi.read_trace_csv(io.StringIO(trc.read_text()))) == 3


@pytest.mark.parametrize("case", ["solution", "out", "oracle"])
def test_unwritable_output_is_one_error_line(qp_file, tmp_path, capsys,
                                             monkeypatch, case):
    # an output path in a missing directory ends in one error line naming
    # it and exit 1 before any work: no run, no oracle, and no other
    # output file left behind
    bad = tmp_path / "missing" / "f.json"
    good = tmp_path / "good.out"
    work = []
    monkeypatch.setattr(jacobi, "run", lambda *a: work.append("run"))
    monkeypatch.setattr(problems, "kkt_reference_solve",
                        lambda p: work.append("oracle"))
    argv = {
        "solution": ["solve", str(qp_file), "--trace", str(good),
                     "--solution", str(bad)],
        "out": ["generate", "dispatch", "--out", str(bad)],
        "oracle": ["generate", "coupled-qp", "--out", str(good),
                   "--oracle", str(bad)],
    }[case]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: {bad}: {os.strerror(errno.ENOENT)}"]
    assert "Traceback" not in err
    assert work == [] and not good.exists()


def test_outputs_that_existed_before_are_kept(qp_file, tmp_path, capsys):
    # a failed open removes only what the command created: an earlier
    # trace survives, as does an oracle file when no oracle applies, and
    # an --oracle equal to --out keeps the problem just written
    trc = tmp_path / "t.csv"
    trc.write_text("earlier\n")
    assert main(["solve", str(qp_file), "--trace", str(trc),
                 "--solution", str(tmp_path / "missing" / "s.json")]) \
        == EXIT_IO
    assert trc.exists()
    out, orc = tmp_path / "a.json", tmp_path / "o.json"
    orc.write_text("earlier\n")
    toy = ["generate", "acopf-toy", "--buses", "2", "--periods", "3"]
    for oracle in (orc, out):
        assert main(toy + ["--out", str(out), "--oracle", str(oracle)]) \
            == EXIT_OK
        assert "no oracle written" in capsys.readouterr().err
        assert orc.exists()
        assert main(["validate", str(out)]) == EXIT_OK


def test_exit_codes_cover_every_termination():
    # a termination added to jacobi without an exit code fails here
    assert set(cli.EXIT_CODES) == {
        value for name, value in vars(jacobi).items()
        if name.startswith("TERMINATION_")}


class TestTraceCheck:
    def run_solve(self, tmp_path, seed=0, fixed=False, eps="1e-5"):
        prob, _ = build_qp(seed)
        pfile = tmp_path / f"p{seed}.json"
        pfile.write_text(save_problem(prob))
        trc = tmp_path / f"t{seed}.csv"
        argv = ["solve", str(pfile), "--eps", eps, "--trace", str(trc),
                "--no-timings"]
        if fixed:
            argv += ["--fixed-params", "--max-iters", "300"]
        main(argv)
        return pfile, trc

    def test_adaptive_round_trip(self, tmp_path, capsys):
        pfile, trc = self.run_solve(tmp_path)
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "identity" in out

    def test_fixed_params_round_trip(self, tmp_path, capsys):
        # conservative parameters: feasible eta, so monotonicity and the
        # bound-existence property are actually exercised
        pfile, trc = self.run_solve(tmp_path, seed=3, fixed=True, eps="1e-2")
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS  lyapunov monotonicity" in out
        assert "PASS  bound existence" in out

    def test_old_header_trace_passes(self, tmp_path, capsys):
        # a trace written before the t_metrics_ms column still reads and
        # passes every check
        pfile, trc = self.run_solve(tmp_path, seed=3, fixed=True, eps="1e-2")
        lines = trc.read_text().splitlines()
        assert lines[0].split(",") == jacobi.TRACE_COLUMNS
        trc.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                               for line in lines))
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS  lyapunov monotonicity" in out
        assert "PASS  bound existence" in out

    @pytest.mark.parametrize("workers", [0, 2])
    def test_warm_started_acopf_round_trip(self, tmp_path, workers):
        # the replay starts every ALM row cold, as the solve does, and
        # follows the solve's warm starts, at any worker count
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=12), 12)
        pfile = tmp_path / "acopf.json"
        pfile.write_text(save_problem(prob))
        trc = tmp_path / "trace.csv"
        assert main(["solve", str(pfile), "--eps", "1e-3", "--trace",
                     str(trc), "--no-timings", "--workers",
                     str(workers)]) == EXIT_OK
        with open(trc, newline="") as fh:
            inner = [rec.inner_iters_total
                     for rec in jacobi.read_trace_csv(fh)]
        assert len(inner) >= 2 and max(inner[1:]) < inner[0]
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK

    def test_fixed_params_dispatch_bound_checked(self, tmp_path, capsys):
        # the lower bound pins each dispatch block's ramp slacks, which
        # have no cost and no block equality, so the bound is checked
        # (before, it was skipped: no lower-bound oracle)
        pfile, trc = tmp_path / "p.json", tmp_path / "t.csv"
        pfile.write_text(save_problem(
            problems.gen_multiperiod_dispatch(4, 2, 0.1)))
        assert main(["solve", str(pfile), "--fixed-params", "--eps", "1e-3",
                     "--max-iters", "50", "--trace", str(trc),
                     "--no-timings"]) == EXIT_ITERATION_CAP
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS  lyapunov monotonicity" in out
        assert "PASS  bound existence" in out

    def test_problem_mismatch(self, tmp_path):
        pfile, trc = self.run_solve(tmp_path, seed=0)
        other, _ = build_qp(1)
        ofile = tmp_path / "other.json"
        ofile.write_text(save_problem(other))
        assert main(["trace-check", str(trc), str(ofile)]) == EXIT_IO

    def test_invalid_problem_is_reported(self, tmp_path, capsys):
        # a problem that loads but fails validation gets the errors that
        # solve prints and exit 1, before the trace is replayed
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.1)
        pfile, trc = tmp_path / "p.json", tmp_path / "t.csv"
        pfile.write_text(save_problem(prob))
        main(["solve", str(pfile), "--trace", str(trc), "--no-timings",
              "--max-iters", "3"])
        doc = json.loads(pfile.read_text())
        doc["blocks"][0]["objective"]["c"].pop()
        pfile.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", str(pfile)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == "error: block 0: objective dimension 3 != n=4\n"
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_IO
        assert capsys.readouterr() == ("", err)

    def test_replay_failure_exit(self, tmp_path, capsys):
        # a one-record trace with unit parameters on the concave block: the
        # replay's first sweep fails it, reported in one line, exit 3
        pfile, trc = tmp_path / "concave.json", tmp_path / "t.csv"
        pfile.write_text(json.dumps(CONCAVE_BLOCK))
        with open(trc, "w", newline="") as fh:
            jacobi.write_trace_csv([jacobi.TraceRecord(
                k=1, phi=0.0, dphi=0.0, coupling_inf=0.0, p_inf=0.0,
                d_inf=0.0, pi=0.0, delta_max=0.0, rho=1.0, theta=1.0,
                tau_x=1.0, tau_z=1.0, t_xupd_ms=0.0, t_zupd_ms=0.0,
                inner_iters_total=0)], fh)
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "error: replay failed at block 0: numerical-failure"]

    def test_truncated_trace(self, tmp_path):
        pfile, trc = self.run_solve(tmp_path)
        lines = trc.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 2)[0]
        trc.write_text("\n".join(lines) + "\n")
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_IO

    def test_doctored_trace_fails_property(self, tmp_path):
        # forge an ascent in a feasible-eta trace: replay succeeds (phi
        # matches) but the doctored dphi column trips the monotonicity check
        pfile, trc = self.run_solve(tmp_path, seed=3, fixed=True, eps="1e-2")
        with open(trc, newline="") as fh:
            records = jacobi.read_trace_csv(fh)
        records[5].dphi = abs(records[5].dphi) + 1.0
        with open(trc, "w", newline="") as fh:
            jacobi.write_trace_csv(records, fh)
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_ITERATION_CAP


def _read_trace(path):
    with open(path, newline="") as fh:
        return jacobi.read_trace_csv(fh)


def eager_bound_check(problem, records):
    """The bound-existence verdict and detail as ``trace-check`` made them
    when it replayed by ``jacobi.iterate``: the block dual residuals of
    every iteration, from its record's ``delta``."""
    params = [Params(rho=r.rho, theta=r.theta, tau_x=r.tau_x,
                     tau_z=r.tau_z) for r in records]
    state = jacobi.init_state(problem, *cli.default_start(problem), params[0])
    config = jacobi.RunConfig(record_timings=False)
    deltas = [jacobi.iterate(problem, state, p, config).delta
              for p in params]
    pi_bound, delta_bounds = auglag.theorem1_bounds(
        records[0].phi, problems.separable_lower_bound(problem),
        records[-1].phi, len(records), params[0],
        spectral_norms(problem), problem.T)
    ok = any(rec.pi <= pi_bound
             and all(d <= db for d, db in zip(delta, delta_bounds))
             for rec, delta in zip(records, deltas))
    return ("bound existence", "pass" if ok else "fail",
            f"pi bound {pi_bound:.3e}")


class TestLeanReplay:
    @staticmethod
    def spy(monkeypatch, name, calls):
        real = getattr(auglag, name)

        def spied(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)
        monkeypatch.setattr(auglag, name, spied)

    @pytest.fixture
    def fixed_qp(self, tmp_path):
        # a constant-parameter, feasible-eta coupled-qp trace whose bound
        # check passes
        prob, _ = build_qp(3)
        pfile, trc = tmp_path / "p.json", tmp_path / "t.csv"
        pfile.write_text(save_problem(prob))
        main(["solve", str(pfile), "--fixed-params", "--eps", "1e-2",
              "--max-iters", "300", "--trace", str(trc), "--no-timings"])
        return prob, _read_trace(trc), pfile, trc

    def test_adaptive_trace_check_computes_no_residual(self, tmp_path,
                                                        monkeypatch):
        # an adaptive trace skips the bound check: the replay and the
        # other checks need neither the penalty nor the dual residuals
        pfile, trc = tmp_path / "p.json", tmp_path / "t.csv"
        pfile.write_text(save_problem(
            problems.gen_multiperiod_dispatch(6, 3, 0.1)))
        assert main(["solve", str(pfile), "--eps", "1e-6", "--trace",
                     str(trc), "--no-timings"]) == EXIT_OK
        calls = []
        for name in ("penalty_residuals", "dual_residuals"):
            self.spy(monkeypatch, name, calls)
        assert main(["trace-check", str(trc), str(pfile)]) == EXIT_OK
        assert len(_read_trace(trc)) > 2 and calls == []

    def test_dual_residuals_stop_at_first_bounded_iteration(
            self, fixed_qp, monkeypatch):
        # the residuals are computed in order, at the iterations whose pi
        # is within its bound, up to the first that meets every bound
        prob, records, _, _ = fixed_qp
        states = cli.replay_trace(prob, records)
        params = [Params(rho=r.rho, theta=r.theta, tau_x=r.tau_x,
                         tau_z=r.tau_z) for r in records]
        pi_bound, delta_bounds = auglag.theorem1_bounds(
            records[0].phi, problems.separable_lower_bound(prob),
            records[-1].phi, len(records), params[0],
            spectral_norms(prob), prob.T)
        met = [rec.pi <= pi_bound
               and all(d <= db for d, db in zip(
                   auglag.dual_residuals(prob, s), delta_bounds))
               for rec, s in zip(records, states)]
        first = met.index(True)
        assert first < len(records) - 1
        calls = []
        self.spy(monkeypatch, "dual_residuals", calls)
        report = cli.TraceCheckReport()
        cli._check_theorem_bounds(prob, records, states, params, report)
        assert report.results[0][1] == "pass"
        examined = [j for j in range(first + 1) if records[j].pi <= pi_bound]
        assert len(calls) == len(examined)
        for (_, args), j in zip(calls, examined):
            assert args[1] is states[j]

    def test_bound_check_makes_no_objective_product(self, fixed_qp,
                                                    monkeypatch):
        # a replayed snapshot keeps the products of its iterate, so the
        # dual residuals of the bound check read its Qx and make none
        prob, records, _, _ = fixed_qp
        states = cli.replay_trace(prob, records)
        params = [Params(rho=r.rho, theta=r.theta, tau_x=r.tau_x,
                         tau_z=r.tau_z) for r in records]
        calls = []
        self.spy(monkeypatch, "dual_residuals", calls)
        real = Problem.objective_products

        def counted(self, vec):
            calls.append(("objective_products", vec))
            return real(self, vec)
        monkeypatch.setattr(Problem, "objective_products", counted)
        report = cli.TraceCheckReport()
        cli._check_theorem_bounds(prob, records, states, params, report)
        assert report.results[0][1] == "pass"
        assert calls and {name for name, _ in calls} == {"dual_residuals"}

    @pytest.mark.parametrize("bounds", ["theorem", "zero delta", "zero"])
    def test_verdict_equals_eager_reference(self, fixed_qp, monkeypatch,
                                            capsys, bounds):
        # the lazy check gives the verdict and detail of the check that
        # computed every iteration's residuals, on a passing trace and on
        # one that fails because its bounds are zero
        prob, records, pfile, trc = fixed_qp
        if bounds != "theorem":
            real = auglag.theorem1_bounds

            def zero(*args):
                pi_bound, delta_bounds = real(*args)
                return (0.0 if bounds == "zero" else pi_bound,
                        [0.0] * len(delta_bounds))
            monkeypatch.setattr(auglag, "theorem1_bounds", zero)
        expected = eager_bound_check(prob, records)
        assert expected[1] == ("pass" if bounds == "theorem" else "fail")
        capsys.readouterr()
        code = main(["trace-check", str(trc), str(pfile)])
        assert code == (EXIT_OK if bounds == "theorem" else
                        EXIT_ITERATION_CAP)
        name, outcome, detail = expected
        assert (f"{outcome.upper():5s} {name} ({detail})"
                in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("level", [None, "error"])
def test_stalled_solves_warn_by_default(tmp_path, level):
    # every block of this over-loaded ACOPF stalls in every sweep: its
    # warnings reach stderr by default, and none under
    # PROXJACOBI_LOG=error; either way the run stops after a sweep whose
    # blocks did not converge and exits 3.  pytest's own log handlers make
    # the CLI's logging set-up a no-op in process, so it runs in a process
    # of its own
    prob = problems.gen_acopf_toy(
        problems.toy_network(nbus=2, T=3, load_base=2.5), 3)
    pfile = tmp_path / "over.json"
    pfile.write_text(save_problem(prob))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PROXJACOBI_LOG", None)
    if level is not None:
        env["PROXJACOBI_LOG"] = level
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from proxjacobi.cli import main; sys.exit(main())",
         "solve", str(pfile), "--eps", "1e-3"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_NUMERICAL
    if level == "error":
        assert proc.stderr == ""
        return
    lines = proc.stderr.splitlines()
    assert all(line.startswith("WARNING proxjacobi: iteration ")
               and "equality-alm solve stalled" in line for line in lines)
    assert all(f"iteration 1: block {t}'s equality-alm solve stalled" in
               proc.stderr for t in range(prob.T))


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_default_start_box_midpoints():
    # both bounds: the midpoint; one bound: that bound; none: zero
    inf = np.inf
    sets = [ConstraintSet(np.array([-1.0, -inf, 2.0]),
                          np.array([4.0, 5.0, inf])),
            ConstraintSet(np.array([-inf, -0.0]), np.array([inf, inf]))]
    prob = Problem(m=1, b=np.zeros(1), blocks=[
        BlockSpec(n=cs.n, objective=Quadratic(sp.eye(cs.n, format="csr"),
                                              np.zeros(cs.n)),
                  set=cs, coupling=sp.csr_matrix(np.ones((1, cs.n))))
        for cs in sets])
    x0, z0, lam0 = cli.default_start(prob)
    x0 = prob.split(x0)
    assert [xt.tolist() for xt in x0] == [[1.5, 5.0, 2.0], [0.0, -0.0]]
    assert np.signbit(x0[1][1])
    assert z0.tolist() == lam0.tolist() == [0.0]

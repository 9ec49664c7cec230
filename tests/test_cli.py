"""End-to-end tests of the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

from proxjacobi import cli, jacobi, problems, tuner
from proxjacobi.cli import (EXIT_IO, EXIT_ITERATION_CAP, EXIT_NUMERICAL,
                            EXIT_OK, main)
from proxjacobi.model import save_problem

from conftest import build_qp


@pytest.fixture
def qp_file(tmp_path):
    prob, _ = build_qp(0)
    path = tmp_path / "qp.json"
    path.write_text(save_problem(prob))
    return path


class TestValidate:
    def test_ok(self, qp_file, capsys):
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
    """Give one field of ``doc`` a value of the wrong type; returns the
    path the error must name."""
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
    blk["bounds"]["lower"] = 5
    return "blocks[0].bounds.lower"


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case", ["m", "block", "c0", "bounds"])
def test_malformed_document_is_schema_error(qp_file, tmp_path, capsys,
                                            command, case):
    # a wrongly typed field ends in one error line naming it, not a crash
    doc = json.loads(qp_file.read_text())
    where = _malform(doc, case)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1 and f"{where}: " in lines[0]
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
        # --oracle and no oracle file
        monkeypatch.setattr(problems, "solve_box_qp", lambda *a, **k: None)
        out = tmp_path / "d.json"
        orc = tmp_path / "o.json"
        argv = ["generate", "dispatch", "--out", str(out)]
        if with_oracle:
            argv += ["--oracle", str(orc)]
        assert main(argv) == EXIT_OK
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
        assert doc["termination"] == tuner.TERMINATION_FEASIBLE
        err = max(abs(a - b) for xt, xs in zip(doc["x"], x_star)
                  for a, b in zip(xt, xs))
        assert err <= 1e-5

    def test_acopf_toy(self, tmp_path):
        out = tmp_path / "a.json"
        code = main(["generate", "acopf-toy", "--out", str(out),
                     "--buses", "2", "--periods", "3"])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK

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
        for xt, xs in zip(doc["x"], oracle.x_star):
            assert np.allclose(xt, xs, atol=1e-3)

    def test_iteration_cap_exit(self, qp_file):
        code = main(["solve", str(qp_file), "--eps", "1e-8",
                     "--max-iters", "3"])
        assert code == EXIT_ITERATION_CAP

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
        # concave unconstrained block, unbounded below under these
        # parameters (the Theorem-1 ones would make its subproblem convex):
        # the first sweep fails it, and both modes report it the same way
        doc = {
            "m": 1, "b": [1.0],
            "blocks": [{
                "n": 1,
                "objective": {"type": "quadratic", "Q": [[0, 0, -100.0]],
                              "c": [0.0]},
                "bounds": {"lower": ["-inf"], "upper": ["inf"]},
                "A": [[0, 0, 1.0]],
            }],
        }
        path = tmp_path / "concave.json"
        path.write_text(json.dumps(doc))
        trc, sol = tmp_path / "trace.csv", tmp_path / "sol.json"
        code = main(["solve", str(path), "--eps", "1e-4", "--max-iters", "50",
                     "--trace", str(trc), "--solution", str(sol), *mode])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "error: block 0 failed: numerical-failure"]
        assert trc.read_text().splitlines() == [",".join(jacobi.TRACE_COLUMNS)]
        doc = json.loads(sol.read_text())
        assert doc["termination"] == tuner.TERMINATION_BLOCK_FAILURE
        assert doc["iterations"] == 0


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

    def test_problem_mismatch(self, tmp_path):
        pfile, trc = self.run_solve(tmp_path, seed=0)
        other, _ = build_qp(1)
        ofile = tmp_path / "other.json"
        ofile.write_text(save_problem(other))
        assert main(["trace-check", str(trc), str(ofile)]) == EXIT_IO

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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

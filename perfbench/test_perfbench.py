"""Tests of the benchmark itself, on the quick (toy-size) workloads.

    python3 -m pytest -q perfbench

They show that every workload runs with all its checks passing, that the
result lines carry exactly the metrics BENCHMARK.json names, that the
per-layer times add up, that each output check rejects a perturbed output,
and that the benchmark fails without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def run_quick(name, trace, cwd=HERE.parent, seed=0):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", name, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_run():
    """(result, (problem, solution, trace)) of a workload's untraced quick
    run, made once per workload."""
    runs = {}

    def get(name):
        if name not in runs:
            res = result_of(run_quick(name, 0))
            workdir = HERE / "out" / f"{name}-seed0-trace0-quick"
            runs[name] = (res, (
                checks.read_problem(workdir / "problem.json"),
                checks.read_solution(workdir / "solution.json"),
                checks.read_trace(workdir / "trace.csv")))
        return copy.deepcopy(runs[name])
    return get


def recheck(name, prob, sol, trace):
    return checks.CHECKS[name](workloads.WORKLOADS[name], prob, sol, trace,
                               workloads.budget(name, quick=True))


@pytest.mark.parametrize("name", NAMES)
def test_quick_run_is_correct_with_end_to_end_metrics(quick_run, name):
    res, outputs = quick_run(name)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert recheck(name, *outputs) == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_adds_up(name):
    res = result_of(run_quick(name, 1))
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    selfs = sum(v["value"] for k, v in metrics.items()
                if v["unit"] == "s" and k not in ("trace.round_s",
                                                  "host.kernel_s"))
    total = metrics["trace.round_s"]["value"]
    assert selfs == pytest.approx(total, rel=1e-9)
    assert metrics["other_s"]["value"] >= 0
    assert metrics["subsolver.block_solves"]["value"] > 0
    assert 0 < metrics["subsolver.first_path_ratio"]["value"] <= 1


@pytest.mark.parametrize("name, expect", [("qp-fixed", "from the replay"),
                                          ("dispatch", "KKT optimum")])
def test_shifted_solution_is_rejected(quick_run, name, expect):
    _, (prob, sol, trace) = quick_run(name)
    sol["x"][len(sol["x"]) // 2] += 1e-3
    fails = recheck(name, prob, sol, trace)
    assert any(expect in f for f in fails), fails


def test_raised_phi_is_rejected(quick_run):
    _, (prob, sol, trace) = quick_run("qp-fixed")
    trace[3]["phi"] = trace[2]["phi"] + 1e-6 * (1.0 + abs(trace[2]["phi"]))
    fails = recheck("qp-fixed", prob, sol, trace)
    assert any("phi rises" in f for f in fails), fails
    assert any("replay gives" in f for f in fails), fails


def test_bus_balance_off_is_rejected(quick_run):
    _, (prob, sol, trace) = quick_run("acopf")
    gen = prob["blocks"][1]["eqs"][0]["payload"]["gen_coords"][0]
    sol["x"][1][gen] += 1e-4
    assert checks.bus_mismatch(prob, sol["x"]) == pytest.approx(1e-4, rel=1e-3)
    fails = recheck("acopf", prob, sol, trace)
    assert any("bus balance" in f for f in fails), fails


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_quick("qp-fixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

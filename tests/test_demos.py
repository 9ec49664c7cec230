"""Smoke test: the quick demos run to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, expected", [
    ("acopf_toy", "worst power-balance residual"),
    ("multiperiod_dispatch", "demand balance"),
    ("coupled_qp", "trace-check exit code 0"),
])
def test_demo_runs(demo, expected, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert expected in capsys.readouterr().out

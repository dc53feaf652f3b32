"""benchmarks/criteria_margin.py: the seed sweep over the acceptance criteria."""

import importlib.util
import os

import pytest


@pytest.fixture(scope="module")
def criteria_margin():
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "criteria_margin.py")
    spec = importlib.util.spec_from_file_location("criteria_margin", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wilson_interval(criteria_margin):
    lo, hi = criteria_margin.wilson(52, 100)
    assert (round(lo, 2), round(hi, 2)) == (0.42, 0.62)
    assert criteria_margin.wilson(0, 10)[0] == 0.0 and criteria_margin.wilson(10, 10)[1] == 1.0


def test_criteria_margin_script_runs(criteria_margin, capsys):
    """One seed at one era: a per-seed line, then each criterion's count and
    its Wilson interval."""
    assert criteria_margin.main(["--seeds", "1", "--eras", "1", "--first", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "kappa", "recovered", "harvested", "bank",
                                "near-binary", "c4", "c5", "time"]
    assert len(lines) == 4 and lines[1].split()[0] == "3"
    for n, line in zip((4, 5), lines[2:]):
        assert line.startswith(f"criterion {n} (") and " seeds (Wilson 95% " in line

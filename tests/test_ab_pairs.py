"""benchmarks/ab_pairs.py: the summary of alternating benchmark pairs."""

import importlib.util
import os

import pytest


@pytest.fixture(scope="module")
def ab_pairs():
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "ab_pairs.py")
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(chain_s, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"chain_s": {"value": chain_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_quartiles_interpolate_as_numpy_percentile(ab_pairs):
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_the_pairs_the_change_wins(ab_pairs):
    runs = [{"base": _result(4.2, 44.0), "change": _result(4.0, 44.1)},
            {"base": _result(4.1, 44.0), "change": _result(4.2, 43.9, failed=1)},
            {"base": _result(4.3, 44.0), "change": _result(4.0, 44.0)}]
    spec = [{"name": "chain_s", "unit": "s", "better": "lower"},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    lines = ab_pairs.summarize(runs, spec)
    assert lines[0] == "base: 3/3 runs correct, 0 of 30 operations failed"
    assert lines[1] == "change: 2/3 runs correct, 1 of 30 operations failed"
    assert lines[2].startswith("chain_s: base 4.2 [4.15, 4.25] -> change 4 [4, 4.1] s (-4.8%)")
    assert lines[2].endswith("change lower in 2/3 pairs")
    assert lines[3].endswith("change lower in 1/3 pairs")  # a tie is not a win

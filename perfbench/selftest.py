"""Tests of the benchmark itself (about two minutes on 2 CPUs).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the package's own test run from collecting it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from patternconv import corpus, curator  # noqa: E402

SEED = 5
WORKLOADS = ("pipeline", "curate_pool", "score_explain")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# spans each workload must reach; a function imported by value and left
# unpatched at its caller would show here as zero calls
SPANS = {
    "pipeline": [
        "cli.cmd_synth", "cli.cmd_train", "cli.cmd_curate", "cli.cmd_eval",
        "corpus.synth_generate", "curator.discrete_match", "corpus.write_dataset",
        "trainer.train_epoch", "corpus.Dataset.steps_array", "netcore.forward_batch",
        "netcore.backward_batch", "kernels.conv_forward_batch", "kernels.conv_backward_batch",
        "objective.regularizer_grad", "objective.regularizer_value", "objective.bce",
        "schedule.era_reset", "trainer.eval_filter_precision", "trainer.harvest_filters",
    ],
    "curate_pool": [
        "cli.cmd_curate", "corpus.load_dataset", "netcore.filters_from_json",
        "trainer.harvest_filters", "curator.binarize", "curator.dedup",
        "curator.prune_subsumed", "curator.subsumes", "curator.cumulative_kappa_curve",
        "curator.match_matrix", "kernels.match_first_window",
    ],
    "score_explain": [
        "evalmetrics.evaluate", "curator.bank_predict_batch", "curator.match_matrix",
        "kernels.match_first_window", "analysis.explain",
    ],
}


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, result file) of a one-second run."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, ".perfbench_work", "results",
                           f"{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


@pytest.fixture(scope="module", params=WORKLOADS)
def untraced(request):
    return request.param, *run_bench(request.param, 0)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, *run_bench(request.param, 1)


def test_end_to_end_metrics_present_and_correct(untraced):
    workload, line, _ = untraced
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == want
    for name, m in line["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, (workload, name)


def test_per_layer_spans_record_calls(traced):
    workload, line, doc = traced
    assert line["correct"] and line["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == want
    layers = doc["all_layers"]
    missing = [s for s in SPANS[workload] if layers.get(f"{s}.calls", 0) < 1]
    assert not missing, f"{workload}: spans never recorded: {missing}"
    # the traced funnel agrees with the one the curate command prints
    stages = ("raw", "harvested", "unique", "non_subsumed", "selected")
    traced_funnel = [layers[f"funnel.{s}"] for s in stages]
    assert traced_funnel == (doc["summary"]["funnel"] or [0] * 5)


def test_workloads_separate_the_layers(traced):
    workload, _, doc = traced
    layers = doc["all_layers"]
    conv = layers["kernels.conv_forward_batch.calls"] + layers["kernels.conv_backward_batch.calls"]
    if workload == "curate_pool":
        assert conv == 0
        assert layers["curator.prune_subsumed.s"] > 0.5 * layers["cli.cmd_curate.s"]
    if workload == "pipeline":
        assert conv > 0
        chain = sum(layers[f"cli.cmd_{c}.s"] for c in ("synth", "train", "curate", "eval"))
        assert layers["curator.prune_subsumed.s"] < 0.01 * chain
    if workload == "score_explain":
        assert conv == 0 and layers["curator.subsumes.calls"] == 0


def test_corrupted_bank_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "LOG_CLIPS", 4000)
    b = wl.Bench("score_explain", SEED, 0.5, False, str(tmp_path))
    files = wl.prepare_score_explain(b)
    with open(files["bank_path"]) as fh:
        doc = json.load(fh)
    cells = doc["patterns"][0]["cells"]
    # drop the last required cell (a context feature); dropping a submission
    # type that a context feature already implies would match the same clips
    r, j = map(int, np.argwhere(np.array(cells) == 1)[-1])
    cells[r][j] = 0
    with open(files["bank_path"], "w") as fh:
        json.dump(doc, fh)
    wl.setup_score_explain(b, files)
    wl.run_score_explain(b, files)
    assert b.failed > 0 and b.attempted > b.failed


def test_oracle_subsumption_agrees_with_package():
    vocab = corpus.FeatureVocabulary.default()
    pool, _ = inputs.unique_pool(vocab, 120, np.random.default_rng(SEED))
    pats = [curator.Pattern(cells=c.copy(), pattern_id=str(i)) for i, c in enumerate(pool)]
    for a, pa in zip(pool[:60], pats[:60]):
        for b, pb in zip(pool, pats):
            assert oracles.subsumes(a, b) == curator.subsumes(pa, pb)


def test_generated_clips_are_legal_and_labelled_by_planted_match():
    vocab = corpus.FeatureVocabulary.default()
    X, labels = inputs.clip_log(vocab, 3000, SEED)
    assert all(corpus.check_steps(x, vocab) is None for x in X)
    hit = (oracles.predict(inputs.planted_patterns(vocab), X) >= 0).any(axis=0)
    assert np.array_equal(hit, labels)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""

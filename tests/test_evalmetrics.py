"""Metric oracles: hand-computed confusion/kappa/AUC fixtures and invariances."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_legal_clip_batch, random_legal_pattern
from patternconv.corpus import Clip, Dataset, FeatureVocabulary
from patternconv.curator import PatternBank, discrete_match
from patternconv.errors import DataError
from patternconv.evalmetrics import (Confusion, accuracy, auc, confusion,
                                     evaluate, kappa, precision, recall, report,
                                     render_table)
from patternconv.netcore import forward_batch, init_state


# ----------------------------------------------------------------- confusion

def test_confusion_basic():
    c = confusion([0.9, 0.1], [1, 0])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)


def test_confusion_boundary_is_positive():
    c = confusion([0.5], [0])
    assert c.fp == 1


def test_confusion_hand_tally():
    scores = [0.9, 0.8, 0.2, 0.6, 0.4, 0.1, 0.7, 0.3, 0.55, 0.45]
    labels = [1, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    c = confusion(scores, labels)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 2, 3)
    assert c.total == 10


def test_confusion_length_mismatch():
    with pytest.raises(DataError):
        confusion([0.5], [1, 0])


# --------------------------------------------------------------------- kappa

def test_kappa_perfect():
    assert kappa(Confusion(tp=50, fp=0, tn=50, fn=0)) == pytest.approx(1.0)


def test_kappa_chance():
    assert kappa(Confusion(tp=25, fp=25, tn=25, fn=25)) == pytest.approx(0.0)


def test_kappa_hand_computed():
    # p_o = 170/200 = 0.85; p_e = 0.3*0.25 + 0.7*0.75 = 0.6
    assert kappa(Confusion(tp=40, fn=10, fp=20, tn=130)) == pytest.approx(0.625)


def test_kappa_undefined_when_expected_agreement_one():
    assert kappa(Confusion(tp=10, fp=0, tn=0, fn=0)) is None
    assert kappa(Confusion(tp=0, fp=0, tn=0, fn=0)) is None


def test_kappa_class_swap_symmetric():
    c = Confusion(tp=40, fn=10, fp=20, tn=130)
    swapped = Confusion(tp=c.tn, fn=c.fp, fp=c.fn, tn=c.tp)
    assert kappa(c) == pytest.approx(kappa(swapped))


# ----------------------------------------------------------------------- auc

def test_auc_separated():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_four_point_fixture():
    # pairs (pos, neg): (0.35,0.1)+, (0.35,0.4)-, (0.8,0.1)+, (0.8,0.4)+ -> 3/4
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_empty_class():
    assert auc([0.5, 0.6], [1, 1]) is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_auc_monotone_transform_invariant(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(20)
    labels = rng.integers(0, 2, 20)
    if labels.min() == labels.max():
        return
    assert auc(scores, labels) == pytest.approx(auc(np.exp(3 * scores), labels))


def test_auc_equals_the_pairwise_definition():
    """The per-score counts give exactly the all-pairs Mann-Whitney value on
    tie-heavy scores."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 200))
        scores = rng.integers(0, rng.integers(1, 30), n) / 7
        labels = rng.random(n) < rng.random()
        pos, neg = scores[labels], scores[~labels]
        if not pos.size or not neg.size:
            assert auc(scores, labels) is None
            continue
        greater = (pos[:, None] > neg[None, :]).sum()
        equal = (pos[:, None] == neg[None, :]).sum()
        assert auc(scores, labels) == float((greater + 0.5 * equal) / (pos.size * neg.size))


def test_auc_of_bool_scores_equals_their_float_auc():
    """A bank's bool scores are counted in their own dtype, with the same
    result as the same scores as float64: with ties, and all scores equal."""
    rng = np.random.default_rng(1)
    labels = rng.random(200) < 0.3
    for scores in (rng.random(200) < 0.4, np.zeros(200, bool), np.ones(200, bool)):
        assert auc(scores, labels) == auc(scores.astype(np.float64), labels)
    assert auc(np.ones(200, bool), labels) == 0.5


def test_report_of_bool_scores_is_bit_for_bit_their_float_report():
    """`report` of a bank's bool scores, which AUC groups by their own value
    and the confusion counts with no float scores, equals the report of the
    same scores as float64 in every field's type and float.hex: with ties,
    all scores equal, and labels of one class."""
    rng = np.random.default_rng(2)
    labels = rng.random(300) < 0.3
    cases = [(rng.random(300) < 0.4, labels), (labels, labels), (~labels, labels),
             (np.zeros(300, bool), labels), (np.ones(300, bool), labels),
             (rng.random(300) < 0.4, np.ones(300, bool)),
             (rng.random(300) < 0.4, np.zeros(300, bool)), (np.ones(1, bool), np.zeros(1, bool))]

    def bits(rep):
        return [(type(v), None if v is None else v.hex()) for v in dataclasses.astuple(rep)]

    for scores, y in cases:
        assert bits(report(scores, y)) == bits(report(scores.astype(np.float64), y))


# -------------------------------------------------- derived metrics / report

def test_accuracy_precision_recall():
    c = Confusion(tp=3, fp=1, tn=5, fn=1)
    assert accuracy(c) == pytest.approx(0.8)
    assert precision(c) == pytest.approx(0.75)
    assert recall(c) == pytest.approx(0.75)


def test_undefined_denominators_are_none():
    c = Confusion(tp=0, fp=0, tn=10, fn=0)
    assert precision(c) is None and recall(c) is None


def test_evaluate_labels_as_predictor(vocab):
    rng = np.random.default_rng(0)
    X = random_legal_clip_batch(vocab, 20, 5, rng)
    labels = rng.integers(0, 2, 20).astype(bool)
    labels[0], labels[1] = True, False
    ds = Dataset(vocabulary=vocab, clips=tuple(
        Clip(clip_id=str(i), steps=x, label=bool(l)) for i, (x, l) in enumerate(zip(X, labels))))
    rep = report(labels.astype(float), ds.labels())
    assert rep.accuracy == 1.0 and rep.kappa == pytest.approx(1.0)


def test_evaluate_constant_negative_on_imbalanced(vocab):
    rng = np.random.default_rng(1)
    X = random_legal_clip_batch(vocab, 100, 5, rng)
    labels = np.zeros(100, dtype=bool)
    labels[:6] = True
    ds = Dataset(vocabulary=vocab, clips=tuple(
        Clip(clip_id=str(i), steps=x, label=bool(l)) for i, (x, l) in enumerate(zip(X, labels))))
    rep = report(np.zeros(100), ds.labels())
    assert rep.accuracy == pytest.approx(0.94)
    assert rep.kappa == pytest.approx(0.0)
    assert rep.recall == pytest.approx(0.0)


def test_evaluate_bank_matches_independent_tally(vocab):
    rng = np.random.default_rng(2)
    pats = tuple(random_legal_pattern(vocab, 3, rng) for _ in range(8))
    bank = PatternBank(patterns=pats, vocabulary=vocab)
    X = random_legal_clip_batch(vocab, 80, 5, rng)
    labels = rng.integers(0, 2, 80).astype(bool)
    ds = Dataset(vocabulary=vocab, clips=tuple(
        Clip(clip_id=str(i), steps=x, label=bool(l)) for i, (x, l) in enumerate(zip(X, labels))))
    rep = evaluate(bank, ds)
    pred = np.array([any(discrete_match(p, x, padding=1)[0] for p in pats) for x in X])
    c = confusion(pred.astype(float), labels)
    assert rep.accuracy == pytest.approx(accuracy(c))
    assert rep.kappa == pytest.approx(kappa(c))


def _model_and_clips(vocab, n):
    rng = np.random.default_rng(3)
    X = random_legal_clip_batch(vocab, n, 5, rng)
    ds = Dataset(vocabulary=vocab, steps=X, labels=rng.random(n) < 0.3,
                 clip_ids=[str(i) for i in range(n)])
    state = init_state(64, 3, vocab.d, rng=rng)
    state.W *= 0.3  # pooled activations near the thresholding offset
    return state, ds


def test_evaluate_model_reports_the_forward_scores(vocab):
    state, ds = _model_and_clips(vocab, 300)
    y, _ = forward_batch(state, ds.steps_array())
    assert evaluate(state, ds) == report(y, ds.labels())


def test_evaluate_model_memory_is_bounded_by_the_chunk(vocab):
    """A model's float64 maps over 20,000 clips would take about 50 MB each;
    evaluate windows and scores one chunk of clips at a time."""
    state, ds = _model_and_clips(vocab, 20_000)
    tracemalloc.start()
    try:
        evaluate(state, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_evaluate_bank_memory_is_bounded_by_the_block(vocab):
    """Matching a 132-pattern bank against all 20,000 clips' windows at once
    would hold tens of MB of float32 windows and counts; evaluate matches
    one block of windows at a time."""
    _, ds = _model_and_clips(vocab, 20_000)
    rng = np.random.default_rng(4)
    bank = PatternBank(patterns=tuple(random_legal_pattern(vocab, 3, rng) for _ in range(132)),
                       vocabulary=vocab)
    tracemalloc.start()
    try:
        evaluate(bank, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_render_table_handles_none():
    rep = report(np.array([0.0, 0.0]), np.array([False, False]))
    text = render_table({"train": rep})
    assert "train" in text and "-" in text


def test_report_json_round_trip():
    import json
    from dataclasses import asdict
    rep = report(np.array([0.9, 0.1]), np.array([True, False]))
    doc = json.loads(json.dumps(asdict(rep)))
    assert doc["accuracy"] == 1.0 and doc["kappa"] == 1.0

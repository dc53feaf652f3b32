"""Pattern analytics: edit distance axioms, expert expansion, statistics,
bank comparison, and explanation faithfulness."""

import json
import os

import numpy as np
import pytest

from conftest import (brute_first_window, padded_clips, random_legal_clip_batch,
                      random_legal_pattern, random_legal_steps)
from patternconv import analysis, corpus, kernels
from patternconv.analysis import (ExpertPattern, compare_banks, edit_distance,
                                  expand_expert, expert_from_names, explain,
                                  load_expert_patterns, pattern_stats,
                                  write_expert_patterns)
from patternconv.corpus import Clip, FeatureVocabulary
from patternconv.curator import Pattern, PatternBank, discrete_match, pattern_violation
from patternconv.errors import DataError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _pat(cells, pid="p", **kw):
    return Pattern(cells=np.asarray(cells, dtype=np.uint8), pattern_id=pid, **kw)


# ------------------------------------------------------------- edit distance

def test_edit_distance_cases(vocab):
    rng = np.random.default_rng(0)
    p = random_legal_pattern(vocab, 3, rng)
    assert edit_distance(p, p) == 0
    complement = _pat(1 - p.cells, "comp")
    assert edit_distance(p, complement) == 39


def test_edit_distance_metric_axioms(vocab):
    rng = np.random.default_rng(1)
    pats = [random_legal_pattern(vocab, 3, rng) for _ in range(25)]
    for a in pats:
        for b in pats:
            dab = edit_distance(a, b)
            assert dab >= 0
            assert dab == edit_distance(b, a)
            assert (dab == 0) == (a.cells == b.cells).all()
            for c in pats[:8]:
                assert dab <= edit_distance(a, c) + edit_distance(c, b)


def test_edit_distance_shape_mismatch(vocab):
    with pytest.raises(DataError):
        edit_distance(_pat(np.ones((3, 13))), _pat(np.ones((2, 13))))


# ----------------------------------------------------------- expert patterns

def test_expand_counts(vocab):
    three = expert_from_names("t3", [["help"], ["incorrect"], ["correct"]], vocab)
    two = expert_from_names("t2", [["help"], ["incorrect"]], vocab)
    four = expert_from_names("t4", [["help"], ["incorrect"], ["correct"], ["help"]], vocab)
    assert len(expand_expert(three, vocab)) == 1
    assert len(expand_expert(two, vocab)) == 2
    assert len(expand_expert(four, vocab)) == 2


def test_expand_two_step_pads_opposite_ends(vocab):
    two = expert_from_names("t2", [["help"], ["incorrect"]], vocab)
    front, back = expand_expert(two, vocab)
    assert front.cells[0].sum() == 0 and front.cells[1:].sum() == 2
    assert back.cells[2].sum() == 0 and back.cells[:2].sum() == 2


def test_expand_four_step_slices(vocab):
    four = expert_from_names(
        "t4", [["help"], ["incorrect"], ["correct"], ["incorrect"]], vocab)
    head, tail = expand_expert(four, vocab)
    i_help = vocab.feature_names.index("help")
    i_inc = vocab.feature_names.index("incorrect")
    i_cor = vocab.feature_names.index("correct")
    assert head.cells[0, i_help] and head.cells[1, i_inc] and head.cells[2, i_cor]
    assert tail.cells[0, i_inc] and tail.cells[1, i_cor] and tail.cells[2, i_inc]


def test_expert_pattern_length_validation():
    with pytest.raises(DataError):
        ExpertPattern(name="too-long", steps=(frozenset(),) * 5)


def test_expert_unknown_feature(vocab):
    with pytest.raises(DataError, match="unknown feature"):
        expert_from_names("bad", [["nope"], ["help"]], vocab)


def test_fixture_file_round_trip(tmp_path, vocab):
    src = os.path.join(FIXTURES, "expert_patterns.jsonl")
    experts = load_expert_patterns(src, vocab)
    assert [e.name for e in experts] == [
        "help-abuse-bottom-out", "similar-answer-pair", "similar-answer-run"]
    out = tmp_path / "experts.jsonl"
    write_expert_patterns(experts, vocab, out)
    again = load_expert_patterns(out, vocab)
    assert again == experts
    assert out.read_text() == open(src).read()


def test_fixture_flagship_pattern_expands_to_five_positives(vocab):
    experts = load_expert_patterns(os.path.join(FIXTURES, "expert_patterns.jsonl"), vocab)
    flagship = expand_expert(experts[0], vocab)
    assert len(flagship) == 1
    assert flagship[0].cells.sum() == 5


# -------------------------------------------------------------------- stats

def test_stats_single_pattern(vocab):
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[0, vocab.submission_indices[0]] = 1
    cells[0, sorted(vocab.help_related)[:2]] = 1
    cells[1, vocab.submission_indices[2]] = 1
    cells[2, vocab.submission_indices[2]] = 1
    bank = PatternBank(patterns=(_pat(cells),), vocabulary=vocab)
    s = pattern_stats(bank)
    pf = s["positive_features"]
    assert pf["mean"] == 5 and pf["sd"] == 0 and (pf["min"], pf["max"]) == (5, 5)
    assert s["pairwise_edit_distance"]["mean"] is None


def test_stats_pairwise_minimum(vocab):
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[0, vocab.submission_indices[1]] = 1
    a[1, vocab.submission_indices[1]] = 1
    b = a.copy()
    b[1, vocab.submission_indices[1]] = 0
    b[1, vocab.submission_indices[2]] = 1
    bank = PatternBank(patterns=(_pat(a, "a"), _pat(b, "b")), vocabulary=vocab)
    s = pattern_stats(bank)
    assert s["pairwise_edit_distance"]["min"] == 2
    assert s["pairwise_edit_distance"]["smallest"][0] == {"distance": 2, "count": 1}


def test_stats_independent_tally(vocab):
    rng = np.random.default_rng(2)
    pats = tuple(random_legal_pattern(vocab, 3, rng) for _ in range(10))
    bank = PatternBank(patterns=pats, vocabulary=vocab)
    s = pattern_stats(bank)
    counts = [int(p.cells.sum()) for p in pats]
    assert s["positive_features"]["mean"] == pytest.approx(np.mean(counts))
    assert s["positive_features"]["sd"] == pytest.approx(np.std(counts))
    pairwise = [int((pats[i].cells != pats[j].cells).sum())
                for i in range(10) for j in range(i + 1, 10)]
    assert len(pairwise) == 45
    assert s["pairwise_edit_distance"]["mean"] == pytest.approx(np.mean(pairwise))


# ------------------------------------------------------------ compare_banks

def test_compare_identical_banks(vocab):
    experts = load_expert_patterns(os.path.join(FIXTURES, "expert_patterns.jsonl"), vocab)
    expanded = [q for e in experts for q in expand_expert(e, vocab)]
    bank = PatternBank(patterns=tuple(expanded), vocabulary=vocab)
    rep = compare_banks(bank, experts)
    assert all(r["distance"] == 0 for r in rep["per_learned_nearest"])
    assert all(r["distance"] == 0 for r in rep["per_expert_nearest"])


def test_compare_single_pair_distance(vocab):
    expert = expert_from_names("e", [["help"], ["incorrect"], ["correct"]], vocab)
    cells = expand_expert(expert, vocab)[0].cells.copy()
    cells.setflags(write=True)
    cells[0, sorted(vocab.help_related)[:3]] = 1
    bank = PatternBank(patterns=(_pat(cells, "learned"),), vocabulary=vocab)
    rep = compare_banks(bank, [expert])
    assert rep["per_learned_nearest"] == [
        {"pattern_id": "learned", "nearest_expert": "e", "distance": 3}]
    assert rep["closest_pairs"][0]["distance"] == 3


def test_compare_empty_bank(vocab):
    rep = compare_banks(PatternBank(patterns=(), vocabulary=vocab), [])
    assert rep["per_expert_nearest"] == [] and rep["all_pairs"]["mean"] is None


# ------------------------------------------------------------------- explain

def _clip_with_pattern(vocab, pattern, seed=0):
    ds = corpus.synth_generate(vocab, [pattern], 200, 0.0, 0.0, seed=seed)
    return next(c for c in ds.clips if c.label)


def test_explain_cites_only_present_features(vocab, planted):
    clip = _clip_with_pattern(vocab, planted[0])
    bank = PatternBank(patterns=(planted[0],), vocabulary=vocab)
    exp = explain(clip, bank, vocab)
    assert exp.matched_pattern_ids == (planted[0].pattern_id,)
    assert len(exp.blocks) == 1
    for req in exp.blocks[0]["requirements"]:
        j = vocab.feature_names.index(req["feature"])
        assert clip.steps[req["step_index"], j] == 1
    assert "flagged" in exp.bullet_text


def test_explain_no_match(vocab, planted):
    steps = np.zeros((5, vocab.d), dtype=np.uint8)
    steps[:, vocab.submission_indices[1]] = 1
    clip = Clip(clip_id="quiet", steps=steps, label=False)
    bank = PatternBank(patterns=(planted[0],), vocabulary=vocab)
    exp = explain(clip, bank, vocab)
    assert exp.blocks == () and "no pattern matched" in exp.bullet_text


def test_explain_orders_blocks_by_precision(vocab, planted):
    clip = _clip_with_pattern(vocab, planted[0])
    loose = np.zeros((3, vocab.d), dtype=np.uint8)
    window = discrete_match(planted[0], clip, padding=1)[1]
    # a 1-cell pattern guaranteed to match wherever the planted one does
    n, j = sorted(planted[0].positives)[0]
    loose[n, j] = 1
    low = Pattern(cells=loose, pattern_id="low", precision_train=0.4)
    high = Pattern(cells=planted[0].cells, pattern_id="high", precision_train=0.9)
    bank = PatternBank(patterns=(low, high), vocabulary=vocab)
    exp = explain(clip, bank, vocab)
    assert exp.matched_pattern_ids == ("high", "low")


def _oracle_bank(vocab, k, clips, rng):
    """A legal bank of k-step patterns: random ones, which seldom match, and
    random subsets of the 1-cells of a padded clip window, which match that
    clip at least. Precisions repeat, so the order needs its id tie-break."""
    padding = kernels.padding_for(k)
    cells = [random_legal_pattern(vocab, k, rng, p_cell=0.15).cells for _ in range(6)]
    while len(cells) < 18:
        clip = padded_clips(clips[rng.integers(len(clips))][None], padding)[0]
        start = rng.integers(clip.shape[0] - k + 1)
        sub = clip[start:start + k] & (rng.random((k, vocab.d)) < 0.5)
        if sub.any():
            cells.append(sub.astype(np.uint8))
    precisions = [None, 0.2, 0.5, 0.5, 0.9]
    patterns = [Pattern(cells=c, pattern_id=f"p{i:02d}",
                        precision_train=precisions[rng.integers(len(precisions))])
                for i, c in zip(rng.permutation(len(cells)), cells)]
    assert all(pattern_violation(p.cells, vocab) is None for p in patterns)
    return PatternBank(patterns=tuple(patterns), vocabulary=vocab)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_explain_agrees_with_the_brute_force_oracle(vocab, k):
    """On random legal banks and clips, explain flags a clip by exactly the
    patterns a scan of its padded windows finds, at the first window the scan
    finds; orders them by precision, then by id; and cites each pattern's
    1-cells, every one a 1 of the clip at the cited step."""
    rng = np.random.default_rng(k)
    padding = kernels.padding_for(k)
    clips = [random_legal_steps(vocab, int(rng.integers(max(k - 2 * padding, 1), 8)), rng)
             for _ in range(40)]
    bank = _oracle_bank(vocab, k, clips, rng)
    cells = np.stack([p.cells for p in bank.patterns])
    precision = {p.pattern_id: p.precision_train or 0.0 for p in bank.patterns}
    n_positive = {p.pattern_id: p.n_positive for p in bank.patterns}
    matches = 0
    for i, steps in enumerate(clips):
        exp = explain(Clip(clip_id=f"c{i}", steps=steps, label=False), bank, vocab)
        first = brute_first_window(cells, steps[None], padding)[:, 0]
        assert {b["pattern_id"]: b["window"] for b in exp.blocks} == {
            p.pattern_id: int(w) for p, w in zip(bank.patterns, first) if w >= 0}
        assert exp.matched_pattern_ids == tuple(b["pattern_id"] for b in exp.blocks)
        order = [(-precision[pid], pid) for pid in exp.matched_pattern_ids]
        assert order == sorted(order)
        for block in exp.blocks:
            reqs = block["requirements"]
            assert len(reqs) == n_positive[block["pattern_id"]]
            for req in reqs:
                assert steps[req["step_index"], vocab.feature_names.index(req["feature"])] == 1
        matches += len(exp.blocks)
    assert matches >= len(clips) // 2  # the oracle is not checked on empty matches alone


def test_explain_takes_only_the_padding_of_the_bank_k(vocab, planted):
    """A padding given to explain must be that of the bank's 3-step
    patterns, 1; a bank without patterns has no k to check it against."""
    clip = _clip_with_pattern(vocab, planted[0])
    bank = PatternBank(patterns=(planted[0],), vocabulary=vocab)
    assert explain(clip, bank, vocab, padding=1) == explain(clip, bank, vocab)
    with pytest.raises(DataError, match="explain 'padding' must be 1 at k = 3, not 0"):
        explain(clip, bank, vocab, padding=0)
    empty = PatternBank(patterns=(), vocabulary=vocab)
    assert explain(clip, empty, vocab, padding=0).blocks == ()


def test_explain_vocab_mismatch(vocab, planted):
    other = FeatureVocabulary(
        feature_names=tuple(f"f{i}" for i in range(13)),
        submission_indices=(0, 1, 2),
        help_related=frozenset(range(3, 8)),
        attempt_related=frozenset(range(8, 13)),
    )
    clip = _clip_with_pattern(vocab, planted[0])
    bank = PatternBank(patterns=(planted[0],), vocabulary=other)
    with pytest.raises(DataError):
        explain(clip, bank, vocab)

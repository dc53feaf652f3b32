"""Data model, loading/validation, splits, and the synthetic generator."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_legal_steps
from patternconv import corpus
from patternconv.corpus import Clip, Dataset, FeatureVocabulary, check_steps
from patternconv.curator import Pattern, discrete_match
from patternconv.errors import DataError


# ---------------------------------------------------------------- vocabulary

def test_default_vocabulary_shape(vocab):
    assert vocab.d == 13
    assert len(vocab.submission_indices) == 3
    assert len(vocab.help_related) == 5
    assert len(vocab.attempt_related) == 5
    union = set(vocab.submission_indices) | vocab.help_related | vocab.attempt_related
    assert union == set(range(13))


def test_vocabulary_rejects_overlapping_partitions():
    with pytest.raises(DataError):
        FeatureVocabulary(
            feature_names=("a", "b", "c", "d", "e"),
            submission_indices=(0, 1, 2),
            help_related=frozenset({3}),
            attempt_related=frozenset({3, 4}),
        )


def test_vocabulary_rejects_wrong_submission_count():
    with pytest.raises(DataError):
        FeatureVocabulary(
            feature_names=("a", "b", "c", "d"),
            submission_indices=(0, 1),
            help_related=frozenset({2}),
            attempt_related=frozenset({3}),
        )


# --------------------------------------------------------------- check_steps

def _legal_steps(vocab, L=5):
    steps = np.zeros((L, vocab.d), dtype=np.uint8)
    steps[:, vocab.submission_indices[1]] = 1  # all correct attempts
    return steps


def test_check_steps_accepts_legal(vocab):
    assert check_steps(_legal_steps(vocab), vocab) is None


def test_check_steps_flags_multiple_submissions(vocab):
    steps = _legal_steps(vocab)
    steps[2, vocab.help_index] = 1
    assert "multiple submission types" in check_steps(steps, vocab)


def test_check_steps_flags_missing_submission(vocab):
    steps = _legal_steps(vocab)
    steps[1] = 0
    assert "no submission type" in check_steps(steps, vocab)


def test_check_steps_flags_help_feature_on_attempt_step(vocab):
    steps = _legal_steps(vocab)
    steps[0, sorted(vocab.help_related)[0]] = 1
    assert "help-related feature without help submission" in check_steps(steps, vocab)


def test_check_steps_flags_both_sides_active(vocab):
    steps = _legal_steps(vocab)
    steps[0] = 0
    steps[0, vocab.help_index] = 1
    steps[0, sorted(vocab.help_related)[0]] = 1
    steps[0, sorted(vocab.attempt_related)[0]] = 1
    assert "both active" in check_steps(steps, vocab)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_legal_steps_are_legal(seed):
    vocab = FeatureVocabulary.default()
    rng = np.random.default_rng(seed)
    assert check_steps(random_legal_steps(vocab, 5, rng), vocab) is None


# ---------------------------------------------------------------- load/write

def _tiny_dataset(vocab, n=20, n_pos=2):
    rng = np.random.default_rng(0)
    clips = tuple(
        Clip(clip_id=f"c{i:03d}", steps=random_legal_steps(vocab, 5, rng), label=i < n_pos)
        for i in range(n)
    )
    return Dataset(vocabulary=vocab, clips=clips)


def test_round_trip_is_byte_identical(tmp_path, vocab):
    ds = _tiny_dataset(vocab)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    corpus.write_dataset(ds, p1)
    corpus.write_dataset(corpus.load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaders_writer_and_splits_build_no_clip_views(tmp_path, vocab, planted):
    """The array form is filled directly; `clips` is built only on first use."""
    ds = corpus.synth_generate(vocab, planted, 100, 0.0, 0.0, seed=0)
    corpus.write_dataset(ds, tmp_path / "d.jsonl")
    loaded = corpus.load_dataset(tmp_path / "d.jsonl")
    parts = corpus.stratified_split(loaded, 0.25, 0.2, seed=0)
    for part in (ds, loaded) + parts:
        assert "clips" not in vars(part)
    assert loaded.clips is loaded.clips and "clips" in vars(loaded)


def test_steps_and_labels_are_stored_read_only(tmp_path, vocab):
    corpus.write_dataset(_tiny_dataset(vocab), tmp_path / "d.jsonl")
    ds = corpus.load_dataset(tmp_path / "d.jsonl")
    assert ds.steps_array() is ds.steps_array() and ds.labels() is ds.labels()
    assert ds.steps_array().dtype == np.uint8 and ds.labels().dtype == bool
    assert not ds.steps_array().flags.writeable and not ds.labels().flags.writeable
    with pytest.raises(ValueError):
        ds.steps_array()[0, 0, 0] = 1


def test_clip_and_array_forms_agree(vocab):
    by_clips = _tiny_dataset(vocab, n=12, n_pos=5)
    by_arrays = Dataset(vocabulary=vocab, steps=by_clips.steps_array().copy(),
                        labels=by_clips.labels().copy(), clip_ids=by_clips.clip_ids)
    assert len(by_arrays) == len(by_clips) == 12
    assert by_arrays.positive_rate == by_clips.positive_rate == 5 / 12
    for a, b in zip(by_arrays.clips, by_clips.clips):
        assert (a.clip_id, a.label) == (b.clip_id, b.label)
        assert np.array_equal(a.steps, b.steps) and a.steps.dtype == np.uint8
    empty = Dataset(vocabulary=vocab, clips=())
    assert len(empty) == 0 and empty.positive_rate == 0.0 and empty.clips == ()


def test_positive_rate_counted_on_load(tmp_path, vocab):
    ds = _tiny_dataset(vocab, n=20, n_pos=2)
    path = tmp_path / "d.jsonl"
    corpus.write_dataset(ds, path)
    assert corpus.load_dataset(path).positive_rate == pytest.approx(0.10)


def test_load_rejects_file_naming_bad_clip(tmp_path, vocab):
    ds = _tiny_dataset(vocab, n=4)
    path = tmp_path / "bad.jsonl"
    corpus.write_dataset(ds, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])  # third clip
    rec["steps"][0][vocab.submission_indices[0]] = 1
    rec["steps"][0][vocab.submission_indices[1]] = 1
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="c002.*multiple submission types"):
        corpus.load_dataset(path)


@pytest.mark.parametrize("block_rows", [3, 1 << 13])
def test_load_names_first_bad_clip_and_step_across_blocks(tmp_path, vocab, monkeypatch,
                                                          block_rows):
    monkeypatch.setattr(corpus, "_CHECK_ROWS", block_rows)
    path = tmp_path / "bad.jsonl"
    corpus.write_dataset(_tiny_dataset(vocab, n=8), path)
    lines = path.read_text().splitlines()
    for line_no, step in ((5, 2), (7, 0)):  # clips c004 and c006
        rec = json.loads(lines[line_no])
        rec["steps"][step][:3] = [0, 0, 0]
        lines[line_no] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="clip 'c004': step 2: no submission type"):
        corpus.load_dataset(path)


def test_load_rejects_record_that_is_not_an_object(tmp_path, vocab):
    ds = _tiny_dataset(vocab, n=2)
    path = tmp_path / "list.jsonl"
    corpus.write_dataset(ds, path)
    path.write_text(path.read_text() + "[1, 2]\n")
    with pytest.raises(DataError, match="not a JSON object"):
        corpus.load_dataset(path)


def test_load_rejects_second_header_with_other_vocabulary(tmp_path, vocab):
    path = tmp_path / "two.jsonl"
    corpus.write_dataset(_tiny_dataset(vocab, n=2), path)
    other = FeatureVocabulary(feature_names=vocab.feature_names[:12],
                              submission_indices=(0, 1, 2),
                              help_related=frozenset(range(3, 8)),
                              attempt_related=frozenset(range(8, 12)))
    path.write_text(path.read_text() + json.dumps(other.to_record()) + "\n")
    with pytest.raises(DataError, match="differs from an earlier one"):
        corpus.load_dataset(path)


def test_load_rejects_header_field_that_is_not_a_list(tmp_path, vocab):
    header = vocab.to_record()
    header["feature_names"] = 5
    path = tmp_path / "hdr.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(DataError, match="must be lists"):
        corpus.load_dataset(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(DataError, match="malformed record"):
        corpus.load_dataset(path)


# -------------------------------------------------------------------- splits

def test_stratified_split_sizes_and_rates(vocab):
    ds = _tiny_dataset(vocab, n=100, n_pos=6)
    tr, va, te = corpus.stratified_split(ds, 0.25, 0.20, seed=7)

    def carve_sizes(n):  # per-stratum rounding, test split carved first
        n_test = round(0.25 * n)
        n_val = round(0.20 * (n - n_test))
        return n - n_test - n_val, n_val, n_test
    expect = [sum(t) for t in zip(carve_sizes(6), carve_sizes(94))]
    assert [len(tr), len(va), len(te)] == expect
    assert len(tr) + len(va) + len(te) == 100
    for part in (tr, va, te):
        # positive rates within one clip of the parent rate
        expect = 0.06 * len(part)
        n_pos = sum(c.label for c in part.clips)
        assert abs(n_pos - expect) <= 1.0


def test_stratified_split_deterministic_and_partition(vocab):
    ds = _tiny_dataset(vocab, n=50, n_pos=5)
    a = corpus.stratified_split(ds, 0.25, 0.2, seed=7)
    b = corpus.stratified_split(ds, 0.25, 0.2, seed=7)
    ids = lambda parts: [tuple(c.clip_id for c in p.clips) for p in parts]
    assert ids(a) == ids(b)
    all_ids = sorted(cid for part in a for cid in (c.clip_id for c in part.clips))
    assert all_ids == sorted(c.clip_id for c in ds.clips)


# sha256 of the JSON list of the train, val and test clip ids of the 300-clip
# synth, from before splits were index arrays
SPLIT_DIGESTS = {
    0: "99c63ce4ac408ebdce9e2a2125ab8e925f992e32f6e0a25c6c7014d0ea3c113a",
    1: "c22682eda5a2618dedced6815e182c1093d40e96b1e547d8163c34049231bd7e",
}


@pytest.mark.parametrize("seed", sorted(SPLIT_DIGESTS))
def test_stratified_split_is_frozen(vocab, planted, seed):
    ds = corpus.synth_generate(vocab, planted, 300, 0.0, 0.0, seed=seed, p_distract=0.7)
    parts = corpus.stratified_split(ds, 0.25, 0.2, seed=seed)
    ids = json.dumps([list(part.clip_ids) for part in parts])
    assert hashlib.sha256(ids.encode()).hexdigest() == SPLIT_DIGESTS[seed]
    for part in parts:
        rows = [ds.clip_ids.index(cid) for cid in part.clip_ids]
        assert np.array_equal(part.steps_array(), ds.steps_array()[rows])
        assert np.array_equal(part.labels(), ds.labels()[rows])


def test_stratified_split_rejects_degenerate_fraction(vocab):
    ds = _tiny_dataset(vocab, n=10, n_pos=2)
    with pytest.raises(DataError):
        corpus.stratified_split(ds, 0.99, 0.2, seed=0)


# ----------------------------------------------------------------- synthesis

def test_synth_zero_noise_labels_equal_match_status(vocab, planted):
    one = [planted[0]]
    ds = corpus.synth_generate(vocab, one, 1000, 0.0, 0.0, seed=1)
    for c in ds.clips:
        assert c.label == discrete_match(one[0], c, padding=1)[0]


def test_synth_empty(vocab, planted):
    ds = corpus.synth_generate(vocab, planted, 0, 0.0, 0.0, seed=0)
    assert len(ds) == 0


def test_synth_label_noise_rate(vocab, planted):
    ds = corpus.synth_generate(vocab, planted, 10_000, 0.1, 0.0, seed=2)
    flips = sum(
        c.label != any(discrete_match(p, c, padding=1)[0] for p in planted)
        for c in ds.clips
    )
    assert abs(flips / len(ds) - 0.10) < 0.01


def test_synth_clips_are_legal(vocab, planted):
    ds = corpus.synth_generate(vocab, planted, 300, 0.05, 0.1, seed=3)
    for c in ds.clips:
        assert check_steps(c.steps, vocab) is None


def test_synth_rejects_wide_pattern(vocab):
    wide = Pattern(cells=np.ones((7, vocab.d), dtype=np.uint8), pattern_id="wide")
    with pytest.raises(DataError, match="wider than the clip length"):
        corpus.synth_generate(vocab, [wide], 10, 0.0, 0.0, seed=0)


def test_synth_rejects_planted_patterns_of_mixed_shape(vocab, planted):
    four = Pattern(cells=np.zeros((4, vocab.d), dtype=np.uint8), pattern_id="four")
    with pytest.raises(DataError, match="must share one"):
        corpus.synth_generate(vocab, [planted[0], four], 10, 0.0, 0.0, seed=0)


# sha256 of the written 300-clip dataset per seed, from before synth matched
# all planted patterns in one call: testing a candidate draws no random number
SYNTH_DIGESTS = {
    0: "f048343842f5e2bbc748370f5d825bafa7ac167d3ab251c255e56901f86fe38f",
    1: "18f62f3e55a1944a991f964bc4075c6610c241f783a2044c29d4961d74bf6edf",
}


@pytest.mark.parametrize("seed", sorted(SYNTH_DIGESTS))
def test_synth_output_is_frozen(tmp_path, vocab, planted, seed):
    ds = corpus.synth_generate(vocab, planted, 300, 0.0, 0.0, seed=seed, p_distract=0.7)
    corpus.write_dataset(ds, tmp_path / "d.jsonl")
    digest = hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest()
    assert digest == SYNTH_DIGESTS[seed]


def test_synth_distractors_do_not_flip_labels(vocab, planted):
    ds = corpus.synth_generate(vocab, planted, 600, 0.0, 0.0, seed=4, p_distract=1.0)
    for c in ds.clips:
        matches = any(discrete_match(p, c, padding=1)[0] for p in planted)
        assert c.label == matches
        assert check_steps(c.steps, vocab) is None


def test_synth_distractors_nearly_match(vocab, planted):
    """Most distracted negatives contain a drop-one-cell variant of a planted pattern."""
    ds = corpus.synth_generate(vocab, planted, 400, 0.0, 0.0, seed=5, p_distract=1.0)
    variants = []
    for pat in planted:
        for (n, j) in zip(*np.nonzero(pat.cells)):
            cells = pat.cells.copy()
            cells[n, j] = 0
            variants.append(cells)
    negs = [c for c in ds.clips if not c.label]
    hit = sum(
        any(discrete_match(v, c, padding=1)[0] for v in variants) for c in negs
    )
    assert hit / len(negs) > 0.8


def test_synth_distractor_default_off(vocab, planted):
    """Without distractors, near-miss variants appear only at background rates."""
    a = corpus.synth_generate(vocab, planted, 400, 0.0, 0.0, seed=6)
    b = corpus.synth_generate(vocab, planted, 400, 0.0, 0.0, seed=6, p_distract=0.0)
    assert [c.steps.tobytes() for c in a.clips] == [c.steps.tobytes() for c in b.clips]

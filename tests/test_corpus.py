"""Data model, loading/validation, splits, and the synthetic generator."""

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_legal_steps
from patternconv import cli, corpus
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


def test_vocabulary_rejects_a_repeated_feature_name(vocab):
    """A repeated name would resolve to one of its columns: an expert step
    naming it would read the last one."""
    names = list(vocab.feature_names)
    names[4] = names[3]
    with pytest.raises(DataError, match="vocabulary repeats feature name 'quick_help_request'"):
        FeatureVocabulary(feature_names=tuple(names), submission_indices=vocab.submission_indices,
                          help_related=vocab.help_related,
                          attempt_related=vocab.attempt_related)


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


@pytest.mark.parametrize("label,want", [(1, True), (0, False), (True, True), (False, False),
                                        (1.0, True), (0.0, False), (-0.0, False), (2, None),
                                        (0.5, None), ("1", None), (None, None), ([1], None)])
def test_load_reads_a_label_equal_to_0_or_1(tmp_path, vocab, label, want):
    path = tmp_path / "d.jsonl"
    steps = random_legal_steps(vocab, 5, np.random.default_rng(0)).tolist()
    path.write_text(json.dumps(vocab.to_record()) + "\n"
                    + json.dumps({"clip_id": "c0", "label": label, "steps": steps}) + "\n")
    if want is None:
        with pytest.raises(DataError, match=r"d.jsonl:2: clip record 'label' must be 0 or 1, "
                                            r"not "):
            corpus.load_dataset(path)
    else:
        assert corpus.load_dataset(path).labels().tolist() == [want]


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
    with pytest.raises(DataError, match="hdr.jsonl:1: clip file header 'feature_names' must be "
                                         "a list of strings, not 5"):
        corpus.load_dataset(path)


@pytest.mark.parametrize("key,value,message", [
    ("feature_names", "abcdefghijklm", "'feature_names' must be a list of strings"),
    ("feature_names", [{}] * 13, "'feature_names' must be a list of strings"),
    ("help_related", [3.0, 4, 5, 6, 7], r"'help_related' must be a list of integers, not \[3.0"),
    ("attempt_related", [8, 9, 10, 11, True], "'attempt_related' must be a list of integers"),
], ids=["names_string", "names_objects", "index_float", "index_bool"])
def test_load_rejects_header_of_other_than_names_and_indices(tmp_path, vocab, key, value,
                                                             message):
    header = vocab.to_record()
    header[key] = value
    path = tmp_path / "hdr.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(DataError, match=message):
        corpus.load_dataset(path)

def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(DataError, match="malformed record"):
        corpus.load_dataset(path)



def test_written_lines_take_the_canonical_path(tmp_path, vocab, planted, monkeypatch):
    """Every clip line write_dataset writes is decoded without json.loads,
    across block boundaries."""
    ds = corpus.synth_generate(vocab, planted, 50, 0.1, 0.0, seed=0)
    path = tmp_path / "d.jsonl"
    corpus.write_dataset(ds, path, meta={"config_hash": "abc"})

    def json_path(rec, vocab):
        raise AssertionError(f"clip {rec['clip_id']} was parsed as JSON")

    monkeypatch.setattr(corpus, "_parse_clip_record", json_path)
    monkeypatch.setattr(corpus, "_BLOCK_LINES", 7)
    loaded = corpus.load_dataset(path)
    assert loaded.clip_ids == ds.clip_ids
    assert np.array_equal(loaded.labels(), ds.labels())
    assert np.array_equal(loaded.steps_array(), ds.steps_array())


def _reference_load(path, vocab):
    """The clip lines after the header of `path`, parsed one at a time with
    json.loads, the step rules checked once every clip is read."""
    ids, labels, steps = [], [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: malformed record: {e}") from None
            try:
                clip_id, clip_steps, label = corpus._parse_clip_record(rec, vocab)
            except DataError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if steps and len(clip_steps) != len(steps[0]):
                raise DataError(f"{path}:{lineno}: clip '{clip_id}': {len(clip_steps)} steps, "
                                f"where earlier clips have {len(steps[0])}")
            ids.append(clip_id)
            labels.append(label)
            steps.append(clip_steps)
    for clip_id, clip_steps in zip(ids, steps):
        reason = check_steps(clip_steps, vocab)
        if reason is not None:
            raise DataError(f"{path}: clip '{clip_id}': {reason}")
    return tuple(ids), np.array(labels, dtype=bool), np.array(steps, dtype=np.uint8)


def _canonical(rec):
    return json.dumps(rec, separators=(",", ":"), ensure_ascii=False)


def _with_step(rec, step):
    return {**rec, "steps": rec["steps"][:1] + [step] + rec["steps"][2:]}


def _two_submissions(rec):
    step = list(rec["steps"][1])
    step[0] = step[1] = 1
    return _with_step(rec, step)


def _swap_digit_and_comma(rec):
    """Canonical text of the template's length whose second step starts
    "ab," in place of "a,b": a number with a leading zero, or 10 or 11."""
    text = _canonical(rec)
    at = text.index("],[") + 3
    return text[:at] + text[at] + text[at + 2] + "," + text[at + 3:]


# ways to write a clip record as a line: the canonical form, other valid
# forms of the same clip, and faulty lines
LINE_FORMS = {
    "canonical": _canonical,
    "unicode_id": lambda rec: _canonical({**rec, "clip_id": rec["clip_id"] + "é"}),
    "spaced": json.dumps,
    "escaped_id": lambda rec: json.dumps({**rec, "clip_id": rec["clip_id"] + '"é'}),
    "backslash_id": lambda rec: _canonical({**rec, "clip_id": rec["clip_id"] + "\\"}),
    "raw_tab_id": lambda rec: _canonical(rec).replace('",', '\t",', 1),
    "key_order": lambda rec: _canonical({"label": rec["label"], "steps": rec["steps"],
                                         "clip_id": rec["clip_id"]}),
    "extra_key": lambda rec: _canonical({**rec, "note": 1}),
    "bool_label": lambda rec: _canonical({**rec, "label": bool(rec["label"])}),
    "float_value": lambda rec: _canonical(_with_step(rec, [1.0 * v for v in rec["steps"][1]])),
    "blank_before": lambda rec: "  \n" + _canonical(rec),
    "digit_2": lambda rec: _canonical(_with_step(rec, [2] + rec["steps"][1][1:])),
    "label_2": lambda rec: _canonical({**rec, "label": 2}),
    "short": lambda rec: _canonical({**rec, "steps": rec["steps"][:-1]}),
    "long": lambda rec: _canonical({**rec, "steps": rec["steps"] + rec["steps"][:1]}),
    "ragged": lambda rec: _canonical(_with_step(rec, rec["steps"][1][:-1])),
    "missing_label": lambda rec: _canonical({k: v for k, v in rec.items() if k != "label"}),
    "truncated": lambda rec: _canonical(rec)[:-9],
    "swapped": _swap_digit_and_comma,
    "two_submissions": lambda rec: _canonical(_two_submissions(rec)),
}


@pytest.mark.parametrize("block_lines", [2, 1 << 9])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(forms=st.lists(st.sampled_from(sorted(LINE_FORMS)), min_size=1, max_size=12),
       seed=st.integers(0, 1000))
def test_load_agrees_with_a_json_parse_of_each_line(vocab, block_lines, forms, seed):
    """Files mixing canonical, other valid and faulty lines load to the
    arrays of a JSON-only parse, or fail with its first error."""
    rng = np.random.default_rng(seed)
    lines = [json.dumps(vocab.to_record(), separators=(",", ":"))]
    for i, form in enumerate(forms):
        rec = {"clip_id": f"c{i}", "label": int(rng.random() < 0.5),
               "steps": random_legal_steps(vocab, 5, rng).tolist()}
        lines.append(LINE_FORMS[form](rec))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clips.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            want = _reference_load(path, vocab)
        except DataError as e:
            want = str(e)
        with mock.patch.object(corpus, "_BLOCK_LINES", block_lines):
            try:
                ds = corpus.load_dataset(path)
                got = ds.clip_ids, ds.labels(), ds.steps_array()
            except DataError as e:
                got = str(e)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


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
    ds = corpus.synth_generate(vocab, planted, 300, 0.0, 0.0, seed=seed, p_feature=0.15,
                               p_distract=0.7)
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
    ds = corpus.synth_generate(vocab, planted, 300, 0.0, 0.0, seed=seed, p_feature=0.15,
                               p_distract=0.7)
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


def test_synth_distractor_default_is_the_cli_rate(vocab, planted):
    """synth_generate stamps near-miss distractors by default, at the rate
    the CLI's default config sets, so a library caller gets them unasked."""
    def steps(**kw):
        ds = corpus.synth_generate(vocab, planted, 400, 0.0, 0.0, seed=6, **kw)
        return ds.steps_array().tobytes()

    assert steps() == steps(p_distract=cli.DEFAULT_CONFIG["data"]["p_distract"])
    assert steps() != steps(p_distract=0.0)

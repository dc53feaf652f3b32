"""Curation semantics: binarization, exact matching, dedup, subsumption
pruning against brute-force oracles, ranking, and bank selection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_kernels import pattern_pool
from conftest import brute_first_window, random_legal_clip_batch, random_legal_pattern, traced_peak
from patternconv import corpus, curator, kernels, trainer
from patternconv.corpus import Clip, Dataset
from patternconv.curator import (Pattern, PatternBank, bank_predict_batch,
                                 binarize, cumulative_kappa_curve, dedup,
                                 discrete_match, match_matrix, prune_subsumed,
                                 rank_by_precision, select_bank, subsumes)
from patternconv.errors import DataError
from patternconv.evalmetrics import confusion, kappa


def _pat(cells, pid="p", **kw):
    return Pattern(cells=np.asarray(cells, dtype=np.uint8), pattern_id=pid, **kw)


# ------------------------------------------------------------------ binarize

def test_binarize_accepts_near_binary(vocab):
    W = np.zeros((3, vocab.d))
    W[0, vocab.submission_indices[2]] = 0.98
    W[1, sorted(vocab.attempt_related)[0]] = 0.01  # rounds to 0
    W[1, vocab.submission_indices[1]] = 0.98
    pat, reason = binarize(W, vocab)
    assert reason is None
    assert pat.cells.sum() == 2


def test_binarize_rejects_non_binary(vocab):
    W = np.zeros((3, vocab.d))
    W[0, 0] = 0.4
    pat, reason = binarize(W, vocab)
    assert pat is None and reason == "non-binary cell"


def test_binarize_rejects_invariant_violation(vocab):
    W = np.zeros((3, vocab.d))
    W[0, vocab.submission_indices[0]] = 1.0
    W[0, vocab.submission_indices[1]] = 1.0
    pat, reason = binarize(W, vocab)
    assert pat is None and "submission invariant" in reason


def test_binarize_rejects_all_zero(vocab):
    pat, reason = binarize(np.zeros((3, vocab.d)), vocab)
    assert pat is None and reason == "all-zero pattern"


# ------------------------------------------------------------ discrete_match

def test_match_subwindow(vocab):
    rng = np.random.default_rng(0)
    X = random_legal_clip_batch(vocab, 1, 5, rng)[0]
    pat = _pat(X[1:4])
    ok, window = discrete_match(pat, X, padding=1)
    assert ok and window is not None


def test_match_impossible_by_invariants(vocab, planted):
    """A pattern demanding a help-related cell can never match attempt steps."""
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[1, sorted(vocab.help_related)[0]] = 1
    steps = np.zeros((5, vocab.d), dtype=np.uint8)
    steps[:, vocab.submission_indices[1]] = 1  # all attempts
    ok, _ = discrete_match(_pat(cells), steps, padding=1)
    assert not ok


def test_match_edge_padding_shorter_pattern(vocab):
    """All-zero first row makes an effective 2-step pattern matchable at the
    clip start through the zero padding."""
    steps = np.zeros((5, vocab.d), dtype=np.uint8)
    steps[:, vocab.submission_indices[2]] = 1
    steps[0, sorted(vocab.attempt_related)[0]] = 1
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[1, vocab.submission_indices[2]] = 1
    cells[1, sorted(vocab.attempt_related)[0]] = 1
    cells[2, vocab.submission_indices[2]] = 1
    ok, window = discrete_match(_pat(cells), steps, padding=1)
    assert ok and window == 0  # pattern row 0 sits on the left padding


def test_match_dimension_mismatch(vocab):
    with pytest.raises(DataError):
        discrete_match(_pat(np.ones((3, 4))), np.zeros((5, vocab.d)), padding=1)


@pytest.mark.parametrize("k,bad", [(3, 0), (3, 2), (1, 1)])
def test_match_takes_only_the_padding_of_its_k(vocab, k, bad):
    """A padding given to discrete_match must be that of the pattern's k:
    1, or 0 at k = 1."""
    cells = np.zeros((k, vocab.d), dtype=np.uint8)
    cells[0, vocab.help_index] = 1
    steps = np.zeros((5, vocab.d), dtype=np.uint8)
    steps[:, vocab.help_index] = 1
    assert (discrete_match(cells, steps)
            == discrete_match(cells, steps, padding=kernels.padding_for(k))
            == (True, kernels.padding_for(k)))  # row 0 on clip step 0
    with pytest.raises(DataError, match=f"discrete_match 'padding' must be "
                                        f"{kernels.padding_for(k)} at k = {k}, not {bad}"):
        discrete_match(cells, steps, padding=bad)


# -------------------------------------------------------------- bank_predict

def _dataset_of(vocab, X):
    return Dataset(vocabulary=vocab, clips=tuple(
        Clip(clip_id=str(i), steps=x, label=False) for i, x in enumerate(X)))


def test_bank_predict_empty(vocab):
    bank = PatternBank(patterns=(), vocabulary=vocab)
    X = np.zeros((1, 5, vocab.d), dtype=np.uint8)
    assert match_matrix(bank.patterns, X).shape == (0, 1)
    assert bank_predict_batch(bank, _dataset_of(vocab, X)).tolist() == [False]
    # an empty bank windows nothing, so clips shorter than any kernel pass too
    assert bank_predict_batch(bank, _dataset_of(vocab, X[:, :1])).tolist() == [False]


def test_bank_predict_single(vocab):
    rng = np.random.default_rng(1)
    X = random_legal_clip_batch(vocab, 1, 5, rng)
    bank = PatternBank(patterns=(_pat(X[0, 0:3], "hit"),), vocabulary=vocab)
    # padded window 1 aligns the pattern with clip steps 0..2
    assert match_matrix(bank.patterns, X).tolist() == [[1]]
    assert bank_predict_batch(bank, _dataset_of(vocab, X)).tolist() == [True]


def test_bank_predict_brute_force_oracle(vocab):
    rng = np.random.default_rng(2)
    pats = [random_legal_pattern(vocab, 3, rng) for _ in range(25)]
    bank = PatternBank(patterns=tuple(pats), vocabulary=vocab)
    X = random_legal_clip_batch(vocab, 60, 5, rng)
    got = bank_predict_batch(bank, _dataset_of(vocab, X))
    for i, x in enumerate(X):
        expect = any(discrete_match(p, x, padding=1)[0] for p in pats)
        assert got[i] == expect


@pytest.mark.parametrize("n_patterns", [1, 3, 4, 7, 8])
@pytest.mark.parametrize("padding", [0, 1])
def test_bank_predict_against_brute_force(vocab, monkeypatch, n_patterns, padding):
    """Banks on both sides of the multiple of 4 the pattern matrix is padded
    to predict a clip exactly when a window scan finds some pattern in it,
    with the clips padded as kernels.PADDING says."""
    monkeypatch.setattr(kernels, "PADDING", padding)
    rng = np.random.default_rng(20 + n_patterns + padding)
    pats = [random_legal_pattern(vocab, 3, rng) for _ in range(n_patterns)]
    X = random_legal_clip_batch(vocab, 80, 5, rng)
    X[:20, 1:4] = pats[-1].cells  # plant the last pattern in a quarter of the clips
    bank = PatternBank(patterns=tuple(pats), vocabulary=vocab)
    got = bank_predict_batch(bank, _dataset_of(vocab, X))
    want = (brute_first_window(np.stack([p.cells for p in pats]), X, padding) >= 0).any(axis=0)
    assert got.dtype == bool and (got == want).all() and got[:20].all()
    none = Dataset(vocabulary=vocab, steps=X[:0], labels=[])  # an empty split
    assert bank_predict_batch(bank, none).shape == (0,)


def test_bank_predict_monotone(vocab):
    rng = np.random.default_rng(3)
    pats = [random_legal_pattern(vocab, 3, rng) for _ in range(10)]
    X = random_legal_clip_batch(vocab, 40, 5, rng)
    ds = _dataset_of(vocab, X)
    prev = np.zeros(len(X), dtype=bool)
    for n in range(1, len(pats) + 1):
        cur = bank_predict_batch(PatternBank(patterns=tuple(pats[:n]), vocabulary=vocab), ds)
        assert (cur | prev == cur).all()  # never flips positive -> negative
        prev = cur


# --------------------------------------------------------------------- dedup

def test_dedup_cases(vocab):
    a = random_legal_pattern(vocab, 3, np.random.default_rng(4))
    b = random_legal_pattern(vocab, 3, np.random.default_rng(5))
    c = random_legal_pattern(vocab, 3, np.random.default_rng(6))
    assert len(dedup([a, _pat(a.cells, "copy")])) == 1
    assert dedup([a, b, c]) == [a, b, c]
    pile = [a, b, c] * 10
    assert [p.pattern_id for p in dedup(pile)] == [a.pattern_id, b.pattern_id, c.pattern_id]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_dedup_idempotent(seed):
    vocab = corpus.FeatureVocabulary.default()
    rng = np.random.default_rng(seed)
    pats = [random_legal_pattern(vocab, 3, rng, p_cell=0.15) for _ in range(20)]
    once = dedup(pats)
    assert dedup(once) == once


def _era_harvests(vocab, rng, eras):
    """One harvest per era from `_filter_pool` filters (non-binary, all-zero
    and illegal ones, NaN precisions), where filter 0 of every era is one
    shared pattern and filter 1 sits exactly at the 0.3 threshold, and the
    other legal filters of the first kind copy a few shared patterns."""
    shared = [random_legal_pattern(vocab, 3, rng).cells for _ in range(4)]
    parts = []
    for era in range(eras):
        W, prec = _filter_pool(vocab, rng, n=40)
        for m in range(0, len(W), 5):
            W[m] = np.abs(shared[0 if m == 0 else rng.integers(4)]
                          - rng.random(W[m].shape) * 0.04)
        prec[0], prec[1], prec[2] = 0.9, 0.3, np.nan
        parts.append(trainer.harvest_filters(W, prec, era, vocab))
    return parts


def _rows(patterns):
    return [(p.pattern_id, p.cells.tobytes(), p.precision_train, p.source_era)
            for p in patterns]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), eras=st.integers(1, 4))
def test_dedup_of_a_harvest_equals_dedup_of_its_patterns(seed, eras):
    """dedup reads a Harvest's cells array; on the Patterns it materializes
    it keeps the same ids, cells, precisions and eras in the same order, the
    first occurrence of each cell matrix."""
    vocab = corpus.FeatureVocabulary.default()
    harvest = curator.Harvest.concat(_era_harvests(vocab, np.random.default_rng(seed), eras))
    patterns = list(harvest)
    assert len(patterns) == len(harvest) and patterns[0].pattern_id == "e000f0000"
    seen, first = set(), []
    for p in patterns:
        if p.cells.tobytes() not in seen:
            seen.add(p.cells.tobytes())
            first.append(p)
    assert _rows(dedup(harvest)) == _rows(dedup(patterns)) == _rows(first)
    if eras > 1:  # filter 0 of every era repeats the first one
        assert len(first) < len(patterns)
    assert all(type(p.precision_train) is float and type(p.source_era) is int
               for p in dedup(harvest))


def test_harvest_and_its_patterns_are_read_only(vocab, planted):
    W = np.stack([p.cells for p in planted]).astype(np.float64)
    harvest = trainer.harvest_filters(W, np.full(3, 0.9), 2, vocab)
    assert len(harvest) == 3
    for column in (harvest.cells, harvest.era, harvest.filter_index, harvest.precision):
        with pytest.raises(ValueError):
            column[0] = 0
    for pattern in (harvest[1], next(iter(harvest)), dedup(harvest)[2]):
        assert not pattern.cells.flags.writeable
        with pytest.raises(ValueError):
            pattern.cells[0, 0] = 1
        with pytest.raises(ValueError):
            pattern.cells.setflags(write=True)


# ------------------------------------------------------------ prune_subsumed

def test_prune_aligned_subset(vocab):
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[0, vocab.submission_indices[2]] = 1
    b = a.copy()
    b[1, vocab.submission_indices[2]] = 1
    kept = prune_subsumed([_pat(a, "general"), _pat(b, "specific")])
    assert [p.pattern_id for p in kept] == ["general"]


def test_prune_disjoint_kept(vocab):
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[0, vocab.submission_indices[1]] = 1
    b = np.zeros((3, vocab.d), dtype=np.uint8)
    b[2, vocab.submission_indices[2]] = 1
    kept = prune_subsumed([_pat(a, "a"), _pat(b, "b")])
    assert len(kept) == 2


def test_prune_chain(vocab):
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[0, vocab.submission_indices[2]] = 1
    b = a.copy(); b[1, vocab.submission_indices[2]] = 1
    c = b.copy(); c[2, vocab.submission_indices[1]] = 1
    kept = prune_subsumed([_pat(c, "c"), _pat(b, "b"), _pat(a, "a")])
    assert [p.pattern_id for p in kept] == ["a"]


def _oracle_subsumes(a: Pattern, b: Pattern, clip_length=5, padding=1) -> bool:
    """Independent re-derivation: strict containment of positives under a
    single shift whose window offset stays legal for all of b's windows."""
    k = a.cells.shape[0]
    pos_a = set(zip(*np.nonzero(a.cells)))
    pos_b = set(zip(*np.nonzero(b.cells)))
    if not pos_b:
        return False
    rows_b = [n for n, _ in pos_b]
    C = clip_length - k + 1 + 2 * padding
    # windows where b's positive rows all land on real (unpadded) steps
    windows_b = [c for c in range(C)
                 if all(0 <= c - padding + n < clip_length for n in rows_b)]
    if not windows_b:
        return False
    for s in range(-(k - 1), k):
        moved = {(n + s, j) for n, j in pos_a}
        if any(not 0 <= n < k for n, _ in moved):
            continue
        if s == 0 and not (moved < pos_b):
            continue
        if s != 0 and not (moved <= pos_b):
            continue
        if all(0 <= c + s <= C - 1 for c in windows_b):
            return True
    return False


@pytest.mark.parametrize("k, padding, clip_length",
                         [(k, padding, length) for k in (1, 2, 3, 4) for padding in range(k)
                          for length in (k, k + 2, 7)])
def test_subsumes_matches_oracle_random(vocab, monkeypatch, k, padding, clip_length):
    """Every shift and window bound, on random patterns plus an all-zero one
    and a duplicate, at each padding up to k - 1 that kernels.PADDING could
    give k-step patterns."""
    monkeypatch.setattr(kernels, "PADDING", padding)
    assert kernels.padding_for(k) == padding
    rng = np.random.default_rng(7)
    pats = [random_legal_pattern(vocab, k, rng, p_cell=0.2) for _ in range(40)]
    pats += [_pat(np.zeros((k, vocab.d)), "zero"), _pat(pats[0].cells, "dup")]
    for a in pats:
        for b in pats:
            if a is b:
                continue
            assert (subsumes(a, b, clip_length)
                    == _oracle_subsumes(a, b, clip_length, padding)), (a.cells, b.cells)


def test_prune_output_is_antichain(vocab):
    rng = np.random.default_rng(8)
    base = [random_legal_pattern(vocab, 3, rng, p_cell=0.3) for _ in range(10)]
    subsets = []
    for i, p in enumerate(base * 3):
        cells = p.cells.copy()
        pos = np.argwhere(cells == 1)
        for n, j in pos[rng.random(len(pos)) < 0.4]:
            cells[n, j] = 0
        if cells.sum() > 0:
            subsets.append(_pat(cells, f"sub{i}"))
    pats = dedup(base + subsets)
    kept = prune_subsumed(pats)
    for a in kept:
        for b in kept:
            assert a is b or not subsumes(a, b)


def test_prune_generality_soundness(vocab):
    """Every clip matched by a removed pattern is matched by a survivor."""
    rng = np.random.default_rng(9)
    pats = dedup([random_legal_pattern(vocab, 3, rng, p_cell=0.15) for _ in range(30)])
    kept = prune_subsumed(pats)
    kept_keys = {p.cells.tobytes() for p in kept}
    removed = [p for p in pats if p.cells.tobytes() not in kept_keys]
    X = random_legal_clip_batch(vocab, 300, 5, rng)
    for x in X:
        for r in removed:
            if discrete_match(r, x, padding=1)[0]:
                assert any(discrete_match(s, x, padding=1)[0] for s in kept)
                break


def test_prune_shifted_subset(vocab):
    """A subset pattern shifted by one row is pruned, though neither pattern
    contains the other position by position. b's positives sit on row 0, so
    b only matches at windows 1-4 and a (same cell on row 1, matching one
    window earlier) stays in range."""
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[1, vocab.submission_indices[2]] = 1
    b = np.zeros((3, vocab.d), dtype=np.uint8)
    b[0, vocab.submission_indices[2]] = 1
    b[0, sorted(vocab.attempt_related)[0]] = 1
    pats = [_pat(a, "a"), _pat(b, "b")]
    assert [p.pattern_id for p in prune_subsumed(pats)] == ["a"]


def _oracle_prune_ids(patterns):
    """The pair rule, pattern by pattern: j goes when some i subsumes it,
    unless j also subsumes i and comes first."""
    sub = _oracle_subsumes
    return [b.pattern_id for j, b in enumerate(patterns)
            if not any(i != j and sub(a, b) and not (sub(b, a) and j < i)
                       for i, a in enumerate(patterns))]


def _random_pool(vocab, rng, n=60):
    """Random legal patterns plus shift-equal copies, drop-one-cell subsets
    and exact duplicates, each with its own id."""
    cells = []
    while len(cells) < n:
        c = random_legal_pattern(vocab, 3, rng, p_cell=0.2).cells.copy()
        if rng.random() < 0.4:
            c[2 * int(rng.integers(2))] = 0  # an empty edge step leaves room to shift
        if not c.any():
            continue
        cells.append(c)
        kind = rng.random()
        if kind < 0.3 and not c[2].any():
            cells.append(np.roll(c, 1, axis=0))
        elif kind < 0.3 and not c[0].any():
            cells.append(np.roll(c, -1, axis=0))
        elif kind < 0.6 and c.sum() > 1:
            sub = c.copy()
            n_, j = np.argwhere(sub == 1)[rng.integers(int(sub.sum()))]
            sub[n_, j] = 0
            cells.append(sub)
        elif kind < 0.7:
            cells.append(c.copy())
    return [_pat(c, f"q{i:03d}") for i, c in enumerate(cells)]


def test_prune_matches_pair_rule_on_random_pools(vocab):
    rng = np.random.default_rng(21)
    for trial in range(6):
        pool = _random_pool(vocab, rng)
        for order in (pool, pool[::-1], [pool[i] for i in rng.permutation(len(pool))]):
            got = [p.pattern_id for p in prune_subsumed(order)]
            assert got == _oracle_prune_ids(order), trial


def test_prune_keeps_the_earlier_of_each_mutual_pair_across_row_bands(vocab):
    """Past one band of 128 rows, each shift-equal pair keeps its earlier
    pattern, as the matrix rule over `_dominance` does: 150 three-cell
    patterns with an empty last step and each one shifted a step later,
    shuffled. Patterns of one size subsume only their own shifts."""
    rng = np.random.default_rng(25)
    seen, cells = set(), []
    while len(cells) < 150:
        c = random_legal_pattern(vocab, 3, rng, p_cell=0.15).cells.copy()
        c[2] = 0
        if c.sum() == 3 and c.tobytes() not in seen:
            seen.add(c.tobytes())
            cells.append(c)
    pool = cells + [np.roll(c, 1, axis=0) for c in cells]
    order = [_pat(pool[i], f"p{i:03d}") for i in rng.permutation(len(pool))]
    D = curator._dominance(np.stack([p.cells for p in order]), corpus.DEFAULT_CLIP_LENGTH)
    np.fill_diagonal(D, False)
    later = np.tri(len(order), k=-1, dtype=bool)  # [i, j] with j < i
    dominated = (D & ~(D.T & later)).any(axis=0)
    kept = prune_subsumed(order)
    assert kept == [p for p, out in zip(order, dominated) if not out]
    i, j = np.nonzero(np.triu(D & D.T))
    assert (i // 128 != j // 128).sum() >= 50  # mutual pairs that straddle bands
    assert len(kept) >= 140  # about one of each pair


def test_prune_keeps_earlier_of_shift_equal_pair(vocab):
    a = np.zeros((3, vocab.d), dtype=np.uint8)
    a[0, vocab.submission_indices[1]] = 1
    a[1, vocab.submission_indices[2]] = 1
    b = np.roll(a, 1, axis=0)
    assert subsumes(_pat(a), _pat(b)) and subsumes(_pat(b), _pat(a))
    for first, second in (("a", "b"), ("b", "a")):
        pats = {"a": _pat(a, "a"), "b": _pat(b, "b")}
        kept = prune_subsumed([pats[first], pats[second]])
        assert [p.pattern_id for p in kept] == [first]


def test_prune_empty_and_single(vocab):
    assert prune_subsumed([]) == []
    p = random_legal_pattern(vocab, 3, np.random.default_rng(22))
    assert prune_subsumed([p]) == [p]


def _paper_pool(vocab):
    """The benchmark's pool of 1,359 unique patterns, the source paper's
    unique count."""
    cells = pattern_pool(1359, 3, vocab, np.random.default_rng(1359))
    return [_pat(c, f"p{i:05d}") for i, c in enumerate(cells)]


def test_prune_at_the_paper_unique_count_holds_one_block(vocab):
    """Pruning 1,359 patterns matches them over themselves one block of
    about MATCH_BLOCK_PRODUCTS products at a time: a tracemalloc peak below
    10 MB, where a 4,096-row block of their products would be 22 MB."""
    pats = _paper_pool(vocab)
    kept, peak = traced_peak(prune_subsumed, pats)
    assert peak < 10e6 and 0 < len(kept) < len(pats)


# ------------------------------------------------------------------ harvest

def _binarize_oracle(w, vocab, tolerance):
    """Per-filter rounding with the invariants checked step by step."""
    if any(min(abs(x), abs(x - 1.0)) > tolerance for x in w.ravel()):
        return None, "non-binary cell"
    cells = (w >= 0.5).astype(np.uint8)
    if cells.sum() == 0:
        return None, "all-zero pattern"
    for n, row in enumerate(cells):
        if sum(row[j] for j in vocab.submission_indices) > 1:
            return None, f"step {n}: submission invariant"
        if any(row[j] for j in vocab.help_related) and any(row[j] for j in vocab.attempt_related):
            return None, f"step {n}: help/attempt exclusion invariant"
    return cells, None


def _filter_pool(vocab, rng, n=80):
    """Filters of every kind: near-binary legal, non-binary, all-zero,
    invariant-breaking; precisions include NaN and values on either side of
    the threshold."""
    h, a = sorted(vocab.help_related), sorted(vocab.attempt_related)
    W = []
    for i in range(n):
        kind = i % 5
        cells = random_legal_pattern(vocab, 3, rng).cells.astype(np.float64)
        if kind == 1:
            cells[int(rng.integers(3)), int(rng.integers(vocab.d))] = 0.3 + 0.4 * rng.random()
        elif kind == 2:
            cells[:] = 0.0
        elif kind == 3:
            n_ = int(rng.integers(3))
            if rng.random() < 0.5:
                cells[n_, list(vocab.submission_indices[:2])] = 1.0
            else:
                cells[n_, [h[0], a[0]]] = 1.0
        w = np.abs(cells - rng.random(cells.shape) * 0.04)  # near-binary jitter
        W.append(w)
    prec = rng.random(n)
    prec[rng.random(n) < 0.2] = np.nan
    return np.stack(W), prec


def test_binarize_matches_per_filter_oracle(vocab):
    W, _ = _filter_pool(vocab, np.random.default_rng(23))
    reasons = set()
    for w in W:
        pat, reason = binarize(w, vocab)
        want_cells, want_reason = _binarize_oracle(w, vocab, curator.BINARIZE_TOLERANCE)
        assert reason == want_reason
        assert (pat is None) == (want_cells is None)
        if pat is not None:
            assert np.array_equal(pat.cells, want_cells)
        reasons.add(reason.split(": ")[-1] if reason else None)
    assert reasons == {None, "non-binary cell", "all-zero pattern", "submission invariant",
                       "help/attempt exclusion invariant"}


def test_harvest_batch_equals_per_filter_loop(vocab):
    W, prec = _filter_pool(vocab, np.random.default_rng(24))
    got = trainer.harvest_filters(W, prec, era=7, vocab=vocab)
    want = []
    for m, (w, p) in enumerate(zip(W, prec)):
        if not np.isnan(p) and p > 0.3:
            cells, _ = _binarize_oracle(w, vocab, 0.05)
            if cells is not None:
                want.append((f"e007f{m:04d}", cells, float(p)))
    assert len(want) >= 5
    assert [p.pattern_id for p in got] == [w[0] for w in want]
    for pat, (_, cells, p) in zip(got, want):
        assert np.array_equal(pat.cells, cells)
        assert pat.precision_train == p and pat.source_era == 7


# ----------------------------------------------------- ranking and selection

def _labeled(vocab, X, labels):
    return Dataset(vocabulary=vocab, clips=tuple(
        Clip(clip_id=f"c{i}", steps=x, label=bool(l))
        for i, (x, l) in enumerate(zip(X, labels))))


def test_rank_ties_break_by_pattern_id(vocab):
    rng = np.random.default_rng(10)
    X = random_legal_clip_batch(vocab, 30, 5, rng)
    ds = _labeled(vocab, X, np.zeros(30))
    free = np.zeros((3, vocab.d), dtype=np.uint8)
    free[1, vocab.submission_indices[1]] = 1
    free2 = np.zeros((3, vocab.d), dtype=np.uint8)
    free2[1, vocab.submission_indices[2]] = 1
    ranked = rank_by_precision([_pat(free, "zz"), _pat(free2, "aa")], ds)
    # both have precision 0 (they match, labels all negative): id order decides
    assert [p.pattern_id for p in ranked] == ["aa", "zz"]


@pytest.mark.parametrize("padding", [0, 1])
def test_rank_refreshes_precision_and_support(vocab, monkeypatch, padding):
    """Each ranked pattern's precision_train and low_support are those of the
    clips a window scan, at the padding kernels.PADDING gives, finds it in:
    no precision for a pattern that matches nothing, and low support below 3
    matched clips."""
    monkeypatch.setattr(kernels, "PADDING", padding)
    rng = np.random.default_rng(20 + padding)
    X = random_legal_clip_batch(vocab, 40, 5, rng)
    labels = rng.random(40) < 0.5
    X[5, 1:4] = X[0, 1:4]  # in 2 clips
    X[6:8, 2:5] = X[1, 2:5]  # in 3 clips
    never = np.zeros((3, vocab.d), dtype=np.uint8)
    never[1, list(vocab.submission_indices[:2])] = 1  # help and an attempt in one step
    one_step = np.zeros((3, vocab.d), dtype=np.uint8)
    one_step[1, vocab.help_index] = 1
    cells = np.stack([never, one_step, X[0, 1:4], X[1, 2:5], X[2, :3]]
                     + [random_legal_pattern(vocab, 3, rng).cells for _ in range(10)])
    pats = [_pat(c, f"p{i:02d}") for i, c in enumerate(cells)]
    ranked = {p.pattern_id: p for p in
              rank_by_precision(pats, _labeled(vocab, X, labels))}
    hits = brute_first_window(cells, X, padding) >= 0
    for pat, row in zip(pats, hits):
        got, n = ranked[pat.pattern_id], int(row.sum())
        want = None if n == 0 else int((row & labels).sum()) / n
        assert got.precision_train == want and got.low_support == (n < 3)
    # every case is reached: no match, and support on both sides of 3
    counts = hits.sum(axis=1)
    assert counts[0] == 0 and counts[2:5].tolist() == [2, 3, 1]


def test_cumulative_curve_matches_recomputation(vocab, planted):
    ds = corpus.synth_generate(vocab, planted, 400, 0.0, 0.0, seed=11)
    rng = np.random.default_rng(12)
    pats = dedup(list(planted) + [random_legal_pattern(vocab, 3, rng) for _ in range(6)])
    ranked, curve = cumulative_kappa_curve(pats, ds, ds)
    labels = ds.labels()
    for n, kap in curve:
        bank = PatternBank(patterns=tuple(ranked[:n]), vocabulary=vocab)
        pred = bank_predict_batch(bank, ds)
        expect = kappa(confusion(pred.astype(float), labels))
        assert kap == pytest.approx(expect if expect is not None else 0.0)


def _kappa_curve_oracle(ranked, eval_set):
    """The cumulative kappa curve as one confusion per prefix, each from the
    union of the prefix's match rows."""
    labels = eval_set.labels()
    curve = []
    any_hit = np.zeros(len(eval_set), dtype=bool)
    for n, row in enumerate(match_matrix(ranked, eval_set.steps_array()) >= 0, start=1):
        any_hit |= row
        kap = kappa(confusion(any_hit.astype(float), labels))
        curve.append((n, kap if kap is not None else 0.0))
    return curve


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_patterns=st.integers(0, 25),
       labels=st.sampled_from(["random", "negative", "positive"]))
def test_cumulative_curve_equals_the_prefix_loop(seed, n_patterns, labels):
    """Confusion counts from each clip's first matching rank give the prefix
    loop's curve exactly, including the 0.0 of an undefined kappa."""
    vocab = corpus.FeatureVocabulary.default()
    rng = np.random.default_rng(seed)
    X = random_legal_clip_batch(vocab, 60, 5, rng)
    y = {"random": rng.random(60) < 0.3, "negative": np.zeros(60, bool),
         "positive": np.ones(60, bool)}[labels]
    ds = _labeled(vocab, X, y)
    pats = [random_legal_pattern(vocab, 3, rng, p_cell=0.1) for _ in range(n_patterns)]
    ranked, curve = cumulative_kappa_curve(pats, ds, ds)
    assert curve == _kappa_curve_oracle(ranked, ds)
    assert [n for n, _ in curve] == list(range(1, n_patterns + 1))


def test_curve_peaks_at_planted(vocab, planted):
    """Junk patterns that match nothing leave the curve flat past n=3."""
    ds = corpus.synth_generate(vocab, planted, 500, 0.0, 0.0, seed=13)
    junk = []
    for i in range(5):
        cells = np.ones((3, vocab.d), dtype=np.uint8)
        cells[:, list(vocab.submission_indices)] = 0
        cells[:, sorted(vocab.attempt_related)] = 0
        cells[i % 3, vocab.submission_indices[0]] = 1
        junk.append(_pat(cells, f"junk{i}"))
    ranked, curve = cumulative_kappa_curve(list(planted) + junk, ds, ds)
    best_n = max(curve, key=lambda p: p[1])[0]
    assert best_n <= 3 and curve[2][1] == pytest.approx(1.0)


def test_rank_and_curve_at_the_paper_unique_count_hold_no_clips_by_patterns_matrix(vocab):
    """Ranking 1,359 patterns and drawing their kappa curve over 20,000
    clips reduce each block of matches to counts and lowest ranks: the
    curve's tracemalloc peak, ranking included, stays below 50 MB, where one
    patterns x clips int64 first-window matrix is 217 MB."""
    rng = np.random.default_rng(23)
    ds = Dataset(vocabulary=vocab, steps=random_legal_clip_batch(vocab, 20_000, 5, rng),
                 labels=rng.random(20_000) < 0.3)
    (ranked, curve), peak = traced_peak(cumulative_kappa_curve, _paper_pool(vocab), ds, ds)
    assert peak < 50e6 and len(ranked) == len(curve) == 1359


def test_select_bank_rules(vocab):
    pats = [_pat(np.eye(3, vocab.d, k=i, dtype=np.uint8), f"p{i}") for i in range(8)]
    rising = [(n, n / 10) for n in range(1, 9)]
    assert len(select_bank(rising, pats, vocab)) == 8
    peak = [(1, 0.2), (2, 0.9), (3, 0.5)]
    assert len(select_bank(peak, pats[:3], vocab)) == 2
    plateau = [(1, 0.1), (2, 0.1), (3, 0.5), (4, 0.5), (5, 0.5), (6, 0.5), (7, 0.5)]
    assert len(select_bank(plateau, pats[:7], vocab)) == 3
    assert len(select_bank(plateau, pats[:7], vocab, n_override=6)) == 6
    assert len(select_bank([], [], vocab)) == 0


# ------------------------------------------------------------- serialization

def test_bank_json_round_trip(vocab):
    rng = np.random.default_rng(14)
    pats = tuple(random_legal_pattern(vocab, 3, rng) for _ in range(4))
    bank = PatternBank(patterns=pats, vocabulary=vocab)
    back = curator.bank_from_json(curator.bank_to_json(bank))
    assert len(back) == 4
    for p, q in zip(bank.patterns, back.patterns):
        assert (p.cells == q.cells).all() and p.pattern_id == q.pattern_id


def test_bank_json_records_padding(vocab):
    """A bank file records the padding of its k-step patterns, 1 or 0 at
    k = 1, and one without patterns records 1; a file without the field
    loads as the same file with it, and a padding the patterns do not take is
    a data error (a bank without patterns may record that of any k, 0 or 1)."""
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[0, vocab.help_index] = 1
    for patterns, want, other in (((), 1, 0), ((_pat(cells[:1]),), 0, 1), ((_pat(cells),), 1, 0)):
        text = curator.bank_to_json(PatternBank(patterns=patterns, vocabulary=vocab))
        doc = json.loads(text)
        assert doc.pop("padding") == want
        assert curator.bank_to_json(curator.bank_from_json(json.dumps(doc))) == text
        for bad in (-1, 1.0, True, "1", 2, other):
            doc["padding"] = bad
            if not patterns and bad == other:  # no k to check it against
                assert curator.bank_to_json(curator.bank_from_json(json.dumps(doc))) == text
                continue
            with pytest.raises(DataError, match="pattern bank file 'padding' must be"):
                curator.bank_from_json(json.dumps(doc))


def test_bank_predict_uses_the_bank_padding(vocab, monkeypatch):
    """A pattern with empty rows 0 and 2 needs the padding to reach a help
    step at the end of the clip: it does at the padding of 1 that 3-step
    patterns take, and would not were kernels.PADDING 0."""
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[1, vocab.help_index] = 1
    X = np.zeros((1, 5, vocab.d), dtype=np.uint8)
    X[0, :4, vocab.attempt_indices[0]] = 1
    X[0, 4, vocab.help_index] = 1
    ds = _dataset_of(vocab, X)
    bank = PatternBank(patterns=(_pat(cells),), vocabulary=vocab)
    got = []
    for padding in (0, 1):
        monkeypatch.setattr(kernels, "PADDING", padding)
        got.append(bank_predict_batch(bank, ds).tolist())
    assert got == [[False], [True]]
    assert discrete_match(cells, X[0]) == (True, 4)  # the last window, over the padding

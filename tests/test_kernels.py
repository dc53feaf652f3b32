"""Kernels: window convolution against direct sums, and matching against a
brute-force window scan."""

import importlib.util
import os

import numpy as np
import pytest

from conftest import (brute_first_window, padded_clips, random_legal_clip_batch,
                      random_legal_pattern, traced_peak)
from patternconv import kernels
from patternconv.corpus import Dataset
from patternconv.curator import PatternBank, bank_predict_batch
from patternconv.errors import DataError


def _brute_hits(cells, X, padding):
    """(B, C, P) whether each padded window holds every 1-cell of each pattern."""
    P, k, d = cells.shape
    Xp = padded_clips(X, padding)
    C = Xp.shape[1] - k + 1
    out = np.zeros((len(X), C, P), dtype=bool)
    for p in range(P):
        req = list(zip(*np.nonzero(cells[p])))
        for b in range(len(X)):
            for c in range(C):
                out[b, c, p] = all(Xp[b, c + n, j] for n, j in req)
    return out


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_clip_windows_against_slices(k, padding, B):
    rng = np.random.default_rng(100 * k + 10 * padding + B)
    X = rng.integers(0, 256, (B, 5, 3), dtype=np.uint8)
    Xw = kernels.clip_windows(X, k, padding)
    C = 5 + 2 * padding - k + 1
    assert Xw.shape == (B, C, k * 3) and Xw.dtype == np.uint8
    assert not Xw.flags.writeable  # a view: its windows share values
    Xp = padded_clips(X, padding)
    for c in range(C):
        assert (Xw[:, c] == Xp[:, c:c + k].reshape(B, -1)).all()


def test_padding_is_1_or_0_at_k_1():
    """Clips are padded by one zero step at either end for patterns of two
    steps or more, and by none for one step, where a padded window would
    hold no clip step; clip_windows pads so unless given a padding."""
    assert [kernels.padding_for(k) for k in (1, 2, 3, 4, 9)] == [0, 1, 1, 1, 1]
    X = np.ones((2, 5, 3))
    for k in (1, 3):
        assert (kernels.clip_windows(X, k) == kernels.clip_windows(X, k, min(1, k - 1))).all()


def test_clip_windows_rejects_clips_shorter_than_the_kernel():
    assert kernels.clip_windows(np.ones((2, 1, 3)), 3, 1).shape == (2, 1, 9)
    with pytest.raises(DataError, match="clip too short for the kernel"):
        kernels.clip_windows(np.ones((2, 1, 3)), 4, 1)
    with pytest.raises(DataError, match="clip too short for the kernel"):
        kernels.clip_windows(np.ones((2, 2, 3)), 3, 0)


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_match_first_window_against_brute_force(vocab, monkeypatch, k, padding):
    rng = np.random.default_rng(11 + 10 * k + padding)
    X = random_legal_clip_batch(vocab, 40, 5, rng)
    # feature `late` is set only on the last clip step and `early` only on the
    # first, so a pattern asking for one of them in its first (last) row can
    # only hit where its other rows lie next to or over the padding
    late, early = sorted(vocab.attempt_related)[:2]
    X[:, :, [late, early]] = 0
    X[::2, -1, late] = 1
    X[1::2, 0, early] = 1
    edge_end = np.zeros((k, vocab.d), np.uint8)
    edge_end[0, late] = 1
    edge_start = np.zeros((k, vocab.d), np.uint8)
    edge_start[-1, early] = 1
    cells = np.stack([random_legal_pattern(vocab, k, rng).cells for _ in range(15)]
                     + [np.zeros((k, vocab.d), np.uint8), edge_end, edge_start])
    Xw = kernels.clip_windows(X, k, padding)
    got = kernels.match_first_window(cells, Xw)
    assert got.dtype == np.int64 and got.shape == (len(cells), len(X))
    assert (got == brute_first_window(cells, X, padding)).all()
    assert (got[-3] == 0).all()  # the all-zero pattern matches the first window
    one = kernels.match_first_window(cells, Xw[:1])
    assert (one == got[:, :1]).all()
    # the conv's float64 windows match the same way
    assert (kernels.match_first_window(cells, Xw.astype(np.float64)) == got).all()
    # counts on both sides of each multiple of 4, the width the pattern
    # matrix is padded to
    # match_any takes the clip steps, padded as kernels.PADDING says
    monkeypatch.setattr(kernels, "PADDING", padding)
    hits = _brute_hits(cells, X, kernels.padding_for(k))
    for n in (1, 3, 4, 5, 7, 8, 17):
        assert (kernels.match_first_window(cells[-n:], Xw) == got[-n:]).all()
        want = hits[:, :, -n:].any(axis=(1, 2))
        assert (kernels.match_any(cells[-n:], X) == want).all()
        # one clip, as synth's candidate test matches it
        assert kernels.match_any(cells[-n:], X[:1]).tolist() == want[:1].tolist()


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_threshold_column_at_the_extreme_cell_counts(monkeypatch, padding):
    """The count in the pattern matrix's last row is exact at both ends: a
    pattern of all k·d = 39 cells hits where its product is exactly 0 (a
    window of all ones) and not one cell short, and an empty pattern (count
    0) hits every window. The shift-stacked matrix of clip rows keeps the
    full count at every window, so the full pattern misses every window
    that reads a padding step."""
    k, d = 3, 13
    rng = np.random.default_rng(20 + padding)
    X = (rng.random((6, 5, d)) < 0.5).astype(np.uint8)
    X[1, 1:4] = 1  # one full window inside the clip
    X[2] = 1  # every window inside the clip is full
    X[3, :3] = 1
    X[3, 1, 5] = 0  # one cell short
    cells = np.stack([np.ones((k, d), np.uint8), np.zeros((k, d), np.uint8)])
    cols = kernels._pattern_matrix(cells, k * d)
    assert cols.shape == (k * d + 1, 4) and cols.dtype == np.float32
    assert cols[-1].tolist() == [-39.0, 0.0, -1.0, -1.0]  # two zero padding columns
    monkeypatch.setattr(kernels, "PADDING", padding)
    shifted = kernels._shifted_matrix(cells.tobytes(), cells.shape, 5, d, padding)
    assert shifted.shape == (5 * d + 1, (3 + 2 * padding) * 4)
    assert shifted[-1].tolist() == [-39.0, 0.0, -1.0, -1.0] * (3 + 2 * padding)
    Xw = kernels.clip_windows(X, k, padding)
    hits = _brute_hits(cells, X, padding)
    assert hits[[1, 2], :, 0].any(axis=1).all() and not hits[[0, 3, 4, 5], :, 0].any()
    assert hits[:, :, 1].all()
    for p in ([0], [1], [0, 1]):
        want = hits[:, :, p].any(axis=(1, 2))
        first = kernels.match_first_window(cells[p], Xw)
        assert (first == brute_first_window(cells[p], X, padding)).all()
        assert (kernels.match_any(cells[p], X) == want).all()
        assert kernels.match_any(cells[p], X[1:2]).tolist() == want[1:2].tolist()
    assert (first[1] == 0).all()


def _spy_layouts(monkeypatch) -> list:
    """The row layout of each block generator that match_any calls from now
    on: "clip" or "window"."""
    layouts = []
    for name, layout in (("match_clip_rows", "clip"), ("match_blocks", "window")):
        def spy(*args, _blocks=getattr(kernels, name), _layout=layout):
            layouts.append(_layout)
            return _blocks(*args)
        monkeypatch.setattr(kernels, name, spy)
    return layouts


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_match_any_on_clip_steps_against_brute_force(vocab, monkeypatch, k, padding):
    """match_any of clip steps flags the clips in which the window scan finds
    some pattern, at every clip length from the shortest the kernel takes to
    20 steps, for banks of 0 to 132 patterns and for 0 clips, in the layout
    of the rule: clip rows when (L·d + 1)·P' <= (k·d + 1)·max(P', 32)."""
    monkeypatch.setattr(kernels, "PADDING", padding)
    pad = kernels.padding_for(k)
    layouts = _spy_layouts(monkeypatch)
    rng = np.random.default_rng(60 + 10 * k + padding)
    d = vocab.d
    cells = np.zeros((132, k * d), np.uint8)  # 2 to 5 cells each, rare on sparse clips
    for row in cells:
        row[rng.permutation(k * d)[:rng.integers(2, 6)]] = 1
    cells = cells.reshape(132, k, d)
    seen, flags = set(), []
    for L in range(max(1, k - 2 * pad), 21):
        C = L + 2 * pad - k + 1
        for P in (0, 1, 3, 4, 5, 7, 8, 17, 32, 132):
            # sparse clips, half of them stamped with one of the patterns at
            # some window, the rows that fall in the padding left out
            X = (rng.random((6, L, d)) < 0.1).astype(np.uint8)
            for b in range(0, 6 if P else 0, 2):
                p, c = rng.integers(P), rng.integers(C)
                for j in range(max(0, pad - c), min(k, L + pad - c)):
                    X[b, c - pad + j] |= cells[p, j]
            width = -(-P // 4) * 4
            want = "clip" if (L * d + 1) * width <= (k * d + 1) * max(width, 32) else "window"
            layouts.clear()
            got = kernels.match_any(cells[:P], X)
            assert (got == _brute_hits(cells[:P], X, pad).any(axis=(1, 2))).all(), (L, P)
            assert kernels.match_any(cells[:P], X[:0]).shape == (0,)
            assert layouts == [want, want], (L, P)
            seen.add(want)
            flags += got.tolist()
    assert seen == {"clip", "window"}
    assert 0.3 < np.mean(flags) < 0.8  # hits and misses alike


@pytest.mark.parametrize("P, L, layout", [(7, 5, "clip"), (16, 5, "clip"), (32, 5, "window"),
                                          (64, 5, "window"), (132, 5, "window"),
                                          (7, 10, "clip"), (7, 20, "window"),
                                          (32, 10, "window")])
def test_match_any_picks_the_faster_layout(vocab, monkeypatch, P, L, layout):
    """The shapes timed beside kernels.MATCH_FULL_WIDTH, each matched in the
    layout that timed faster there (3-step patterns, d = 13, padding 1)."""
    layouts = _spy_layouts(monkeypatch)
    kernels.match_any(np.ones((P, 3, vocab.d), np.uint8), np.ones((2, L, vocab.d), np.uint8))
    assert layouts == [layout]


@pytest.mark.parametrize("P", [1, 132])
def test_match_any_rejects_clips_shorter_than_the_kernel(P):
    """Clip rows and window rows refuse a clip with no window alike."""
    with pytest.raises(DataError, match="^clip too short for the kernel even with padding$"):
        kernels.match_any(np.ones((P, 4, 13), np.uint8), np.ones((2, 1, 13), np.uint8))


@pytest.mark.parametrize("n_patterns", [1, 4, 5, 8, 131, 132])
@pytest.mark.parametrize("padding", [0, 1])
def test_matching_across_block_seams(vocab, monkeypatch, n_patterns, padding):
    """With a product budget of three clips' worth of window rows at each
    bank width, every clip count on either side of a block seam matches as
    the window scan does: first windows, any match, the per-pattern matched
    and positive counts and each clip's lowest matching pattern, also for 0
    patterns and 0 clips; the bank pads as kernels.PADDING says. Clip rows
    and window rows split the clips into the same blocks."""
    block = 3  # clips per block
    C = 5 + 2 * padding - 3 + 1
    width = -(-n_patterns // 4) * 4  # the pattern matrix's padded columns
    monkeypatch.setattr(kernels, "MATCH_BLOCK_PRODUCTS", block * C * width)
    monkeypatch.setattr(kernels, "PADDING", padding)
    rng = np.random.default_rng(40 + 2 * n_patterns + padding)
    pats = [random_legal_pattern(vocab, 3, rng) for _ in range(n_patterns)]
    cells = np.stack([p.cells for p in pats])
    X = random_legal_clip_batch(vocab, 2 * block + 1, 5, rng)
    X[1::2, 1:4] = cells[-1]  # the last pattern in every other clip
    labels = rng.random(len(X)) < 0.5
    bank = PatternBank(patterns=tuple(pats), vocabulary=vocab)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        Xn = X[:n]
        Xw = kernels.clip_windows(Xn, 3, padding)
        for blocks in (kernels.match_blocks(cells, Xw), kernels.match_clip_rows(cells, Xn)):
            assert [part.stop - part.start for part, _ in blocks] == [block] * -(-n // block)
        want = brute_first_window(cells, Xn, padding)
        assert (kernels.match_first_window(cells, Xw) == want).all()
        hits = _brute_hits(cells, Xn, padding)
        assert (kernels.match_any(cells, Xn) == hits.any(axis=(1, 2))).all()
        got = bank_predict_batch(bank, Dataset(vocabulary=vocab, steps=Xn, labels=np.zeros(n)))
        assert (got == (want >= 0).any(axis=0)).all() and got[1::2].all()
        matched = want >= 0
        counts = kernels.match_counts(cells, Xw, labels[:n])
        assert counts.dtype == np.int64 and counts.tolist() == [
            matched.sum(axis=1).tolist(), (matched & labels[:n]).sum(axis=1).tolist()]
        first = kernels.match_first_pattern(cells, Xw)
        lowest = np.vstack([matched, np.ones(n, bool)]).argmax(axis=0)
        assert first.dtype == np.int64 and first.tolist() == lowest.tolist()
        assert kernels.match_counts(cells[:0], Xw, labels[:n]).shape == (2, 0)
        assert kernels.match_first_pattern(cells[:0], Xw).tolist() == [0] * n
    assert (first[1::2] < n_patterns).all()  # the planted clips match
    empty_bank = PatternBank(patterns=(), vocabulary=vocab)
    ds = Dataset(vocabulary=vocab, steps=X, labels=np.zeros(len(X)))
    assert not bank_predict_batch(empty_bank, ds).any()
    assert kernels.match_first_window(cells[:0], kernels.clip_windows(X, 3, padding)).shape == (
        0, len(X))
    none = Dataset(vocabulary=vocab, steps=X[:0], labels=[])  # a split of 0 clips
    assert bank_predict_batch(bank, none).shape == (0,)
    Xw = kernels.clip_windows(X[:0], 3, padding)
    assert kernels.match_first_window(cells, Xw).shape == (n_patterns, 0)
    assert kernels.match_any(cells, X[:0]).shape == (0,)


def test_matching_holds_one_block_of_counts(vocab):
    """A block of 400 patterns holds about MATCH_BLOCK_PRODUCTS float32
    products, freed once they are thresholded, so each reduction over three
    blocks peaks below two blocks' products. A 7-pattern bank's clip rows
    peak below two blocks' products plus the float32 clip buffer, and share
    one read-only shift-stacked matrix."""
    rng = np.random.default_rng(5)
    cells = np.stack([random_legal_pattern(vocab, 3, rng).cells for _ in range(400)])
    width = len(cells)  # a multiple of 4: no padding columns
    rows = kernels.MATCH_BLOCK_PRODUCTS // width // 5 * 5  # whole five-window clips
    X = random_legal_clip_batch(vocab, 3 * rows // 5, 5, rng)
    Xw = kernels.clip_windows(X, 3, 1)
    labels = rng.random(len(X)) < 0.5
    assert len(list(kernels.match_blocks(cells, Xw))) == 3
    for reduce, args in ((kernels.match_counts, (labels,)), (kernels.match_first_pattern, ())):
        peak = traced_peak(reduce, cells, Xw, *args)[1]
        assert peak < 2 * rows * width * 4, reduce.__name__
    assert traced_peak(kernels.match_any, cells, X)[1] < 2 * rows * width * 4

    narrow = cells[:7]
    products = 5 * 8  # five windows of 8 padded columns a clip
    clips = kernels.MATCH_BLOCK_PRODUCTS // products
    X = random_legal_clip_batch(vocab, 3 * clips, 5, rng)
    assert len(list(kernels.match_clip_rows(narrow, X))) == 3
    shifted = kernels._shifted_matrix(narrow.tobytes(), narrow.shape, 5, vocab.d, 1)
    assert shifted.shape == (5 * vocab.d + 1, products)
    with pytest.raises(ValueError, match="read-only"):
        shifted[0, 0] = 1.0
    buffer = clips * (5 * vocab.d + 1) * 4
    assert traced_peak(kernels.match_any, narrow, X)[1] < 2 * clips * products * 4 + buffer


def test_match_empty_inputs():
    out = kernels.match_first_window(np.zeros((0, 3, 5), np.uint8),
                                     np.zeros((4, 5, 15), np.uint8))
    assert out.shape == (0, 4)
    out = kernels.match_first_window(np.ones((2, 3, 5), np.uint8),
                                     np.zeros((0, 5, 15), np.uint8))
    assert out.shape == (2, 0)


def test_match_rejects_a_pattern_of_another_width():
    steps = np.zeros((4, 5, 5), np.uint8)
    X = kernels.clip_windows(steps, 3, 1)
    with pytest.raises(DataError, match="does not fit windows of 15 cells"):
        kernels.match_first_window(np.ones((1, 3, 4), np.uint8), X)
    with pytest.raises(DataError, match="does not fit windows of 15 cells"):
        kernels.match_first_window(np.ones((1, 2, 5), np.uint8), X)
    # match_any says the same of clip steps, by clip rows and by window rows
    for P in (1, 132):
        with pytest.raises(DataError, match="a 3x4 pattern does not fit windows of 15 cells"):
            kernels.match_any(np.ones((P, 3, 4), np.uint8), steps)


def test_conv_forward_matches_direct_sum(vocab):
    rng = np.random.default_rng(7)
    X = random_legal_clip_batch(vocab, 6, 5, rng)
    Xp = padded_clips(X, 1)
    Xw = kernels.clip_windows(X, 3, 1).astype(np.float64)
    W = rng.random((4, 3, vocab.d))
    h = kernels.conv_forward_batch(W, Xw)
    assert h.shape == (6, 5, 4)
    for b, c, m in [(3, 4, 2), (0, 0, 0), (5, 2, 3)]:
        direct = sum(W[m, n, j] * Xp[b, c + n, j] for n in range(3) for j in range(vocab.d))
        assert h[b, c, m] == pytest.approx(direct)

    dh = rng.standard_normal(h.shape)
    dW = kernels.conv_backward_batch(dh, Xw, 3)
    assert dW.shape == W.shape
    m, n, j = 1, 2, 5
    direct = sum(dh[b, c, m] * Xp[b, c + n, j] for b in range(6) for c in range(5))
    assert dW[m, n, j] == pytest.approx(direct)


def test_bench_kernels_script_runs(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.main(["--clips", "8", "--filters", "4", "--repeats", "1", "--pool-sizes", "30"])
    out = capsys.readouterr().out
    for name in ("conv_forward", "conv_backward", "prune_subsumed", "harvest_filters"):
        assert name in out
    for name in ("match_first_window", "clip_windows"):
        rows = [line.split() for line in out.splitlines() if line.startswith(name)]
        assert [row[1] for row in rows] == ["8", "1"]  # the batch and a single clip
    rows = [line.split() for line in out.splitlines() if line.startswith("match_any")]
    assert [row[1] for row in rows] == ["1"]  # a single clip, as synth tests a candidate
    # each single-clip row and each step row: the median over fresh processes
    rows = [line.split()[0] for line in out.splitlines() if "median of 5 processes," in line]
    assert rows == ["clip_windows", "match_first_window", "match_any", "train", "bce+bce_grad",
                    "regularizer_grad", "regularizer_grad"]
    rows = [line.split() for line in out.splitlines() if line.split()[1:2] == ["1"]]
    assert len(rows) == 3 and all(row[2].endswith("us") for row in rows)
    rows = [line.split() for line in out.splitlines() if line.startswith("bank_predict_batch")]
    assert [(row[1], row[3]) for row in rows] == [("8", "7"), ("8", "8"), ("8", "131"),
                                                  ("8", "132"), ("8", "7")]
    assert [row[7:] for row in rows] == [[]] * 4 + [["20-step", "clips"]]  # by window rows
    assert all(row[5].endswith("MB") and float(row[5][:-2]) > 0 and row[6] == "peak"
               for row in rows)  # the tracemalloc peak of one call
    rows = [line.split() for line in out.splitlines() if line.startswith("prune_subsumed")]
    assert [row[1] for row in rows] == ["30"]
    assert all(row[4].endswith("MB") and float(row[4][:-2]) > 0 and row[5] == "peak"
               for row in rows)  # the tracemalloc peak of one call
    rows = [line.split() for line in out.splitlines() if line.startswith("rank+curve")]
    assert [(row[1], row[3]) for row in rows] == [("30", "8")]  # the pool over the batch
    assert all(row[4].endswith("MB") and float(row[4][:-2]) > 0 and row[5] == "peak"
               for row in rows)
    rows = [line.split() for line in out.splitlines()
            if line.startswith("eval_filter_precision")]
    assert [(row[1], row[3], row[4]) for row in rows] == [("8", "64", "filters"),
                                                          ("8", "2048", "filters")]
    assert all(row[5].endswith("MB") and float(row[5][:-2]) > 0 and row[6] == "peak"
               for row in rows)
    rows = [line.split() for line in out.splitlines() if line.startswith("harvest+dedup")]
    assert [(row[1], row[3]) for row in rows] == [("570", "30")]  # 19 raw per unique
    rows = [line.split() for line in out.splitlines() if line.startswith("auc")]
    assert [(row[1], row[3]) for row in rows] == [("8", "tie-heavy"), ("8", "bool"),
                                                  ("100000", "tie-heavy"), ("100000", "bool")]
    rows = [line.split() for line in out.splitlines() if line.startswith("evaluate")]
    assert [(row[1], row[3]) for row in rows] == [("8", "7")]  # the 7-pattern bank
    rows = [line.split() for line in out.splitlines() if line.startswith("load_dataset")]
    assert [(row[1], row[3]) for row in rows] == [("8", "canonical"), ("8", "json")]
    rows = [line.split() for line in out.splitlines() if line.startswith("train step")]
    assert [row[2] for row in rows] == ["8"]  # the batch, below the batch size of 64
    rows = [line.split() for line in out.splitlines() if line.startswith("bce+bce_grad")]
    assert [row[1] for row in rows] == ["8"]  # the step's outputs
    rows = [line.split() for line in out.splitlines() if line.startswith("regularizer_grad")]
    assert [row[-4:] for row in rows] == [["4", "filters,", "weights", "off"],
                                          ["4", "filters,", "weights", "on"]]

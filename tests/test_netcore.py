"""Forward/backward core: shapes, the four thresholding stages, blending,
dropout, finite-difference gradient checks, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_legal_clip_batch
from patternconv import curator, kernels, netcore, objective, trainer
from patternconv.corpus import FeatureVocabulary
from patternconv.errors import DataError
from patternconv.netcore import (ModelState, backward_batch,
                                 forward_batch, init_state, maxpool, sigmoid,
                                 thresholding_forward, thresholding_weights)


def _state(M=2, k=3, d=13, seed=0, **kw):
    return init_state(M, k, d, rng=np.random.default_rng(seed), **kw)


# -------------------------------------------------------------- convolution

def test_conv_zero_filters_zero_maps(vocab):
    st_ = _state(d=vocab.d)
    st_.W[:] = 0.0
    rng = np.random.default_rng(0)
    X = random_legal_clip_batch(vocab, 1, 5, rng)
    _, cache = forward_batch(st_, X)
    assert (cache.h_pre == 0).all()


def test_conv_window_self_match_counts_ones(vocab):
    rng = np.random.default_rng(1)
    X = random_legal_clip_batch(vocab, 1, 5, rng)[0]
    st_ = _state(M=1, d=vocab.d)
    st_.W[0] = X[1:4].astype(np.float64)  # filter equals the middle window
    _, cache = forward_batch(st_, X[None])
    # padded window index 2 aligns the filter with clip steps 1..3
    assert cache.h_pre[0, 2, 0] == pytest.approx(X[1:4].sum())


def test_conv_position_count():
    st_ = _state(d=13)
    X = np.zeros((1, 5, 13))
    assert forward_batch(st_, X)[1].h_pre.shape == (1, 5, 2)  # C = 5-3+1+2


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 12), k=st.integers(1, 4))
def test_shape_law(L, k):
    padding = kernels.padding_for(k)
    st_ = init_state(2, k, 13, rng=np.random.default_rng(0))
    X = np.zeros((1, L, 13))
    if L + 2 * padding < k:
        with pytest.raises(DataError, match="too short"):
            forward_batch(st_, X)
        return
    C = forward_batch(st_, X)[1].h_pre.shape[1]
    assert C == L - k + 1 + 2 * padding


def test_conv_dimension_mismatch():
    with pytest.raises(DataError, match=r"neither the model's d = 13 .* nor k·d = 39"):
        forward_batch(_state(d=13), np.zeros((1, 5, 7)))


def test_a_2d_input_error_names_both_shapes():
    """A single clip (L, d) without its batch axis is no input form of the
    model: the error names the shapes it takes and the shape it got."""
    with pytest.raises(DataError, match=r"input must be clips \(B, L, 13\) or clip windows "
                                        r"\(B, C, 39\), not shape \(5, 13\)"):
        forward_batch(_state(d=13), np.zeros((5, 13)))
    with pytest.raises(DataError, match=r"input must be clips \(N, L, 13\), not shape \(5, 13\)"):
        netcore.predict(_state(d=13), np.zeros((5, 13)))


@pytest.mark.parametrize("k,padding", [(3, 3), (3, -1), (1, 1)])
def test_state_rejects_padding_outside_0_to_k_minus_1(k, padding):
    """A model file may record only the padding of its k, 1 or 0 at k = 1."""
    doc = json.loads(netcore.state_to_json(_state(k=k)))
    doc["padding"] = padding
    with pytest.raises(DataError, match=f"model file 'padding' must be {min(1, k - 1)} at "
                                        f"k = {k}, not {padding}"):
        netcore.state_from_json(doc)


def test_k1_windows_are_the_clips(vocab):
    """At k = 1 the clip and window widths are both d and the padding is 0,
    so forward_batch reads either as the same windows."""
    X = random_legal_clip_batch(vocab, 4, 5, np.random.default_rng(2))
    st_ = _state(M=3, k=1, d=vocab.d)
    assert (kernels.clip_windows(X, 1) == X).all()
    h_pre = forward_batch(st_, X)[1].h_pre
    assert np.allclose(h_pre, X.astype(np.float64) @ st_.W[:, 0].T)


# ------------------------------------------------------------------ pooling

def test_maxpool_tie_takes_lowest_index():
    vals, arg = maxpool(np.array([[0.0, 3.0, 1.0, 3.0, 0.0]])[:, :, None])
    assert vals[0, 0] == 3.0 and arg[0, 0] == 1


def test_pooling_ties_route_to_lowest_window(vocab, monkeypatch):
    """Every legal step carries exactly one submission type, so binary
    filters that weigh only submission types score 3 on each window inside a
    clip and 2 on the two windows that overlap the padding: the pooled max
    ties across windows 1-3, and its gradient must reach window 1 alone."""
    rng = np.random.default_rng(12)
    X = random_legal_clip_batch(vocab, 4, 5, rng)
    st_ = _state(M=3, d=vocab.d, seed=13)
    st_.W[:] = 0.0
    st_.W[:, :, list(vocab.submission_indices)] = 1.0
    st_.alpha = 0.5
    st_.fc_trad[:] = [0.3, -0.2, 0.1]
    y, cache = forward_batch(st_, X)

    Xw = kernels.clip_windows(X, 3, 1).astype(np.float64)
    assert (forward_batch(st_, Xw)[1].h_pre == cache.h_pre).all()
    direct = np.einsum("mkd,bckd->bcm", st_.W, Xw.reshape(4, 5, 3, vocab.d))
    assert (cache.h_pre == direct).all()
    assert (cache.h_pre[:, 1:4] == 3.0).all() and (cache.h_pre[:, [0, 4]] == 2.0).all()
    assert (cache.argmax == 1).all()

    seen = []
    conv_backward = kernels.conv_backward_batch
    monkeypatch.setattr(kernels, "conv_backward_batch",
                        lambda dh, Xw, k: seen.append(dh.copy()) or conv_backward(dh, Xw, k))
    backward_batch(st_, cache, np.ones(4))
    (dh,) = seen
    assert (dh[:, 1] != 0).all()
    assert (np.delete(dh, 1, axis=1) == 0).all()


def test_maxpool_zero_and_single():
    vals, _ = maxpool(np.array([[0.0, 0.0], [0.0, 2.5]])[:, :, None])
    assert vals[:, 0].tolist() == [0.0, 2.5]


# ------------------------------------------------------- thresholding stages

def test_thresholding_weights_formula():
    W = np.zeros((3, 3, 13))
    W[0].flat[:12] = 1.0
    W[2, :, :] = 0.5
    w = thresholding_weights(W)
    assert w[0] == pytest.approx(1 / 12, rel=1e-5)
    assert w[1] == pytest.approx(1e6)
    assert w[2] == pytest.approx(1 / (19.5 + 1e-6))


def test_thresholding_perfect_match_activation():
    f = np.array([[1.0, 0.2, 0.1]])
    w = np.array([1.0, 1.0, 1.0])
    y, a, s = thresholding_forward(f, w)
    assert a[0, 0] == pytest.approx(sigmoid(np.array([200 * (1 - 0.99)]))[0], rel=1e-9)
    assert a[0, 0] == pytest.approx(0.8808, abs=1e-3)
    assert y[0] >= 0.85


def test_thresholding_no_match_below_half():
    y, a, _ = thresholding_forward(np.array([[0.9, 0.5]]), np.ones(2))
    assert (a < 0.5).all() and y[0] < 0.5


def test_thresholding_boundary():
    y, a, s = thresholding_forward(np.array([[0.99]]), np.ones(1))
    assert a[0, 0] == pytest.approx(0.5) and s[0, 0] == 1.0 and y[0] == pytest.approx(0.5)


# --------------------------------------------------------- traditional head

def test_traditional_zero_weights(vocab):
    st_ = _state(M=2, d=vocab.d)
    st_.fc_trad[:] = 0.0
    X = random_legal_clip_batch(vocab, 3, 5, np.random.default_rng(0))
    _, cache = forward_batch(st_, X)
    assert cache.y_trad == pytest.approx([0.5] * 3)


def test_traditional_linear_sigmoid():
    """Pooled activations (1, 0) through weights (2, -1): sigmoid(2)."""
    st_ = _state(M=2, d=13)
    st_.W[:] = 0.0
    st_.W[0, 1, 4] = 1.0
    st_.fc_trad[:] = [2.0, -1.0]
    X = np.zeros((1, 5, 13))
    X[0, 2, 4] = 1.0
    _, cache = forward_batch(st_, X)
    assert cache.f[0].tolist() == [1.0, 0.0]
    assert cache.y_trad[0] == pytest.approx(sigmoid(np.array([2.0]))[0], rel=1e-9)


# ------------------------------------------------------------ blend and clip

def test_blend_endpoints(vocab):
    rng = np.random.default_rng(2)
    X = random_legal_clip_batch(vocab, 1, 5, rng).astype(np.float64)
    st_ = _state(M=4, d=vocab.d, seed=3)
    st_.alpha = 0.0
    y0, cache0 = forward_batch(st_, X)
    assert y0[0] == pytest.approx(float(cache0.y_trad[0]))
    st_.alpha = 1.0
    y1, cache1 = forward_batch(st_, X)
    assert y1[0] == pytest.approx(float(cache1.y_thresh[0]))


def test_blend_midpoint_arithmetic():
    assert (1 - 0.5) * 0.9 + 0.5 * 0.881 == pytest.approx(0.8905)


def test_forward_deterministic_eval(vocab):
    rng = np.random.default_rng(4)
    X = random_legal_clip_batch(vocab, 3, 5, rng).astype(np.float64)
    st_ = _state(M=8, d=vocab.d, seed=5)
    y1, _ = forward_batch(st_, X)
    y2, _ = forward_batch(st_, X)
    assert (y1 == y2).all()


def test_output_clipped_to_one(vocab):
    st_ = _state(M=1, d=vocab.d)
    st_.alpha = 0.0
    st_.fc_trad[:] = 100.0
    X = random_legal_clip_batch(vocab, 1, 5, np.random.default_rng(0)).astype(np.float64)
    y, _ = forward_batch(st_, X)
    assert y[0] <= 1.0


# ------------------------------------------------------------------- dropout

def test_dropout_only_in_training(vocab):
    rng = np.random.default_rng(6)
    X = random_legal_clip_batch(vocab, 16, 5, rng).astype(np.float64)
    st_ = _state(M=8, d=vocab.d, seed=7)
    y_eval, cache = forward_batch(st_, X)
    assert set(np.unique(cache.pool_gate)) <= {0.0, 1.0}  # no dropout scale
    y_tr, cache_tr = forward_batch(st_, X, dropout=0.5, rng=np.random.default_rng(1))
    assert (cache_tr.pool_gate == 2.0).any()
    assert not np.allclose(y_eval, y_tr)


def test_dropout_inverted_scaling(vocab):
    st_ = _state(M=2, d=vocab.d)
    X = random_legal_clip_batch(vocab, 4, 5, np.random.default_rng(2)).astype(np.float64)
    _, cache = forward_batch(st_, X, dropout=0.25, rng=np.random.default_rng(3))
    kept = cache.pool_gate[cache.pool_gate > 0]
    assert kept.size and np.allclose(kept, 1.0 / 0.75)
    # a kept window's activation is scaled up by the same factor
    _, plain = forward_batch(st_, X)
    h = np.maximum(plain.h_pre, 0.0)
    pooled = h[np.arange(4)[:, None], cache.argmax, np.arange(2)[None, :]]
    np.testing.assert_allclose(cache.f[cache.pool_gate > 0],
                               pooled[cache.pool_gate > 0] / 0.75)


# ----------------------------------------------------------------- gradients

def _fd_check(st_, X, labels, rtol=1e-4, h=1e-5, dropout=0.0, dropout_seed=None):
    """Central finite differences of batch BCE w.r.t. every W entry; under
    dropout, every pass draws the same masks from the dropout seed."""

    def loss_of(W):
        s2 = st_.copy()
        s2.W = W
        y, _ = forward_batch(s2, X, dropout, rng=dropout_seed)
        return float(np.asarray(objective.bce(y, labels)).sum())

    y, cache = forward_batch(st_, X, dropout, rng=dropout_seed)
    d_y = objective.bce_grad(y, labels)
    grads = backward_batch(st_, cache, d_y)
    g = grads["W"]
    bad = 0
    for idx in np.ndindex(*st_.W.shape):
        Wp, Wm = st_.W.copy(), st_.W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        fd = (loss_of(Wp) - loss_of(Wm)) / (2 * h)
        if abs(g[idx]) > 1e-8:
            if abs(fd - g[idx]) / max(abs(fd), abs(g[idx])) > rtol:
                bad += 1
    return bad


def test_gradients_match_finite_differences(vocab):
    rng = np.random.default_rng(8)
    for trial in range(8):
        M = int(rng.integers(1, 4))
        st_ = _state(M=M, d=vocab.d, seed=100 + trial)
        st_.alpha = float(rng.random())
        X = random_legal_clip_batch(vocab, 3, 5, rng).astype(np.float64)
        labels = rng.integers(0, 2, size=3).astype(np.float64)
        assert _fd_check(st_, X, labels) == 0
        # under dropout; alpha = 0 keeps the steep thresholding head, where central
        # differences are too coarse, out of this check
        st_.alpha = 0.0
        assert _fd_check(st_, X, labels, dropout=0.3, dropout_seed=trial) == 0


def test_zero_upstream_gradient(vocab):
    st_ = _state(M=3, d=vocab.d)
    X = random_legal_clip_batch(vocab, 2, 5, np.random.default_rng(0)).astype(np.float64)
    _, cache = forward_batch(st_, X)
    g = backward_batch(st_, cache, np.zeros(2))
    assert (g["W"] == 0).all() and (g["fc_trad"] == 0).all()


def test_frozen_fc_gets_zero_gradient(vocab):
    """backward_batch returns the traditional head's gradient whether or not
    the head is frozen; a frozen epoch of train_epoch leaves fc_trad as it
    was and logs its gradient norm as 0, and an unfrozen one does neither."""
    rng = np.random.default_rng(0)
    X = random_legal_clip_batch(vocab, 8, 5, rng)
    for freeze in (True, False):
        st_ = _state(M=3, d=vocab.d)
        _, cache = forward_batch(st_, X)
        assert (backward_batch(st_, cache, np.ones(8))["fc_trad"] != 0).any()
        windows = trainer.WindowedSet(X=kernels.clip_windows(X, st_.k),
                                      labels=np.arange(8) % 2 == 0, vocabulary=vocab)
        fc0 = st_.fc_trad.copy()
        rec = trainer.train_epoch(st_, windows, objective.LossWeights(), 0.5, freeze,
                                  np.random.default_rng(1), 1.0, 0.05, 0.2)
        assert (st_.fc_trad == fc0).all() == freeze
        assert (rec["grad_norm_fc"] == 0.0) == freeze


def test_subgradient_zero_at_exact_zero(vocab):
    """A weight at exactly 0, over a feature absent from the clip, gets no
    gradient through the |W| path (sign(0) = 0 convention)."""
    st_ = _state(M=1, d=vocab.d)
    st_.alpha = 1.0
    j_absent = sorted(vocab.help_related)[0]
    X = random_legal_clip_batch(vocab, 1, 5, np.random.default_rng(9)).astype(np.float64)
    X[:, :, j_absent] = 0.0
    st_.W[0, :, j_absent] = 0.0
    y, cache = forward_batch(st_, X)
    g = backward_batch(st_, cache, np.ones(1))
    assert (g["W"][0, :, j_absent] == 0).all()


# ------------------------------------------------------------- serialization

def test_state_json_round_trip():
    """W, fc_trad and alpha survive. The model file records neither the
    freeze flag nor the dropout rate, and a file written when it did still
    loads: both keys are read past, as any other extra key is."""
    st_ = _state(M=3, d=13, seed=11)
    st_.alpha = 0.4
    text = netcore.state_to_json(st_)
    back = netcore.state_from_json(text)
    assert (back.W == st_.W).all()
    assert (back.fc_trad == st_.fc_trad).all()
    assert back.alpha == st_.alpha
    doc = json.loads(text)
    assert list(doc) == ["format", "version", "M", "k", "d", "padding", "W", "fc_trad",
                         "thresh", "alpha"]
    doc["fc_frozen"], doc["dropout_rate"] = True, 0.2
    assert netcore.state_to_json(netcore.state_from_json(json.dumps(doc))) == text


def test_filters_json_round_trip():
    """W, the era and NaN precisions (written as null) survive; the file
    records the padding of 3-step filters, 1."""
    W = np.random.default_rng(0).random((4, 3, 13))
    precision = np.array([0.5, np.nan, 1.0, 0.0])
    snap = netcore.EraSnapshot(era=7, W=W, per_filter_precision=precision)
    text = netcore.filters_to_json(snap, {"config_hash": "abc"})
    assert json.loads(text)["per_filter_precision"] == [0.5, None, 1.0, 0.0]
    assert json.loads(text)["padding"] == 1
    back = netcore.filters_from_json(text)
    assert (back.W == W).all() and back.era == 7
    assert np.array_equal(back.per_filter_precision, precision, equal_nan=True)


@pytest.mark.parametrize("k,want", [(1, 0), (3, 1)])
def test_a_missing_padding_reads_as_1_or_0_at_k_1(vocab, k, want):
    """Model, snapshot and bank files record padding 1, or 0 at k = 1, where
    padding 1 would pass k - 1; a file written before the field loads as the
    same file with it."""
    state = init_state(4, k, vocab.d, rng=0)
    snap = netcore.EraSnapshot(era=0, W=state.W, per_filter_precision=np.full(4, np.nan))
    cells = np.zeros((k, vocab.d), dtype=np.uint8)
    cells[0, vocab.help_index] = 1
    bank = curator.PatternBank(patterns=(curator.Pattern(cells=cells, pattern_id="p"),),
                               vocabulary=vocab)
    for dump, load, value in ((netcore.state_to_json, netcore.state_from_json, state),
                              (netcore.filters_to_json, netcore.filters_from_json, snap),
                              (curator.bank_to_json, curator.bank_from_json, bank)):
        doc = json.loads(dump(value))
        assert doc.pop("padding") == want
        assert dump(load(json.dumps(doc))) == dump(value)


@pytest.mark.parametrize("load", [netcore.state_from_json, netcore.filters_from_json])
def test_malformed_model_and_snapshot_files_raise_data_error(load):
    with pytest.raises(DataError, match="is not JSON"):
        load('{"W": [0.5,')
    with pytest.raises(DataError, match="is not a JSON object"):
        load("[1, 2]")
    W = _state().W
    text = (netcore.state_to_json(_state()) if load is netcore.state_from_json
            else netcore.filters_to_json(netcore.EraSnapshot(0, W, np.full(len(W), np.nan))))
    doc = json.loads(text)
    del doc["W"]
    with pytest.raises(DataError, match="missing key 'W'"):
        load(json.dumps(doc))


def test_model_file_records_the_head_constants():
    """The model file writes the head's four constants, byte for byte, and a
    file that leaves them all out reads as they are. (One of another value,
    or an unknown key, exits 2: see test_cli's unusable documents.)"""
    text = netcore.state_to_json(_state())
    assert ('"thresh":{"steepness":200.0,"offset":0.99,"temperature":0.01,"epsilon":1e-06}'
            in text)
    doc = json.loads(text)
    doc["thresh"] = {}
    assert netcore.state_to_json(netcore.state_from_json(json.dumps(doc))) == text


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_rate_outside_0_1_is_refused(vocab, rate):
    """A rate of 1 keeps no cell and would scale the kept ones by 1 / 0."""
    X = random_legal_clip_batch(vocab, 2, 5, np.random.default_rng(0))
    with pytest.raises(DataError, match=r"dropout must lie in \[0, 1\)"):
        forward_batch(_state(d=vocab.d), X, dropout=rate, rng=0)

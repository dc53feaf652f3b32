"""The training step computes the same bits as its plain formulas.

`forward_batch`, `backward_batch`, `regularizer_grad` and `train_epoch` reuse
temporaries, skip terms whose weight is zero and skip the traditional head
when alpha is 1. The references below are the straightforward formulas, one
fresh array per operation, every term computed: a training run is
reproducible from its seed only while the step stays byte-identical to them.
The y-only `predict` is pinned to `forward_batch`, and `synth_generate` to
digests of the datasets it generates.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import random_legal_clip_batch
from patternconv import kernels, netcore, objective, trainer
from patternconv.objective import LossWeights, MinPenaltyParams


# ---------------------------------------------------------------- references

def _ref_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _ref_maxpool(h, axis):
    C = h.shape[axis]
    f = h.max(axis=axis, keepdims=True)
    shape = [1] * h.ndim
    shape[axis] = C
    rank = np.arange(C, 0, -1, dtype=np.min_scalar_type(C)).reshape(shape)
    arg = C - (rank * (h == f)).max(axis=axis)
    return f.squeeze(axis), arg.astype(np.intp)


def _ref_forward(state, Xw, dropout, rng):
    """(y, cache dict) of windows Xw (B, C, k·d) at a dropout rate."""
    X = np.asarray(Xw, dtype=np.float64)
    B, C, kd = X.shape
    M = state.M
    h_pre = (X.reshape(-1, kd) @ state.W.reshape(M, kd).T).reshape(B, C, M)
    h = np.maximum(h_pre, 0.0)
    scale = 1.0
    if dropout > 0.0:
        keep = 1.0 - dropout
        h = h * ((rng.random((B, M, C)) < keep).astype(np.float64) / keep).transpose(0, 2, 1)
        scale = 1.0 / keep
    f, arg = _ref_maxpool(h, axis=1)
    gate = np.where(f > 0.0, scale, 0.0)
    p = netcore.THRESH
    w = 1.0 / (np.abs(state.W).reshape(M, -1).sum(axis=1) + p["epsilon"])
    a = _ref_sigmoid(p["steepness"] * (f * w - p["offset"]))
    e = np.exp((a - a.max(axis=-1, keepdims=True)) / p["temperature"])
    s = e / e.sum(axis=-1, keepdims=True)
    y_thresh = (a * s).sum(axis=-1)
    y_trad = _ref_sigmoid(f @ state.fc_trad)
    y_pre = (1.0 - state.alpha) * y_trad + state.alpha * y_thresh
    cache = dict(X=X, h_pre=h_pre, f=f, argmax=arg, pool_gate=gate, w=w, a=a, s=s,
                 y_trad=y_trad, y_thresh=y_thresh, y_preclip=y_pre)
    return np.minimum(y_pre, 1.0), cache


def _ref_backward(state, c, d_y):
    t, tau = netcore.THRESH["steepness"], netcore.THRESH["temperature"]
    d_y = np.asarray(d_y, dtype=np.float64) * (c["y_preclip"] < 1.0)
    dy_trad = (1.0 - state.alpha) * d_y
    dy_thresh = state.alpha * d_y
    du = dy_trad * c["y_trad"] * (1.0 - c["y_trad"])
    dfc = c["f"].T @ du
    df = du[:, None] * state.fc_trad[None, :]
    da = dy_thresh[:, None] * (c["s"] + c["s"] * (c["a"] - c["y_thresh"][:, None]) / tau)
    dz = da * t * c["a"] * (1.0 - c["a"])
    df += dz * c["w"][None, :]
    dw = (dz * c["f"]).sum(axis=0)
    dW = (-dw * c["w"] ** 2)[:, None, None] * np.sign(state.W)
    B, C, M = c["h_pre"].shape
    dh = np.zeros_like(c["h_pre"])
    dh[np.arange(B)[:, None], c["argmax"], np.arange(M)] = df * c["pool_gate"]
    X = c["X"]
    dW += (dh.reshape(-1, M).T @ X.reshape(-1, X.shape[2])).reshape(M, state.k, state.d)
    return {"W": dW, "fc_trad": dfc}


def _ref_regularizer_grad(W, weights, vocab, mp=MinPenaltyParams()):
    h_idx, a_idx = sorted(vocab.help_related), sorted(vocab.attempt_related)
    sub_idx = list(vocab.submission_indices)
    inner = mp.rate ** (mp.onset - W.sum(axis=2))
    s = W[:, :, sub_idx].sum(axis=2)
    u = W[:, :, h_idx].sum(axis=2) / len(h_idx)
    v = W[:, :, a_idx].sum(axis=2) / len(a_idx)
    g = np.zeros_like(W)
    g += weights.bin * (np.sign(W * W - W) * (2.0 * W - 1.0))
    dmass = np.where(inner - mp.bias > 0, -np.log(mp.rate) * inner, 0.0)
    g += weights.min * dmass[:, :, None]
    g[:, :, sub_idx] += weights.sub * (s > 1.0)[:, :, None]
    h_side = u * u <= v * v
    g[:, :, h_idx] += weights.poss * np.where(h_side, 2.0 * u / len(h_idx), 0.0)[:, :, None]
    g[:, :, a_idx] += weights.poss * np.where(~h_side, 2.0 * v / len(a_idx), 0.0)[:, :, None]
    return g


def _ref_regularizer_terms(W, vocab, mp=MinPenaltyParams()):
    h_idx, a_idx = sorted(vocab.help_related), sorted(vocab.attempt_related)
    inner = mp.rate ** (mp.onset - W.sum(axis=2))
    s = W[:, :, list(vocab.submission_indices)].sum(axis=2)
    u = W[:, :, h_idx].sum(axis=2) / len(h_idx)
    v = W[:, :, a_idx].sum(axis=2) / len(a_idx)
    return {"bin": float(np.abs(W * W - W).sum()),
            "min": float(np.maximum(inner - mp.bias, 0.0).sum()),
            "sub": float(np.maximum(s - 1.0, 0.0).sum()),
            "poss": float(np.minimum(u * u, v * v).sum())}


def _ref_train_epoch(state, train_set, weights, alpha, freeze, rng, pos_weight, lr, dropout):
    state.alpha = alpha
    labels_all = train_set.labels.astype(np.float64)
    order = rng.permutation(len(train_set))
    bce_sum = norm_conv = norm_fc = 0.0
    n = 0
    for start in range(0, len(order), trainer.BATCH_SIZE):
        idx = order[start:start + trainer.BATCH_SIZE]
        labels = labels_all[idx]
        y, cache = _ref_forward(state, train_set.X[idx], dropout, rng)
        clip_w = np.where(labels == 1.0, pos_weight, 1.0)
        batch_bce = float((clip_w * objective.bce(y, labels)).mean())
        assert math.isfinite(batch_bce)
        d_y = clip_w * objective.bce_grad(y, labels) / len(idx)
        grads = _ref_backward(state, cache, d_y)
        dW = grads["W"] + _ref_regularizer_grad(state.W, weights, train_set.vocabulary)
        state.W -= lr * dW
        np.clip(state.W, 0.0, 1.0, out=state.W)
        if not freeze:
            state.fc_trad -= lr * grads["fc_trad"]
            norm_fc += float(np.linalg.norm(grads["fc_trad"]))
        bce_sum += batch_bce
        norm_conv += float(np.linalg.norm(dW))
        n += 1
    return bce_sum / n, norm_conv / n, norm_fc / n


# -------------------------------------------------------------------- inputs

def _weights_in_unit_box(rng, shape):
    """Uniform weights with a share clamped to exactly 0 and 1, as training's
    clamp leaves them."""
    W = rng.random(shape) * 1.4 - 0.2
    return np.clip(W, 0.0, 1.0)


def _batch(vocab, seed, B=64, M=16, k=3, L=5):
    rng = np.random.default_rng(seed)
    state = netcore.init_state(M, k, vocab.d, rng=rng)
    state.W[:] = _weights_in_unit_box(rng, state.W.shape)
    X = random_legal_clip_batch(vocab, B, L, rng)
    Xw = kernels.clip_windows(X, k)
    # half the filters are jittered copies of batch windows, so that their
    # pooled activations reach the thresholding offset and the head's
    # sigmoid and softmax are not saturated at exact 0 or 1
    half = M // 2
    picks = Xw[rng.integers(B, size=half), rng.integers(Xw.shape[1], size=half)]
    jitter = rng.uniform(-0.03, 0.03, size=picks.shape)
    state.W[:half] = np.clip(picks + jitter, 0.0, 1.0).reshape(half, k, vocab.d)
    # BCE-like gradients of both signs, with exact zeros
    d_y = rng.standard_normal(B) / B
    d_y[rng.random(B) < 0.2] = 0.0
    return state, X, Xw, d_y


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("dropout", [0.3, 0.0], ids=["dropout", "eval"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_matches_reference_bits(vocab, dropout, alpha, frozen, seed):
    """Two steps on one batch. Between them, train_epoch's SGD update moves W,
    and fc_trad too unless the head is frozen, so the second step runs on
    the state a frozen or an unfrozen epoch leaves."""
    state, _, Xw, d_y = _batch(vocab, seed)
    state.alpha = alpha
    for step in range(2):
        y_ref, c_ref = _ref_forward(state, Xw, dropout, np.random.default_rng(seed + 10 + step))
        y, cache = netcore.forward_batch(state, Xw, dropout,
                                         np.random.default_rng(seed + 10 + step))
        assert _bits(y) == _bits(y_ref)
        for name in ("h_pre", "f", "argmax", "pool_gate", "a", "s", "y_thresh"):
            assert _bits(getattr(cache, name)) == _bits(c_ref[name]), name
        assert (cache.y_trad is None) == (alpha == 1.0)
        g_ref = _ref_backward(state, c_ref, d_y)
        g = netcore.backward_batch(state, cache, d_y)
        assert _bits(g["W"]) == _bits(g_ref["W"])
        assert _bits(g["fc_trad"]) == _bits(g_ref["fc_trad"])
        state.W -= 0.05 * g["W"]
        np.clip(state.W, 0.0, 1.0, out=state.W)
        if not frozen:
            state.fc_trad -= 0.05 * g["fc_trad"]


def test_dropout_scales_the_maps_before_the_pool(vocab):
    """Two windows whose activations differ by one ulp tie once scaled by
    1/keep; the pool takes the lower one, as h * (mask / keep) does.
    Scaling the pooled max instead would keep the higher window."""
    keep = 0.7
    scale = 1.0 / keep
    lo = 0.9
    while lo * scale != np.nextafter(lo, 2.0) * scale:
        lo = np.nextafter(lo, 2.0)
    state = netcore.init_state(1, 1, vocab.d, rng=0)
    state.W[:] = 0.0
    state.W[0, 0, 3], state.W[0, 0, 4] = lo, np.nextafter(lo, 2.0)
    Xw = np.zeros((1, 2, vocab.d), dtype=np.uint8)
    Xw[0, 0, 3] = Xw[0, 1, 4] = 1  # window 0 reads lo, window 1 one ulp more
    seed = next(s for s in range(100)
                if (np.random.default_rng(s).random((1, 1, 2)) < keep).all())
    _, cache = netcore.forward_batch(state, Xw, 1.0 - keep, rng=seed)
    _, ref = _ref_forward(state, Xw, 1.0 - keep, np.random.default_rng(seed))
    assert cache.h_pre[0, 0, 0] < cache.h_pre[0, 1, 0]
    assert cache.argmax.tolist() == ref["argmax"].tolist() == [[0]]
    assert _bits(cache.f) == _bits(ref["f"])


@pytest.mark.parametrize("on", list(itertools.product([False, True], repeat=4)),
                         ids=lambda on: "".join("1" if x else "0" for x in on))
def test_regularizer_grad_matches_reference_bits(vocab, on):
    rng = np.random.default_rng(sum(b << i for i, b in enumerate(on)))
    weights = LossWeights(*(float(rng.uniform(0.1, 2.0)) if x else 0.0 for x in on))
    for _ in range(3):
        W = _weights_in_unit_box(rng, (32, 3, vocab.d))
        W[0, 0, vocab.column_groups[0]] = 0.6  # a submission sum above 1
        W[1, 0, :] = 0.4  # help and attempt means tie
        assert (_bits(objective.regularizer_grad(W, weights, vocab))
                == _bits(_ref_regularizer_grad(W, weights, vocab)))
        assert objective.regularizer_terms(W, vocab) == _ref_regularizer_terms(W, vocab)


@pytest.mark.parametrize("alpha,freeze", [(0.0, False), (0.5, False), (1.0, False),
                                          (0.5, True), (1.0, True)])
def test_train_epoch_matches_reference_bits(vocab, planted, alpha, freeze):
    from patternconv import corpus

    ds = corpus.synth_generate(vocab, planted, 300, 0.0, 0.0, seed=5, p_plant=0.2)
    windows = trainer.WindowedSet.build(ds, 3)
    weights = LossWeights(bin=0.7, min=0.3, sub=0.0, poss=1.0)
    state = netcore.init_state(12, 3, vocab.d, rng=np.random.default_rng(3))
    ref = state.copy()
    rec = trainer.train_epoch(state, windows, weights, alpha, freeze, np.random.default_rng(4),
                              2.5, learning_rate=0.05, dropout=0.25)
    bce, norm_conv, norm_fc = _ref_train_epoch(ref, windows, weights, alpha, freeze,
                                               np.random.default_rng(4), 2.5, 0.05, 0.25)
    assert _bits(state.W) == _bits(ref.W) and _bits(state.fc_trad) == _bits(ref.fc_trad)
    assert (rec["bce"], rec["grad_norm_conv"], rec["grad_norm_fc"]) == (bce, norm_conv, norm_fc)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("n", [300, 128, 129], ids=["val_split", "one_chunk", "short_tail"])
def test_predict_matches_forward_bits(vocab, alpha, n):
    """predict windows and scores clips a chunk at a time and gives
    forward_batch's y bit for bit; a tail too short for a product of 16 rows
    joins the chunk before it."""
    state, X, Xw, _ = _batch(vocab, n, B=n, M=64)
    state.alpha = alpha
    sizes = [part.stop - part.start for part in netcore._predict_chunks(n)]
    assert sum(sizes) == n and min(sizes) >= 16
    y, _ = netcore.forward_batch(state, Xw)
    assert _bits(netcore.predict(state, X)) == _bits(y)


# sha256 of the steps and then the labels of synth_generate on the default
# config's data section. They were recorded when the generator drew one
# random number per call, so any change to what it draws, or in which
# order, fails here.
SYNTH_DIGESTS = {
    (0, 0.0): "aab6ed1ab731e123c16e1bc8f7ae0453e5f969ce96e2fc738837f7e489b75c94",
    (1, 0.0): "34fd9b54a7c56816529302369d08831fa1371d3f6eaf41d29190c3bb7120e569",
    (0, 0.1): "782f6a34dec2d227b7c0582ec3ed8b66c4ba6547cae1c91215035ba2068f8ba5",
}


@pytest.mark.parametrize("seed,noise", sorted(SYNTH_DIGESTS))
def test_synth_matches_recorded_digest(vocab, planted, seed, noise):
    """`noise` is both the feature and the label noise."""
    from patternconv import cli, corpus

    data = {key: value for key, value in cli.DEFAULT_CONFIG["data"].items()
            if key not in ("planted_bank", "label_noise", "feature_noise")}
    ds = corpus.synth_generate(vocab, planted, label_noise=noise, feature_noise=noise,
                               seed=seed, **data)
    digest = hashlib.sha256(ds.steps_array().tobytes())
    digest.update(ds.labels().tobytes())
    assert digest.hexdigest() == SYNTH_DIGESTS[seed, noise]

"""Differentiable computation core: constrained convolution, thresholding head,
traditional head, the alpha blend, and exact analytic gradients."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import (INTEGER, LIST, DataError, check_version, fields, float_array,
                     json_object, within)

MODEL_FORMAT_VERSION = 1

# The thresholding head's steepness t, offset beta, softmax temperature tau
# and weight epsilon: fixed by the method, not learned or configured.
THRESH = {"steepness": 200.0, "offset": 0.99, "temperature": 0.01, "epsilon": 1e-6}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)) of a float64 array, computed in place on one
    temporary."""
    z = 0.5 * x
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


@dataclass
class ModelState:
    """All network parameters: the learned W and fc_trad, and the blend alpha
    of the two heads."""

    W: np.ndarray                 # (M, k, d)
    fc_trad: np.ndarray           # (M,)
    alpha: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DataError("alpha must lie in [0, 1]")
        if self.fc_trad.shape != (self.W.shape[0],):
            raise DataError("fc_trad length must equal the filter count")

    @property
    def M(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]

    @property
    def d(self) -> int:
        return self.W.shape[2]

    def copy(self) -> "ModelState":
        return replace(self, W=self.W.copy(), fc_trad=self.fc_trad.copy())


def init_conv_weights(M: int, k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((M, k, d))


def init_state(M: int, k: int, d: int, rng: np.random.Generator | int | None = None) -> ModelState:
    """Fresh model: conv weights uniform [0,1), fc uniform [-1/sqrt(M), 1/sqrt(M)]."""
    rng = np.random.default_rng(rng)
    bound = 1.0 / np.sqrt(M)
    return ModelState(
        W=init_conv_weights(M, k, d, rng),
        fc_trad=rng.uniform(-bound, bound, size=M),
    )


def maxpool(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over the C windows of (B, C, M) feature maps, (B, M), with the
    lowest-index tie-break (for gradient routing).

    One comparison against the max finds every window that attains it; the
    lowest of them has the highest descending rank C, C-1, ..., 1.
    """
    C = h.shape[1]
    if C < 1:
        raise DataError("feature maps need at least one convolution position")
    f = h.max(axis=1, keepdims=True)
    rank = np.arange(C, 0, -1, dtype=np.min_scalar_type(C))[:, None]
    arg = C - (rank * (h == f)).max(axis=1)
    return f.squeeze(1), arg.astype(np.intp)


def thresholding_weights(W: np.ndarray) -> np.ndarray:
    """Per-filter weight 1 / (sum of |W| + epsilon), recomputed from W every pass."""
    return 1.0 / (np.abs(W).reshape(W.shape[0], -1).sum(axis=1) + THRESH["epsilon"])


def thresholding_forward(f: np.ndarray, w: np.ndarray):
    """Four-stage thresholding head on pooled activations.

    Returns (y_thresholding, a, s): scaled-sigmoid activations and their
    low-temperature softmax weights.
    """
    z = f * w
    z -= THRESH["offset"]
    z *= THRESH["steepness"]
    a = sigmoid(z)
    s = a - a.max(axis=-1, keepdims=True)
    s /= THRESH["temperature"]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    y = (a * s).sum(axis=-1)
    return y, a, s


@dataclass
class ForwardCache:
    X: np.ndarray                 # float64 clip windows (B, C, k·d)
    h_pre: np.ndarray             # (B, C, M)
    f: np.ndarray
    argmax: np.ndarray            # (B, M) window index of each pooled max
    pool_gate: np.ndarray         # (B, M) d f / d h_pre at that window
    w: np.ndarray
    a: np.ndarray
    s: np.ndarray
    y_trad: np.ndarray | None    # None when alpha is 1: the head is out of the blend
    y_thresh: np.ndarray
    y_preclip: np.ndarray


def forward_batch(state: ModelState, X: np.ndarray, dropout: float = 0.0,
                  rng: np.random.Generator | int | None = None):
    """Full forward pass over a clip batch (B, L, d) or over its clip windows
    (B, C, k·d) from `kernels.clip_windows`, told apart by the last axis. The
    two widths are equal only at k = 1, where the padding is 0 and the
    windows are the clips. A `dropout` rate above 0 drops feature-map cells
    with masks drawn from `rng`; at 0 no mask is drawn.

    Returns (y (B,), cache).
    """
    if not 0.0 <= dropout < 1.0:  # keeping no cell scales by 1 / 0
        raise DataError(f"dropout must lie in [0, 1), not {dropout}")
    X = np.asarray(X)
    if X.ndim != 3:
        raise DataError(f"input must be clips (B, L, {state.d}) or clip windows "
                        f"(B, C, {state.k * state.d}), not shape {X.shape}")
    if X.shape[2] == state.d:
        X = kernels.clip_windows(X, state.k)
    elif X.shape[2] != state.k * state.d:
        raise DataError(f"input width {X.shape[2]} is neither the model's d = {state.d} "
                        f"(clips) nor k·d = {state.k * state.d} (clip windows)")
    X = np.asarray(X, dtype=np.float64)
    h_pre = kernels.conv_forward_batch(state.W, X)
    h = np.maximum(h_pre, 0.0)

    scale = 1.0
    if dropout > 0.0:
        rng = np.random.default_rng(rng)
        keep = 1.0 - dropout
        # drawn as (B, M, C), then applied as (B, C, M): the draw order fixes
        # which uniform masks which feature-map cell for a given seed. Zeroing
        # the dropped cells and then scaling gives the bits of h * (mask / keep);
        # scaling the pooled max instead would not, because rounding can tie
        # windows that were not tied.
        B, C, M = h.shape
        h *= np.ascontiguousarray((rng.random((B, M, C)) < keep).transpose(0, 2, 1))
        scale = 1.0 / keep
        h *= scale

    f, arg = maxpool(h)
    # the pooled max is positive exactly where ReLU passed and dropout kept its
    # window, and a kept window's mask value is the dropout scale
    gate = (f > 0.0) * scale
    w = thresholding_weights(state.W)
    y_thresh, a, s, y_trad, y_pre = _heads(state, f, w)
    cache = ForwardCache(X=X, h_pre=h_pre, f=f, argmax=arg, pool_gate=gate, w=w, a=a, s=s,
                         y_trad=y_trad, y_thresh=y_thresh, y_preclip=y_pre)
    return np.minimum(y_pre, 1.0), cache


def _heads(state: ModelState, f: np.ndarray, w: np.ndarray):
    """The thresholding head, the traditional head and their alpha blend on
    pooled activations f (B, M): (y_thresh, a, s, y_trad, y_preclip)."""
    y_thresh, a, s = thresholding_forward(f, w)
    if state.alpha == 1.0:
        # (1 - alpha) * y_trad + alpha * y_thresh is exactly y_thresh
        return y_thresh, a, s, None, y_thresh
    y_trad = sigmoid(f @ state.fc_trad)
    return y_thresh, a, s, y_trad, (1.0 - state.alpha) * y_trad + state.alpha * y_thresh


# Clips per chunk of `predict`: a chunk's (chunk, C, M) float64 maps stay
# near the size of a core's cache (about 330 KB at C 5 and M 64).
_PREDICT_CHUNK = 128
# A matrix product of 15 rows or fewer takes another BLAS path whose last
# bits can differ, so a chunk holds at least 16 clips (each gives C >= 1 rows).
_MIN_CHUNK = 16


def _predict_chunks(n: int) -> list[slice]:
    """The clip slices `predict` computes one at a time over n clips: chunks
    of _PREDICT_CHUNK clips, with a tail of fewer than _MIN_CHUNK clips joined
    to the chunk before it."""
    ends = [*range(_PREDICT_CHUNK, n - _MIN_CHUNK + 1, _PREDICT_CHUNK), n]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def predict(state: ModelState, X: np.ndarray) -> np.ndarray:
    """y (N,) of clip steps (N, L, d): the bits of `forward_batch(state, X)[0]`,
    windowed and computed chunk by chunk without the pool argmax, the pool
    gate or the cache, so its memory is bounded by the chunk, not by N."""
    X = np.asarray(X)
    if X.ndim != 3 or X.shape[2] != state.d:
        raise DataError(f"input must be clips (N, L, {state.d}), not shape {X.shape}")
    w = thresholding_weights(state.W)
    y = np.empty(len(X))
    for part in _predict_chunks(len(X)):
        windows = kernels.clip_windows(X[part], state.k)
        h = kernels.conv_forward_batch(state.W, windows.astype(np.float64))
        np.maximum(h, 0.0, out=h)
        y_pre = _heads(state, h.max(axis=1), w)[4]
        np.minimum(y_pre, 1.0, out=y[part])
    return y


def backward_batch(state: ModelState, cache: ForwardCache, d_y: np.ndarray) -> dict:
    """Analytic gradients summed over the batch.

    Includes the dependence of the thresholding weights w on W (|W| uses the
    sign subgradient, 0 at exactly 0) and argmax-routed pooling gradients.
    Returns {"W": (M,k,d), "fc_trad": (M,)}; fc_trad's gradient is zero when
    alpha is 1, where the traditional head is out of the blend.
    """
    t, tau = THRESH["steepness"], THRESH["temperature"]
    B, C, M = cache.h_pre.shape
    d_y = np.asarray(d_y, dtype=np.float64) * (cache.y_preclip < 1.0)

    # thresholding head: y = sum a_i s_i, s = softmax(a / tau)
    dy_thresh = d_y if cache.y_trad is None else state.alpha * d_y
    # dz = dy_thresh * (s + s * (a - y_thresh) / tau) * t * a * (1 - a), in place
    dz = cache.a - cache.y_thresh[:, None]
    dz *= cache.s
    dz /= tau
    dz += cache.s
    dz *= dy_thresh[:, None]
    dz *= t
    dz *= cache.a
    dz *= 1.0 - cache.a
    dw = (dz * cache.f).sum(axis=0)
    dz *= cache.w[None, :]

    # traditional head. With alpha 1 (no y_trad) its share of d_y is zero, so
    # the pooled gradient is the thresholding head's alone and fc_trad's is zero
    if cache.y_trad is None:
        df = dz
        dfc = np.zeros(M)
    else:
        du = (1.0 - state.alpha) * d_y * cache.y_trad * (1.0 - cache.y_trad)
        dfc = cache.f.T @ du
        df = du[:, None] * state.fc_trad[None, :]
        df += dz

    # w_p = 1 / (sum |W_p| + eps)  =>  dw_p/dW = -sign(W) * w_p^2
    dW = (-dw * cache.w**2)[:, None, None] * np.sign(state.W)

    # max pool routes each pooled gradient, through dropout and ReLU, to the
    # window it came from: flat index (b·C + argmax)·M + m of the (B, C, M) maps
    dh = np.zeros((B, C, M))
    at = cache.argmax * M
    at += np.arange(0, B * C * M, C * M)[:, None]
    at += np.arange(M)
    df *= cache.pool_gate
    dh.reshape(-1)[at] = df
    dW += kernels.conv_backward_batch(dh, cache.X, state.k)
    return {"W": dW, "fc_trad": dfc}


def state_to_json(state: ModelState, extra: dict | None = None) -> str:
    """The model file of `state`, with the keys of `extra` last."""
    doc = {
        "format": "patternconv-model",
        "version": MODEL_FORMAT_VERSION,
        "M": state.M,
        "k": state.k,
        "d": state.d,
        "padding": kernels.padding_for(state.k),
        "W": state.W.ravel().tolist(),
        "fc_trad": state.fc_trad.tolist(),
        "thresh": THRESH,
        "alpha": state.alpha,
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, separators=(",", ":"))


_SIZE = within("[1, inf)", INTEGER)
_FILTERS = {"M": _SIZE, "k": _SIZE, "d": _SIZE, "W": LIST}
# A model file may leave out a head constant, but not record another value.
_THRESH = {key: ((lambda value, fixed=fixed: value == fixed), repr(fixed), fixed)
           for key, fixed in THRESH.items()}
# Keys outside _MODEL, such as the `config_hash` of a trained model and the
# `fc_frozen` and `dropout_rate` that older model files record, are read past.
_MODEL = {"fc_trad": LIST,
          "thresh": (lambda t: type(t) is dict and t.keys() <= THRESH.keys(),
                     "an object of " + ", ".join(THRESH)),
          "alpha": within("[0, 1]")}
_SNAPSHOT = {"era": (*within("[0, inf)", INTEGER), -1), "per_filter_precision": LIST}


def _filters(doc: dict, what: str) -> np.ndarray:
    """The (M, k, d) filters W of a model or snapshot document, which may
    record only the padding of k-step filters."""
    M, k, d, W = fields(doc, _FILTERS, what).values()
    fields(doc, {"padding": kernels.padding_rule(k)}, what)
    return float_array(W, M * k * d, what, "W").reshape(M, k, d)


def state_from_json(text: str | dict) -> ModelState:
    """The model a model file's text, or its parsed document, holds."""
    doc = json_object(text, "model file")
    if doc.get("format") != "patternconv-model":
        raise DataError("not a model file")
    check_version(doc, MODEL_FORMAT_VERSION, "model file")
    W = _filters(doc, "model file")
    fc_trad, thresh, alpha = fields(doc, _MODEL, "model file").values()
    fields(thresh, _THRESH, "model file thresh")
    return ModelState(
        W=W,
        fc_trad=float_array(fc_trad, len(W), "model file", "fc_trad"),
        alpha=float(alpha),
    )


@dataclass(frozen=True)
class EraSnapshot:
    """An era's filters and their precision on the training clips (NaN where
    a filter matched none)."""

    era: int
    W: np.ndarray                      # (M, k, d)
    per_filter_precision: np.ndarray   # (M,)

    def __post_init__(self):
        self.W.setflags(write=False)
        self.per_filter_precision.setflags(write=False)


def filters_to_json(snap: EraSnapshot, extra: dict | None = None) -> str:
    """The era snapshot file of `snap`, with the keys of `extra` last."""
    doc = {
        "format": "patternconv-filters",
        "version": MODEL_FORMAT_VERSION,
        "M": int(snap.W.shape[0]),
        "k": int(snap.W.shape[1]),
        "d": int(snap.W.shape[2]),
        "padding": kernels.padding_for(snap.W.shape[1]),
        "W": snap.W.ravel().tolist(),
        "era": snap.era,
        "per_filter_precision": [None if p != p else p
                                 for p in snap.per_filter_precision.tolist()],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, separators=(",", ":"))


def filters_from_json(text: str) -> EraSnapshot:
    """The era snapshot a filter snapshot file's text holds. A file without
    `era` reads as era -1."""
    what = "filter snapshot file"
    doc = json_object(text, what)
    if doc.get("format") != "patternconv-filters":
        raise DataError("not a filter snapshot file")
    check_version(doc, MODEL_FORMAT_VERSION, what)
    W = _filters(doc, what)
    era, precisions = fields(doc, _SNAPSHOT, what).values()
    precisions = float_array(precisions, len(W), what, "per_filter_precision",
                             ok=lambda p: ~((p < 0) | (p > 1)), rule="numbers in [0, 1] or nulls")
    return EraSnapshot(era=era, W=W, per_filter_precision=precisions)

"""Differentiable computation core: constrained convolution, thresholding head,
traditional head, the alpha blend, and exact analytic gradients."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import (BOOL, INTEGER, LIST, NUMBER, DataError, check_version, fields, float_array,
                     json_object, padding_field, within)

MODEL_FORMAT_VERSION = 1

DEFAULT_STEEPNESS = 200.0
DEFAULT_OFFSET = 0.99
DEFAULT_TEMPERATURE = 0.01
DEFAULT_EPSILON = 1e-6
DEFAULT_DROPOUT = 0.2
DEFAULT_PADDING = 1


def sigmoid(x):
    """0.5 * (1 + tanh(x / 2)), computed in place on one temporary for arrays."""
    z = 0.5 * np.asarray(x, dtype=np.float64)
    if z.ndim == 0:
        return 0.5 * (1.0 + np.tanh(z))
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


@dataclass(frozen=True)
class ThresholdingParams:
    steepness: float = DEFAULT_STEEPNESS  # t
    offset: float = DEFAULT_OFFSET        # beta
    temperature: float = DEFAULT_TEMPERATURE  # tau
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not all(map(math.isfinite, (self.steepness, self.offset, self.temperature,
                                       self.epsilon))):
            raise DataError("thresholding params must be finite")
        if self.steepness <= 0 or self.temperature <= 0 or self.epsilon <= 0:
            raise DataError("thresholding params must be positive")
        if not (0 < self.offset <= 1):
            raise DataError("thresholding offset must lie in (0, 1]")


@dataclass
class ModelState:
    """All network parameters. Only W (and fc_trad until frozen) are learned."""

    W: np.ndarray                 # (M, k, d)
    fc_trad: np.ndarray           # (M,)
    fc_frozen: bool = False
    thresh: ThresholdingParams = field(default_factory=ThresholdingParams)
    alpha: float = 0.0
    dropout_rate: float = DEFAULT_DROPOUT
    padding: int = DEFAULT_PADDING

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DataError("alpha must lie in [0, 1]")
        if self.fc_trad.shape != (self.W.shape[0],):
            raise DataError("fc_trad length must equal the filter count")
        if not 0 <= self.padding <= self.k - 1:
            # a window past k - 1 padding steps holds no clip step
            raise DataError(f"padding must lie in [0, k - 1 = {self.k - 1}], not {self.padding}")

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


def init_state(M: int, k: int, d: int, padding: int = DEFAULT_PADDING,
               rng: np.random.Generator | int | None = None, **kwargs) -> ModelState:
    """Fresh model: conv weights uniform [0,1), fc uniform [-1/sqrt(M), 1/sqrt(M)]."""
    rng = np.random.default_rng(rng)
    bound = 1.0 / np.sqrt(M)
    return ModelState(
        W=init_conv_weights(M, k, d, rng),
        fc_trad=rng.uniform(-bound, bound, size=M),
        padding=padding,
        **kwargs,
    )


def maxpool(h: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Max along `axis` with the lowest-index tie-break (for gradient routing).

    One comparison against the max finds every position that attains it; the
    lowest of them has the highest descending rank C, C-1, ..., 1.
    """
    C = h.shape[axis]
    if C < 1:
        raise DataError("feature maps need at least one convolution position")
    f = h.max(axis=axis, keepdims=True)
    shape = [1] * h.ndim
    shape[axis] = C
    rank = np.arange(C, 0, -1, dtype=np.min_scalar_type(C)).reshape(shape)
    arg = C - (rank * (h == f)).max(axis=axis)
    return f.squeeze(axis), arg.astype(np.intp)


def thresholding_weights(W: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-filter weight 1 / (sum of |W| + epsilon), recomputed from W every pass."""
    return 1.0 / (np.abs(W).reshape(W.shape[0], -1).sum(axis=1) + epsilon)


def thresholding_forward(f: np.ndarray, w: np.ndarray, params: ThresholdingParams):
    """Four-stage thresholding head on pooled activations.

    Returns (y_thresholding, a, s): scaled-sigmoid activations and their
    low-temperature softmax weights.
    """
    z = f * w
    z -= params.offset
    z *= params.steepness
    a = sigmoid(z)
    s = a - a.max(axis=-1, keepdims=True)
    s /= params.temperature
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


def forward_batch(state: ModelState, X: np.ndarray, training: bool = False,
                  rng: np.random.Generator | int | None = None):
    """Full forward pass over a clip batch (B, L, d) or over its clip windows
    (B, C, k·d) from `kernels.clip_windows`, told apart by the last axis. The
    two widths are equal only at k = 1, where the padding is 0 and the
    windows are the clips.

    Returns (y (B,), cache).
    """
    X = np.asarray(X)
    if X.shape[2] == state.d:
        X = kernels.clip_windows(X, state.k, state.padding)
    elif X.shape[2] != state.k * state.d:
        raise DataError(f"input width {X.shape[2]} is neither the model's d = {state.d} "
                        f"(clips) nor k·d = {state.k * state.d} (clip windows)")
    X = np.asarray(X, dtype=np.float64)
    h_pre = kernels.conv_forward_batch(state.W, X)
    h = np.maximum(h_pre, 0.0)

    scale = 1.0
    if training and state.dropout_rate > 0.0:
        rng = np.random.default_rng(rng)
        keep = 1.0 - state.dropout_rate
        # drawn as (B, M, C), then applied as (B, C, M): the draw order fixes
        # which uniform masks which feature-map cell for a given seed. Zeroing
        # the dropped cells and then scaling gives the bits of h * (mask / keep);
        # scaling the pooled max instead would not, because rounding can tie
        # windows that were not tied.
        B, C, M = h.shape
        h *= np.ascontiguousarray((rng.random((B, M, C)) < keep).transpose(0, 2, 1))
        scale = 1.0 / keep
        h *= scale

    f, arg = maxpool(h, axis=1)
    # the pooled max is positive exactly where ReLU passed and dropout kept its
    # window, and a kept window's mask value is the dropout scale
    gate = np.where(f > 0.0, scale, 0.0)
    w = thresholding_weights(state.W, state.thresh.epsilon)
    y_thresh, a, s, y_trad, y_pre = _heads(state, f, w)
    cache = ForwardCache(X=X, h_pre=h_pre, f=f, argmax=arg, pool_gate=gate, w=w, a=a, s=s,
                         y_trad=y_trad, y_thresh=y_thresh, y_preclip=y_pre)
    return np.minimum(y_pre, 1.0), cache


def _heads(state: ModelState, f: np.ndarray, w: np.ndarray):
    """The thresholding head, the traditional head and their alpha blend on
    pooled activations f (B, M): (y_thresh, a, s, y_trad, y_preclip)."""
    y_thresh, a, s = thresholding_forward(f, w, state.thresh)
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
        raise DataError(f"input width {X.shape[-1]} != {state.d} for model d {state.d}")
    w = thresholding_weights(state.W, state.thresh.epsilon)
    y = np.empty(len(X))
    for part in _predict_chunks(len(X)):
        windows = kernels.clip_windows(X[part], state.k, state.padding)
        h = kernels.conv_forward_batch(state.W, windows.astype(np.float64))
        np.maximum(h, 0.0, out=h)
        y_pre = _heads(state, h.max(axis=1), w)[4]
        np.minimum(y_pre, 1.0, out=y[part])
    return y


def backward_batch(state: ModelState, cache: ForwardCache, d_y: np.ndarray) -> dict:
    """Analytic gradients summed over the batch.

    Includes the dependence of the thresholding weights w on W (|W| uses the
    sign subgradient, 0 at exactly 0) and argmax-routed pooling gradients.
    Returns {"W": (M,k,d), "fc_trad": (M,)}; fc_trad is zero when frozen.
    """
    t, tau = state.thresh.steepness, state.thresh.temperature
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
        dfc = np.zeros_like(state.fc_trad)
    else:
        du = (1.0 - state.alpha) * d_y * cache.y_trad * (1.0 - cache.y_trad)
        dfc = cache.f.T @ du if not state.fc_frozen else np.zeros_like(state.fc_trad)
        df = du[:, None] * state.fc_trad[None, :]
        df += dz

    # w_p = 1 / (sum |W_p| + eps)  =>  dw_p/dW = -sign(W) * w_p^2
    dW = (-dw * cache.w**2)[:, None, None] * np.sign(state.W)

    # max pool routes each pooled gradient, through dropout and ReLU, to the
    # window it came from: flat index (b·C + argmax)·M + m of the (B, C, M) maps
    B, C, M = cache.h_pre.shape
    dh = np.zeros_like(cache.h_pre)
    at = cache.argmax * M
    at += np.arange(0, B * C * M, C * M)[:, None]
    at += np.arange(M)
    df *= cache.pool_gate
    dh.reshape(-1)[at] = df
    dW += kernels.conv_backward_batch(dh, cache.X, state.k)
    return {"W": dW, "fc_trad": dfc}


def state_to_json(state: ModelState) -> str:
    doc = {
        "format": "patternconv-model",
        "version": MODEL_FORMAT_VERSION,
        "M": state.M,
        "k": state.k,
        "d": state.d,
        "padding": state.padding,
        "W": state.W.ravel().tolist(),
        "fc_trad": state.fc_trad.tolist(),
        "fc_frozen": state.fc_frozen,
        "thresh": {
            "steepness": state.thresh.steepness,
            "offset": state.thresh.offset,
            "temperature": state.thresh.temperature,
            "epsilon": state.thresh.epsilon,
        },
        "alpha": state.alpha,
        "dropout_rate": state.dropout_rate,
    }
    return json.dumps(doc, separators=(",", ":"))


_SIZE = within("[1, inf)", INTEGER)
_FILTERS = {"M": _SIZE, "k": _SIZE, "d": _SIZE, "W": LIST}
_THRESH = {"steepness": (*within("(0, inf)"), DEFAULT_STEEPNESS),
           "offset": (*within("(0, 1]"), DEFAULT_OFFSET),
           "temperature": (*within("(0, inf)"), DEFAULT_TEMPERATURE),
           "epsilon": (*within("(0, inf)"), DEFAULT_EPSILON)}
_MODEL = {"fc_trad": LIST, "fc_frozen": BOOL,
          "thresh": (lambda t: type(t) is dict and t.keys() <= _THRESH.keys(),
                     "an object of " + ", ".join(_THRESH)),
          "alpha": within("[0, 1]"), "dropout_rate": NUMBER}
_SNAPSHOT = {"era": (*within("[0, inf)", INTEGER), -1), "per_filter_precision": LIST}


def _filters(doc: dict, what: str) -> np.ndarray:
    """The (M, k, d) filters W of a model or snapshot document."""
    M, k, d, W = fields(doc, _FILTERS, what).values()
    return float_array(W, M * k * d, what, "W").reshape(M, k, d)


def state_from_json(text: str | dict) -> ModelState:
    """The model a model file's text, or its parsed document, holds."""
    doc = json_object(text, "model file")
    if doc.get("format") != "patternconv-model":
        raise DataError("not a model file")
    check_version(doc, MODEL_FORMAT_VERSION, "model file")
    W = _filters(doc, "model file")
    fc_trad, fc_frozen, thresh, alpha, dropout_rate = fields(doc, _MODEL, "model file").values()
    return ModelState(
        W=W,
        fc_trad=float_array(fc_trad, len(W), "model file", "fc_trad"),
        fc_frozen=fc_frozen,
        thresh=ThresholdingParams(**fields(thresh, _THRESH, "model file thresh")),
        alpha=float(alpha),
        dropout_rate=float(dropout_rate),
        padding=padding_field(doc, "model file", W.shape[1]),
    )


@dataclass(frozen=True)
class EraSnapshot:
    """An era's filters, their precision on the training clips (NaN where a
    filter matched none) and the padding they were trained with."""

    era: int
    W: np.ndarray                      # (M, k, d)
    per_filter_precision: np.ndarray   # (M,)
    padding: int = DEFAULT_PADDING

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
        "padding": int(snap.padding),
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
    `era` reads as era -1, one without `padding` as padding 1."""
    what = "filter snapshot file"
    doc = json_object(text, what)
    if doc.get("format") != "patternconv-filters":
        raise DataError("not a filter snapshot file")
    check_version(doc, MODEL_FORMAT_VERSION, what)
    W = _filters(doc, what)
    padding = padding_field(doc, what, W.shape[1])
    era, precisions = fields(doc, _SNAPSHOT, what).values()
    precisions = float_array(precisions, len(W), what, "per_filter_precision",
                             ok=lambda p: ~((p < 0) | (p > 1)), rule="numbers in [0, 1] or nulls")
    return EraSnapshot(era=era, W=W, per_filter_precision=precisions, padding=padding)

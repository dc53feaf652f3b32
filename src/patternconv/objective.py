"""Composite loss: binary cross entropy plus the four filter constraints,
with analytic gradients w.r.t. the convolution weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FeatureVocabulary
from .errors import DataError

BCE_CLAMP = 1e-7

DEFAULT_PENALTY_RATE = 0.5
DEFAULT_PENALTY_ONSET = 3.0
DEFAULT_PENALTY_BIAS = 1.0


@dataclass(frozen=True)
class LossWeights:
    """Current scaled weights for the four regularizers."""

    bin: float = 0.0
    min: float = 0.0
    sub: float = 0.0
    poss: float = 0.0

    def __post_init__(self):
        if min(self.bin, self.min, self.sub, self.poss) < 0:
            raise DataError("loss weights must be nonnegative")


@dataclass(frozen=True)
class MinPenaltyParams:
    """Step-mass penalty ReLU(rate^(onset - mass) - bias)."""

    rate: float = DEFAULT_PENALTY_RATE
    onset: float = DEFAULT_PENALTY_ONSET
    bias: float = DEFAULT_PENALTY_BIAS

    def __post_init__(self):
        if not (0 < self.rate < 1) or self.onset <= 0 or self.bias < 0:
            raise DataError("invalid min-penalty parameters")


def bce(y: float | np.ndarray, label) -> float | np.ndarray:
    """Binary cross entropy with clamping away from the log singularities."""
    y = np.clip(y, BCE_CLAMP, 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    return -(label * np.log(y) + (1.0 - label) * np.log(1.0 - y))


def bce_grad(y: float | np.ndarray, label) -> float | np.ndarray:
    """dBCE/dy; zero where the clamp is active."""
    yc = np.clip(y, BCE_CLAMP, 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    g = -(label / yc - (1.0 - label) / (1.0 - yc))
    return g * ((y > BCE_CLAMP) & (y < 1.0 - BCE_CLAMP))


def _step_sums(W: np.ndarray, vocab: FeatureVocabulary, min_params: MinPenaltyParams):
    """The per-step sums every term reads, (M, k) each: the min-penalty power
    term of the step mass, the submission sum, and the help and attempt means."""
    h_idx, a_idx = sorted(vocab.help_related), sorted(vocab.attempt_related)
    inner = min_params.rate ** (min_params.onset - W.sum(axis=2))
    s = W[:, :, list(vocab.submission_indices)].sum(axis=2)
    u = W[:, :, h_idx].sum(axis=2) / len(h_idx)
    v = W[:, :, a_idx].sum(axis=2) / len(a_idx)
    return inner, s, u, v


def regularizer_terms(W: np.ndarray, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams = MinPenaltyParams()) -> dict:
    """Unscaled term values. bin: sum of |W^2 - W|, zero exactly on binary
    weights. min: ReLU(rate^(onset - mass) - bias) per step. sub: the summed
    submission-type weight above 1 per step. poss: per step, the smaller
    square of the help and attempt means."""
    inner, s, u, v = _step_sums(W, vocab, min_params)
    return {
        "bin": float(np.abs(W * W - W).sum()),
        "min": float(np.maximum(inner - min_params.bias, 0.0).sum()),
        "sub": float(np.maximum(s - 1.0, 0.0).sum()),
        "poss": float(np.minimum(u * u, v * v).sum()),
    }


def regularizer_value(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams = MinPenaltyParams()) -> float:
    terms = regularizer_terms(W, vocab, min_params)
    return sum(getattr(weights, name) * value for name, value in terms.items())


def regularizer_grad(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                     min_params: MinPenaltyParams = MinPenaltyParams()) -> np.ndarray:
    """d(regularizer_value)/dW, the terms added in the order bin, min, sub, poss."""
    inner, s, u, v = _step_sums(W, vocab, min_params)
    sub_idx = list(vocab.submission_indices)
    h_idx, a_idx = sorted(vocab.help_related), sorted(vocab.attempt_related)
    g = np.zeros_like(W)
    g += weights.bin * (np.sign(W * W - W) * (2.0 * W - 1.0))
    dmass = np.where(inner - min_params.bias > 0, -np.log(min_params.rate) * inner, 0.0)
    g += weights.min * dmass[:, :, None]
    g[:, :, sub_idx] += weights.sub * (s > 1.0)[:, :, None]
    h_side = u * u <= v * v  # ties take the help side
    g[:, :, h_idx] += weights.poss * np.where(h_side, 2.0 * u / len(h_idx), 0.0)[:, :, None]
    g[:, :, a_idx] += weights.poss * np.where(~h_side, 2.0 * v / len(a_idx), 0.0)[:, :, None]
    return g

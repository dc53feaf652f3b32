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
    y = np.minimum(np.maximum(BCE_CLAMP, y), 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    return -(label * np.log(y) + (1.0 - label) * np.log(1.0 - y))


def bce_grad(y: float | np.ndarray, label) -> float | np.ndarray:
    """dBCE/dy; zero where the clamp is active."""
    yc = np.minimum(np.maximum(BCE_CLAMP, y), 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    g = -(label / yc - (1.0 - label) / (1.0 - yc))
    return g * ((y > BCE_CLAMP) & (y < 1.0 - BCE_CLAMP))


def _mass_power(W: np.ndarray, min_params: MinPenaltyParams) -> np.ndarray:
    """(M, k) the min-penalty power term rate^(onset - mass) of each step."""
    return min_params.rate ** (min_params.onset - W.sum(axis=2))


def _submission_sum(W: np.ndarray, vocab: FeatureVocabulary) -> np.ndarray:
    """(M, k) the summed submission-type weight of each step."""
    return W[:, :, vocab.column_groups[0]].sum(axis=2)


def _help_attempt_means(W: np.ndarray, vocab: FeatureVocabulary):
    """(M, k) each: the mean help-related and attempt-related weight of each step."""
    _, h_idx, a_idx = vocab.column_groups
    return W[:, :, h_idx].sum(axis=2) / len(h_idx), W[:, :, a_idx].sum(axis=2) / len(a_idx)


def regularizer_terms(W: np.ndarray, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams = MinPenaltyParams()) -> dict:
    """Unscaled term values. bin: sum of |W^2 - W|, zero exactly on binary
    weights. min: ReLU(rate^(onset - mass) - bias) per step. sub: the summed
    submission-type weight above 1 per step. poss: per step, the smaller
    square of the help and attempt means."""
    u, v = _help_attempt_means(W, vocab)
    return {
        "bin": float(np.abs(W * W - W).sum()),
        "min": float(np.maximum(_mass_power(W, min_params) - min_params.bias, 0.0).sum()),
        "sub": float(np.maximum(_submission_sum(W, vocab) - 1.0, 0.0).sum()),
        "poss": float(np.minimum(u * u, v * v).sum()),
    }


def regularizer_value(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams = MinPenaltyParams()) -> float:
    terms = regularizer_terms(W, vocab, min_params)
    return sum(getattr(weights, name) * value for name, value in terms.items())


def regularizer_grad(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                     min_params: MinPenaltyParams = MinPenaltyParams()) -> np.ndarray:
    """d(regularizer_value)/dW, the terms added in the order bin, min, then the
    column-group terms sub and poss.

    A term whose weight is 0 is skipped: for finite W it would add an exact
    ±0.0 to a gradient that starts at +0.0 and so never holds -0.0, which
    changes no bit. Every column belongs to exactly one group (submission, help-related,
    attempt-related), so the sub and poss terms are one (M, k, 3) per-step
    table gathered to the columns and added once.
    """
    g = np.zeros(W.shape)
    if weights.bin:
        t = W * W
        t -= W
        np.sign(t, out=t)
        t *= 2.0 * W - 1.0
        t *= weights.bin
        g += t
    if weights.min:
        inner = _mass_power(W, min_params)
        dmass = np.where(inner - min_params.bias > 0, -np.log(min_params.rate) * inner, 0.0)
        dmass *= weights.min
        g += dmass[:, :, None]
    if weights.sub or weights.poss:
        table = np.zeros(W.shape[:2] + (3,))
        if weights.sub:
            table[:, :, 0] = weights.sub * (_submission_sum(W, vocab) > 1.0)
        if weights.poss:
            u, v = _help_attempt_means(W, vocab)
            _, h_idx, a_idx = vocab.column_groups
            h_side = u * u <= v * v  # ties take the help side
            table[:, :, 1] = weights.poss * np.where(h_side, 2.0 * u / len(h_idx), 0.0)
            table[:, :, 2] = weights.poss * np.where(h_side, 0.0, 2.0 * v / len(a_idx))
        g += table[:, :, vocab.column_group]
    return g

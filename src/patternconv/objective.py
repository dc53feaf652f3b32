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


def l_bin(W: np.ndarray) -> float:
    """Sum of |W^2 - W|: zero exactly on binary weights."""
    return float(np.abs(W * W - W).sum())


def l_bin_grad(W: np.ndarray) -> np.ndarray:
    return np.sign(W * W - W) * (2.0 * W - 1.0)


def l_min(W: np.ndarray, params: MinPenaltyParams) -> float:
    """Penalty on per-step weight mass above the onset."""
    mass = W.sum(axis=2)
    return float(np.maximum(params.rate ** (params.onset - mass) - params.bias, 0.0).sum())


def l_min_grad(W: np.ndarray, params: MinPenaltyParams) -> np.ndarray:
    mass = W.sum(axis=2)
    inner = params.rate ** (params.onset - mass)
    active = inner - params.bias > 0
    dmass = np.where(active, -np.log(params.rate) * inner, 0.0)
    return np.broadcast_to(dmass[:, :, None], W.shape).copy()


def l_sub(W: np.ndarray, submission_indices) -> float:
    """Penalty on steps whose summed submission-type weight exceeds 1."""
    s = W[:, :, list(submission_indices)].sum(axis=2)
    return float(np.maximum(s - 1.0, 0.0).sum())


def l_sub_grad(W: np.ndarray, submission_indices) -> np.ndarray:
    idx = list(submission_indices)
    s = W[:, :, idx].sum(axis=2)
    g = np.zeros_like(W)
    g[:, :, idx] = (s > 1.0).astype(np.float64)[:, :, None]
    return g


def l_poss(W: np.ndarray, S_h, S_a) -> float:
    """Penalty on steps mixing help- and attempt-related weight."""
    h_idx, a_idx = sorted(S_h), sorted(S_a)
    u = W[:, :, h_idx].sum(axis=2) / len(h_idx)
    v = W[:, :, a_idx].sum(axis=2) / len(a_idx)
    return float(np.minimum(u * u, v * v).sum())


def l_poss_grad(W: np.ndarray, S_h, S_a) -> np.ndarray:
    h_idx, a_idx = sorted(S_h), sorted(S_a)
    u = W[:, :, h_idx].sum(axis=2) / len(h_idx)
    v = W[:, :, a_idx].sum(axis=2) / len(a_idx)
    g = np.zeros_like(W)
    h_side = u * u <= v * v  # ties take the help side
    g[:, :, h_idx] = np.where(h_side, 2.0 * u / len(h_idx), 0.0)[:, :, None]
    g[:, :, a_idx] = np.where(~h_side, 2.0 * v / len(a_idx), 0.0)[:, :, None]
    return g


def regularizer_value(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams) -> float:
    total = 0.0
    if weights.bin:
        total += weights.bin * l_bin(W)
    if weights.min:
        total += weights.min * l_min(W, min_params)
    if weights.sub:
        total += weights.sub * l_sub(W, vocab.submission_indices)
    if weights.poss:
        total += weights.poss * l_poss(W, vocab.help_related, vocab.attempt_related)
    return total


def regularizer_terms(W: np.ndarray, vocab: FeatureVocabulary,
                      min_params: MinPenaltyParams) -> dict:
    """Unscaled per-term values, for logging."""
    return {
        "bin": l_bin(W),
        "min": l_min(W, min_params),
        "sub": l_sub(W, vocab.submission_indices),
        "poss": l_poss(W, vocab.help_related, vocab.attempt_related),
    }


def regularizer_grad(W: np.ndarray, weights: LossWeights, vocab: FeatureVocabulary,
                     min_params: MinPenaltyParams) -> np.ndarray:
    g = np.zeros_like(W)
    if weights.bin:
        g += weights.bin * l_bin_grad(W)
    if weights.min:
        g += weights.min * l_min_grad(W, min_params)
    if weights.sub:
        g += weights.sub * l_sub_grad(W, vocab.submission_indices)
    if weights.poss:
        g += weights.poss * l_poss_grad(W, vocab.help_related, vocab.attempt_related)
    return g

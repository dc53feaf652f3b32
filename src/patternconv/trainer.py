"""Multi-era optimization loop: batching, scheduled constraints, clamped SGD,
per-era filter precision, snapshots, and filter harvesting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, netcore, objective
from .corpus import Dataset, FeatureVocabulary
from .curator import Harvest, Pattern, binarize_filters
from .errors import DataError, NumericalError
from .evalmetrics import confusion, kappa
from .netcore import EraSnapshot, ModelState, backward_batch, forward_batch
from .objective import LossWeights
from .schedule import (DEFAULT_RAMP_END_FRACTION, PRECISION_THRESHOLD, ConstraintSchedule,
                       era_reset, weights_at)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    final_learning_rate: float = 0.015
    batch_size: int = 64
    schedule: ConstraintSchedule = field(default_factory=ConstraintSchedule.default)
    log_val_metrics: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0 or self.batch_size < 1:
            raise DataError("invalid learning rate or batch size")


@dataclass(frozen=True)
class WindowedSet:
    """A dataset's clip windows, built once: the input that training batches
    and per-era filter precision read instead of re-stacking clips."""

    X: np.ndarray        # (N, C, k·d) uint8, from kernels.clip_windows
    labels: np.ndarray   # (N,) bool
    vocabulary: FeatureVocabulary

    @classmethod
    def build(cls, dataset: Dataset, k: int) -> "WindowedSet":
        # a contiguous copy of the windows view: each step's batch gather from
        # it takes about half the time
        X = np.ascontiguousarray(kernels.clip_windows(dataset.steps_array(), k))
        return cls(X=X, labels=dataset.labels(), vocabulary=dataset.vocabulary)

    def __len__(self) -> int:
        return self.X.shape[0]


# Dropout annealing. The match band a filter must reach widens with the
# dropout rate (a training-time "match" only needs overlap >= 0.99 * (1-p)), so
# decaying p sweeps the band toward exactness. The base term decays linearly
# over the whole run; the era amplitude re-opens the band at each era start so
# freshly reinitialized filters can enter a basin, then decays within the era.
# Both, and the learning rate's decay, finish at DEFAULT_RAMP_END_FRACTION, the
# point where the constraint ramps reach their targets; p stays in [0, 0.8].
DROPOUT_BASE = 0.35
DROPOUT_ERA_AMP = 0.45


def anneal_at(config: TrainConfig, epoch_in_era: int, era: int) -> tuple[float, float]:
    """(dropout_rate, learning_rate) for an epoch: both decay linearly, the
    rate from learning_rate to final_learning_rate over the run."""
    sched = config.schedule
    total = sched.eras * sched.epochs_per_era
    g = era * sched.epochs_per_era + epoch_in_era
    frac = min(1.0, g / max(DEFAULT_RAMP_END_FRACTION * total, 1.0))
    lr = config.learning_rate + (config.final_learning_rate - config.learning_rate) * frac
    era_frac = min(1.0, epoch_in_era / max(DEFAULT_RAMP_END_FRACTION * sched.epochs_per_era, 1.0))
    return DROPOUT_BASE * (1.0 - frac) + DROPOUT_ERA_AMP * (1.0 - era_frac), lr


def train_epoch(state: ModelState, train_set: WindowedSet, weights: LossWeights,
                alpha: float, freeze: bool, config: TrainConfig,
                rng: np.random.Generator, pos_weight: float, learning_rate: float,
                dropout: float) -> dict:
    """One pass over shuffled mini-batches of the windowed training set;
    mutates `state` in place.

    Per batch: forward at the `dropout` rate, positively-weighted mean BCE,
    analytic backward plus the scaled regularizer gradients, SGD step, clamp
    W to [0, 1]. With `freeze`, fc_trad keeps its values and its gradient
    norm reads 0. Returns the epoch loss record.
    """
    vocab = train_set.vocabulary
    state.alpha = alpha
    labels_all = train_set.labels.astype(np.float64)
    clip_w_all = np.where(train_set.labels, pos_weight, 1.0)
    order = rng.permutation(len(train_set))

    bce_sum = 0.0
    grad_norm_conv = 0.0
    grad_norm_fc = 0.0
    n_batches = 0
    for start in range(0, len(order), config.batch_size):
        idx = order[start:start + config.batch_size]
        labels, clip_w = labels_all[idx], clip_w_all[idx]
        y, cache = forward_batch(state, train_set.X[idx], dropout, rng)

        batch_bce = float((clip_w * objective.bce(y, labels)).sum() / len(idx))
        # W is clamped to [0, 1], so the regularizers are finite whenever W
        # is, and a non-finite W already makes the BCE non-finite
        if not math.isfinite(batch_bce):
            raise NumericalError(f"non-finite loss (bce) at batch starting {start}")

        d_y = clip_w * objective.bce_grad(y, labels) / len(idx)
        grads = backward_batch(state, cache, d_y)
        dW = grads["W"]
        dW += objective.regularizer_grad(state.W, weights, vocab)
        grad_norm_conv += math.sqrt(dW.ravel() @ dW.ravel())

        dW *= learning_rate
        state.W -= dW
        # np.clip(W, 0, 1) with no wrapper call. -0.0 never reaches this
        # clamp (W starts non-negative and x - y is -0.0 only for x = -0.0);
        # with the bound first, -0.0 also stays -0.0 as np.clip leaves it,
        # but only on numpy builds whose maximum returns its second operand
        # on a tie of zeros, which numpy does not promise
        np.maximum(0.0, state.W, out=state.W)
        np.minimum(state.W, 1.0, out=state.W)
        if not freeze:
            grad_norm_fc += math.sqrt(grads["fc_trad"] @ grads["fc_trad"])
            state.fc_trad -= learning_rate * grads["fc_trad"]

        bce_sum += batch_bce
        n_batches += 1

    record = {
        "bce": bce_sum / max(n_batches, 1),
        "alpha": alpha,
        "gamma": {"bin": weights.bin, "min": weights.min, "sub": weights.sub, "poss": weights.poss},
        "reg_terms": objective.regularizer_terms(state.W, vocab),
        "grad_norm_conv": grad_norm_conv / max(n_batches, 1),
        "grad_norm_fc": grad_norm_fc / max(n_batches, 1),
        "frozen": freeze,
    }
    return record


def eval_filter_precision(W: np.ndarray, windowed: WindowedSet) -> np.ndarray:
    """Precision of each rounded filter under discrete matching on a windowed
    set; NaN when a filter matches no clip."""
    matched, tp = kernels.match_counts((W >= 0.5).astype(np.uint8), windowed.X, windowed.labels)
    return np.where(matched > 0, tp / np.maximum(matched, 1), np.nan)


def harvest_filters(W: np.ndarray, precisions: np.ndarray, era: int,
                    vocab: FeatureVocabulary) -> Harvest:
    """Binarize filters whose discrete precision is above PRECISION_THRESHOLD;
    filters failing binarization (non-binary cells or invariant violations)
    are dropped. The kept filters come back as a Harvest, whose Patterns are
    built only when read."""
    precisions = np.asarray(precisions, dtype=np.float64)
    candidates = np.flatnonzero(precisions > PRECISION_THRESHOLD)  # NaN is never above it
    cells, code, _ = binarize_filters(np.asarray(W)[candidates], vocab)
    legal = code < 0
    kept = candidates[legal]
    return Harvest(cells=cells[legal], era=np.full(len(kept), era), filter_index=kept,
                   precision=precisions[kept])


def train_full(config: TrainConfig, train_set: Dataset, val_set: Dataset | None,
               M: int, k: int, d: int, log=None):
    """Run the full era protocol.

    Each era: epochs under the staggered schedule, then filter precisions on
    the training set, an immutable snapshot, harvesting of qualifying
    binarized filters, and reinitialization of empty/low-precision filters
    (between eras). Deterministic given the config seed.
    """
    if d != train_set.vocabulary.d:
        raise DataError("model d does not match the dataset vocabulary")
    sched = config.schedule
    rng = np.random.default_rng(config.seed)
    state = netcore.init_state(M, k, d, rng=rng)
    train_w = WindowedSet.build(train_set, k)
    n_pos = int(train_w.labels.sum())
    pos_weight = (len(train_w) - n_pos) / n_pos if n_pos else 1.0
    val = (val_set.steps_array(), val_set.labels()) if val_set else None  # None or no clips

    snapshots: list[EraSnapshot] = []
    harvested: list[Pattern] = []
    for era in range(sched.eras):
        for epoch in range(sched.epochs_per_era):
            weights, alpha, freeze = weights_at(sched, epoch, era)
            dropout, lr = anneal_at(config, epoch, era)
            record = train_epoch(state, train_w, weights, alpha, freeze, config,
                                 rng, pos_weight, lr, dropout)
            record.update(era=era, epoch=epoch, learning_rate=lr, dropout_rate=dropout)
            if config.log_val_metrics and val is not None:
                record["val_kappa"] = kappa(confusion(netcore.predict(state, val[0]), val[1]))
            if log is not None:
                log(record)

        precisions = eval_filter_precision(state.W, train_w)
        snapshots.append(EraSnapshot(era=era, W=state.W.copy(),
                                     per_filter_precision=precisions.copy()))
        harvested.extend(harvest_filters(state.W, precisions, era, train_set.vocabulary))
        if era < sched.eras - 1:
            state = era_reset(state, precisions, PRECISION_THRESHOLD, rng)
    return state, snapshots, harvested

"""Progressive constraining: staggered warm-up ramps, the traditional-head
freeze rule, and era-boundary filter reinitialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .netcore import ModelState, init_conv_weights
from .objective import LossWeights

# Stagger as fractions of an era, in the required constraint order:
# filter matching (alpha), possible combinations, single submission,
# minimum step mass, binary weights. Targets reached at 90% of the era.
DEFAULT_STAGGER = {"alpha": 0.0, "poss": 0.10, "sub": 0.20, "min": 0.30, "bin": 0.45}
DEFAULT_TARGETS = {"alpha": 1.0, "poss": 1.0, "sub": 1.0, "min": 0.5, "bin": 2.0}
DEFAULT_RAMP_END_FRACTION = 0.90

FREEZE_ALPHA_THRESHOLD = 0.1  # the traditional head freezes once alpha passes it
DEFAULT_REINIT_PRECISION_THRESHOLD = 0.3


@dataclass(frozen=True)
class RampSpec:
    start_epoch: int
    growth_rate: float
    target: float

    def __post_init__(self):
        if self.start_epoch < 0 or self.growth_rate <= 0 or self.target < 0:
            raise DataError("invalid ramp specification")


def value_at(ramp: RampSpec, epoch: int) -> float:
    """Piecewise-linear warm-up: 0 before start, capped at target."""
    if epoch < ramp.start_epoch:
        return 0.0
    return min(ramp.target, ramp.growth_rate * (epoch - ramp.start_epoch))


@dataclass(frozen=True)
class ConstraintSchedule:
    alpha: RampSpec
    poss: RampSpec
    sub: RampSpec
    min: RampSpec
    bin: RampSpec
    eras: int = 1
    epochs_per_era: int = 200
    reinit_precision_threshold: float = DEFAULT_REINIT_PRECISION_THRESHOLD

    def __post_init__(self):
        starts = [self.alpha.start_epoch, self.poss.start_epoch, self.sub.start_epoch,
                  self.min.start_epoch, self.bin.start_epoch]
        if starts != sorted(starts):
            raise DataError("ramp starts must follow the order alpha, poss, sub, min, bin")
        if self.eras < 1 or self.epochs_per_era < 1:
            raise DataError("era structure must be positive")

    @classmethod
    def default(cls, eras: int = 50, epochs_per_era: int = 200,
                targets: dict | None = None) -> "ConstraintSchedule":
        """Stagger scaled to the era length (starts at 0/10/20/30/45% of an
        era, targets reached by 90%). The alpha ramp is sized over one era but
        advances on the global epoch count, so after the first era the blend
        stays fully on the thresholding branch."""
        tg = dict(DEFAULT_TARGETS)
        if targets:
            tg.update(targets)
        ramps = {name: RampSpec(start_epoch=start, growth_rate=tg[name] / span,
                                target=tg[name])
                 for name, (start, span) in ramp_windows(epochs_per_era).items()}
        return cls(eras=eras, epochs_per_era=epochs_per_era, **ramps)


def ramp_windows(epochs_per_era: int) -> dict[str, tuple[int, float]]:
    """(start epoch, epochs to reach the target) of each default ramp in an
    era of this length."""
    end = DEFAULT_RAMP_END_FRACTION * epochs_per_era
    windows = {}
    for name, frac in DEFAULT_STAGGER.items():
        start = int(round(frac * epochs_per_era))
        windows[name] = (start, max(end - start, 1.0))
    return windows


def weights_at(schedule: ConstraintSchedule, epoch_in_era: int, era: int):
    """(LossWeights, alpha, freeze_trad) at a point in training.

    Gamma ramps restart each era; alpha runs on the global epoch count and is
    never reset, which makes the freeze rule sticky by monotonicity.
    """
    if epoch_in_era < 0 or era < 0:
        raise DataError("negative epoch or era")
    weights = LossWeights(
        bin=value_at(schedule.bin, epoch_in_era),
        min=value_at(schedule.min, epoch_in_era),
        sub=value_at(schedule.sub, epoch_in_era),
        poss=value_at(schedule.poss, epoch_in_era),
    )
    alpha = value_at(schedule.alpha, era * schedule.epochs_per_era + epoch_in_era)
    freeze = alpha > FREEZE_ALPHA_THRESHOLD
    return weights, alpha, freeze


def era_reset(state: ModelState, per_filter_precision: np.ndarray,
              schedule: ConstraintSchedule, rng: np.random.Generator | int | None) -> ModelState:
    """Re-draw empty, never-matching (NaN precision) and sub-threshold filters;
    carry every other filter over unchanged. fc_trad and alpha are untouched."""
    prec = np.asarray(per_filter_precision, dtype=np.float64)
    if prec.shape != (state.M,):
        raise DataError("precision vector length does not match the filter count")
    rng = np.random.default_rng(rng)
    empty = (state.W.reshape(state.M, -1) == 0).all(axis=1)
    reinit = empty | np.isnan(prec) | (prec < schedule.reinit_precision_threshold)
    new_state = state.copy()
    if reinit.any():
        fresh = init_conv_weights(int(reinit.sum()), state.k, state.d, rng)
        new_state.W[reinit] = fresh
    return new_state

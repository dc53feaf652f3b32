"""Progressive constraining: staggered warm-up ramps, the traditional-head
freeze rule, and era-boundary filter reinitialization."""

from __future__ import annotations

from dataclasses import dataclass

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
REINIT_PRECISION_THRESHOLD = 0.3  # training redraws filters below it at each era end


@dataclass(frozen=True)
class ConstraintSchedule:
    """The era structure and the target of each ramp. Where in an era each
    ramp starts and ends is fixed by DEFAULT_STAGGER and
    DEFAULT_RAMP_END_FRACTION."""

    eras: int
    epochs_per_era: int
    alpha: float
    poss: float
    sub: float
    min: float
    bin: float

    def __post_init__(self):
        if self.eras < 1 or self.epochs_per_era < 1:
            raise DataError("era structure must be positive")

    @classmethod
    def default(cls, eras: int = 50, epochs_per_era: int = 200,
                targets: dict | None = None) -> "ConstraintSchedule":
        """The schedule with the targets of `targets`, and DEFAULT_TARGETS for
        the ramps it leaves out."""
        return cls(eras=eras, epochs_per_era=epochs_per_era,
                   **{**DEFAULT_TARGETS, **(targets or {})})


def ramp_windows(epochs_per_era: int) -> dict[str, tuple[int, float]]:
    """(start epoch, epochs to reach the target) of each ramp in an era of
    this length: starts at 0/10/20/30/45% of the era, targets reached by 90%."""
    end = DEFAULT_RAMP_END_FRACTION * epochs_per_era
    windows = {}
    for name, frac in DEFAULT_STAGGER.items():
        start = int(round(frac * epochs_per_era))
        windows[name] = (start, max(end - start, 1.0))
    return windows


def weights_at(schedule: ConstraintSchedule, epoch_in_era: int, era: int):
    """(LossWeights, alpha, freeze_trad) at a point in training.

    Each ramp is 0 before its start, then rises linearly to its target over
    its window and stays there. Gamma ramps restart each era; alpha is sized
    over one era but runs on the global epoch count and is never reset, which
    makes the freeze rule sticky by monotonicity.
    """
    if epoch_in_era < 0 or era < 0:
        raise DataError("negative epoch or era")
    values = {}
    for name, (start, span) in ramp_windows(schedule.epochs_per_era).items():
        epoch = era * schedule.epochs_per_era + epoch_in_era if name == "alpha" else epoch_in_era
        target = getattr(schedule, name)
        values[name] = 0.0 if epoch < start else min(target, target / span * (epoch - start))
    alpha = values.pop("alpha")
    return LossWeights(**values), alpha, alpha > FREEZE_ALPHA_THRESHOLD


def era_reset(state: ModelState, per_filter_precision: np.ndarray, threshold: float,
              rng: np.random.Generator | int | None) -> ModelState:
    """Re-draw empty, never-matching (NaN precision) and sub-threshold filters;
    carry every other filter over unchanged. fc_trad and alpha are untouched.
    Training passes REINIT_PRECISION_THRESHOLD."""
    prec = np.asarray(per_filter_precision, dtype=np.float64)
    if prec.shape != (state.M,):
        raise DataError("precision vector length does not match the filter count")
    rng = np.random.default_rng(rng)
    empty = (state.W.reshape(state.M, -1) == 0).all(axis=1)
    reinit = empty | np.isnan(prec) | (prec < threshold)
    new_state = state.copy()
    if reinit.any():
        fresh = init_conv_weights(int(reinit.sum()), state.k, state.d, rng)
        new_state.W[reinit] = fresh
    return new_state

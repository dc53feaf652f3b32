"""Warm-up ramps, the era-boundary semantics of gamma/alpha, the freeze rule,
and filter reinitialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternconv import netcore
from patternconv.errors import DataError
from patternconv.schedule import (DEFAULT_STAGGER, REINIT_PRECISION_THRESHOLD,
                                  ConstraintSchedule, era_reset, ramp_windows,
                                  weights_at)

ORDER = ["alpha", "poss", "sub", "min", "bin"]


def _ramps(s, epoch_in_era, era):
    """Every ramp's value at a point in training, in ORDER."""
    w, alpha, _ = weights_at(s, epoch_in_era, era)
    return [alpha, w.poss, w.sub, w.min, w.bin]


# ------------------------------------------------------------------- ramps

def test_weights_at_piecewise():
    # in a 50-epoch era the poss ramp starts at epoch 5 and reaches 1 at 45
    s = ConstraintSchedule.default(eras=1, epochs_per_era=50)
    assert weights_at(s, 4, 0)[0].poss == 0.0
    assert weights_at(s, 25, 0)[0].poss == pytest.approx(0.5)
    assert weights_at(s, 49, 0)[0].poss == 1.0


@settings(max_examples=30, deadline=None)
@given(e1=st.integers(0, 149), e2=st.integers(0, 149))
def test_weights_at_monotone(e1, e2):
    """Within an era every ramp is nondecreasing; alpha is nondecreasing
    across eras too."""
    s = ConstraintSchedule.default(eras=3, epochs_per_era=50,
                                   targets={name: 0.8 for name in ORDER})
    lo, hi = sorted((e1, e2))
    assert _ramps(s, lo % 50, lo // 50)[0] <= _ramps(s, hi % 50, hi // 50)[0]
    lo, hi = sorted((e1 % 50, e2 % 50))
    assert all(a <= b for a, b in zip(_ramps(s, lo, 0), _ramps(s, hi, 0)))


def _old_ramp(name, target, epochs_per_era, epoch):
    """A ramp in its growth-rate form, growth_rate = target / span, from the
    stagger fraction of its name and a ramp end at 90% of the era."""
    frac = {"alpha": 0.0, "poss": 0.10, "sub": 0.20, "min": 0.30, "bin": 0.45}[name]
    start = int(round(frac * epochs_per_era))
    growth_rate = target / max(0.90 * epochs_per_era - start, 1.0)
    return 0.0 if epoch < start else min(target, growth_rate * (epoch - start))


def _bits(values):
    return [(type(v), float(v).hex()) for v in values]


@pytest.mark.parametrize("eras,epochs_per_era,targets", [
    (5, 50, None),
    (3, 7, {"alpha": 1, "poss": 3, "sub": 1e-300, "min": 0.7, "bin": 2.5}),
], ids=["default", "odd_targets_7_epochs"])
def test_weights_at_keeps_the_bits_of_the_growth_rate_ramps(eras, epochs_per_era, targets):
    """Every gamma and alpha, and the freeze flag, at every epoch: gammas
    restart each era and alpha runs on the global epoch count."""
    s = ConstraintSchedule.default(eras=eras, epochs_per_era=epochs_per_era, targets=targets)
    tg = {"alpha": 1.0, "poss": 1.0, "sub": 1.0, "min": 0.5, "bin": 2.0, **(targets or {})}
    for era in range(eras):
        for epoch in range(epochs_per_era):
            old = [_old_ramp(name, tg[name], epochs_per_era,
                             era * epochs_per_era + epoch if name == "alpha" else epoch)
                   for name in ORDER]
            assert _bits(_ramps(s, epoch, era)) == _bits(old), (era, epoch)
            assert weights_at(s, epoch, era)[2] == (old[0] > 0.1)


def test_default_fills_the_targets_a_caller_leaves_out():
    s = ConstraintSchedule.default(eras=2, epochs_per_era=10, targets={"bin": 3.0})
    assert (s.eras, s.epochs_per_era) == (2, 10)
    assert [getattr(s, name) for name in ORDER] == [1.0, 1.0, 1.0, 0.5, 3.0]


# ------------------------------------------------------------------ schedule

def test_ramp_windows_start_in_the_stagger_order():
    starts = [ramp_windows(50)[name][0] for name in ORDER]
    assert list(ramp_windows(50)) == ORDER
    assert starts == sorted(starts)
    assert starts[0] == 0


def test_default_stagger_ascends_from_zero():
    """The stagger alone orders the ramps, so its fractions ascend from 0
    and every era length keeps the starts in that order."""
    assert list(DEFAULT_STAGGER) == ORDER
    fracs = list(DEFAULT_STAGGER.values())
    assert fracs[0] == 0.0 and fracs == sorted(set(fracs))
    for epochs_per_era in range(1, 301):
        starts = [start for start, _ in ramp_windows(epochs_per_era).values()]
        assert starts == sorted(starts)


def test_default_targets_reached_within_era():
    s = ConstraintSchedule.default(eras=5, epochs_per_era=50)
    w, alpha, _ = weights_at(s, 49, 0)
    assert w.poss == pytest.approx(1.0)
    assert w.sub == pytest.approx(1.0)
    assert w.min == pytest.approx(0.5)
    assert w.bin == pytest.approx(2.0)
    assert alpha == pytest.approx(1.0)


def test_weights_at_initial_state():
    s = ConstraintSchedule.default(eras=2, epochs_per_era=50)
    w, alpha, freeze = weights_at(s, 0, 0)
    assert (w.bin, w.min, w.sub, w.poss) == (0, 0, 0, 0)
    assert alpha == 0.0 and freeze is False


def test_gamma_resets_but_alpha_persists():
    s = ConstraintSchedule.default(eras=2, epochs_per_era=50)
    w_end, alpha_end, _ = weights_at(s, 49, 0)
    w0, alpha0, freeze0 = weights_at(s, 0, 1)
    assert (w0.bin, w0.min, w0.sub, w0.poss) == (0, 0, 0, 0)
    assert alpha0 >= alpha_end > 0
    assert freeze0  # alpha past the freeze threshold stays frozen


def test_ramp_order_prefix_property():
    """At any epoch, constraints with nonzero gamma form a prefix of the order."""
    s = ConstraintSchedule.default(eras=1, epochs_per_era=50)
    for epoch in range(50):
        w, _, _ = weights_at(s, epoch, 0)
        flags = [w.poss > 0, w.sub > 0, w.min > 0, w.bin > 0]
        assert flags == sorted(flags, reverse=True)


def test_freeze_threshold():
    s = ConstraintSchedule.default(eras=1, epochs_per_era=50)
    # alpha ramps to 1 over 45 epochs; it passes 0.1 strictly after epoch 4
    _, alpha4, freeze4 = weights_at(s, 4, 0)
    _, alpha5, freeze5 = weights_at(s, 5, 0)
    assert alpha4 <= 0.1 and not freeze4
    assert alpha5 > 0.1 and freeze5


# ----------------------------------------------------------------- era_reset

def _state(M=4, seed=0):
    return netcore.init_state(M, 3, 13, rng=np.random.default_rng(seed))


def test_era_reset_keeps_good_filters():
    st_ = _state()
    out = era_reset(st_, np.full(4, 0.9), 0.3, np.random.default_rng(1))
    assert (out.W == st_.W).all()
    assert (out.fc_trad == st_.fc_trad).all()


def test_era_reset_redraws_empty_filter():
    st_ = _state()
    st_.W[2] = 0.0
    out = era_reset(st_, np.full(4, 0.9), 0.3, np.random.default_rng(1))
    changed = [m for m in range(4) if not (out.W[m] == st_.W[m]).all()]
    assert changed == [2]
    assert (out.W[2] > 0).any()


def test_era_reset_threshold_is_strict():
    st_ = _state(M=3)
    prec = np.array([0.29, 0.30, 0.31])
    assert REINIT_PRECISION_THRESHOLD == 0.3  # the paper's redraw threshold
    out = era_reset(st_, prec, REINIT_PRECISION_THRESHOLD, np.random.default_rng(2))
    changed = [m for m in range(3) if not (out.W[m] == st_.W[m]).all()]
    assert changed == [0]


def test_era_reset_redraws_nan_precision():
    st_ = _state(M=3)
    out = era_reset(st_, np.array([0.9, np.nan, 0.9]), 0.3, np.random.default_rng(3))
    changed = [m for m in range(3) if not (out.W[m] == st_.W[m]).all()]
    assert changed == [1]


def test_era_reset_idempotent_on_carried_filters():
    st_ = _state()
    prec = np.array([0.9, 0.2, 0.9, np.nan])
    once = era_reset(st_, prec, 0.3, np.random.default_rng(4))
    carried = [0, 2]
    again = era_reset(once, np.full(4, 0.9), 0.3, np.random.default_rng(5))
    for m in carried:
        assert (again.W[m] == st_.W[m]).all()


def test_era_reset_length_mismatch():
    with pytest.raises(DataError):
        era_reset(_state(), np.ones(3), 0.3, 0)


def test_weights_at_rejects_negative_epoch():
    s = ConstraintSchedule.default(eras=2, epochs_per_era=50)
    with pytest.raises(DataError):
        weights_at(s, -1, 0)

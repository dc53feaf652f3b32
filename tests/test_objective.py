"""Loss terms: fixed-value oracles, zero conditions, gradients vs finite
differences, and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternconv.objective import (BCE_CLAMP, LossWeights, MinPenaltyParams, bce, bce_grad,
                                   regularizer_grad, regularizer_terms, regularizer_value)

MP = MinPenaltyParams()  # r=0.5, onset=3, bias=1
TERMS = ("bin", "min", "sub", "poss")


def _term(name, W, vocab):
    """One unscaled term's value."""
    return regularizer_terms(W, vocab)[name]


def _grad(name, W, vocab):
    """One term's gradient: regularizer_grad with only that weight set to 1."""
    return regularizer_grad(W, LossWeights(**{name: 1.0}), vocab)


# ----------------------------------------------------------------------- bce

def test_bce_values():
    assert bce(0.5, 1) == pytest.approx(math.log(2))
    assert bce(0.5, 0) == pytest.approx(math.log(2))
    assert bce(0.9, 1) == pytest.approx(-math.log(0.9))
    assert bce(0.9, 0) == pytest.approx(-math.log(0.1))


def test_bce_clamps_extremes():
    assert np.isfinite(bce(0.0, 1)) and np.isfinite(bce(1.0, 0))
    assert bce_grad(0.0, 1) == 0.0  # clamp zone carries no gradient


def _clip_bce(y, label):
    y = np.clip(y, BCE_CLAMP, 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    return -(label * np.log(y) + (1.0 - label) * np.log(1.0 - y))


def _clip_bce_grad(y, label):
    yc = np.clip(y, BCE_CLAMP, 1.0 - BCE_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    g = -(label / yc - (1.0 - label) / (1.0 - yc))
    return g * ((y > BCE_CLAMP) & (y < 1.0 - BCE_CLAMP))


# each clamp bound with the doubles on either side of it, the midpoint, the
# ends of [0, 1], a signed zero and a NaN
_LO, _HI = BCE_CLAMP, 1.0 - BCE_CLAMP
BCE_EDGES = [0.0, np.nextafter(_LO, 0.0), _LO, np.nextafter(_LO, 1.0), 0.5,
             np.nextafter(_HI, 0.0), _HI, np.nextafter(_HI, 1.0), 1.0, -0.0, np.nan]


def _same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("fn, ref", [(bce, _clip_bce), (bce_grad, _clip_bce_grad)])
def test_bce_at_the_clamp_is_bit_for_bit_its_np_clip_formula(fn, ref):
    """bce and bce_grad clamp y with np.maximum then np.minimum, not np.clip:
    the same bits and type as the np.clip formula at every edge of the
    clamp, for scalar and array y and labels."""
    for y in BCE_EDGES:
        for label in (0, 1, 0.0, 1.0):
            assert _same_bits(fn(y, label), ref(y, label)), (y, label)
            assert _same_bits(fn(np.float64(y), label), ref(np.float64(y), label)), (y, label)
    ys = np.array(BCE_EDGES)
    for labels in (np.zeros(len(ys)), np.ones(len(ys)), np.arange(len(ys)) % 2):
        assert _same_bits(fn(ys, labels), ref(ys, labels))
        assert _same_bits(fn(ys, 1), ref(ys, 1))


# ---------------------------------------------------------------- bin term

def test_l_bin_values(vocab):
    W = np.zeros((1, 1, vocab.d))
    W[0, 0, :2] = [0.0, 1.0]
    assert _term("bin", W, vocab) == 0.0
    W[0, 0, :2] = [0.5, 0.0]
    assert _term("bin", W, vocab) == pytest.approx(0.25)
    W = np.zeros((2, 1, vocab.d))
    W[:, :, :2] = 0.9
    assert _term("bin", W, vocab) == pytest.approx(0.36)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_l_bin_permutation_invariant(vocab, seed):
    rng = np.random.default_rng(seed)
    W = rng.random((3, 3, vocab.d))
    shuffled = W[rng.permutation(3)][:, rng.permutation(3)][:, :, rng.permutation(vocab.d)]
    assert _term("bin", shuffled, vocab) == pytest.approx(_term("bin", W, vocab))


# ---------------------------------------------------------------- min term

def test_l_min_values(vocab):
    W = np.zeros((1, 3, vocab.d))
    W[0, 0, :3] = 1.0          # mass 3 -> onset, 0
    W[0, 1, :5] = 1.0          # mass 5 -> 0.5^-2 - 1 = 3
    assert _term("min", W, vocab) == pytest.approx(3.0)
    assert _term("min", np.zeros((1, 1, vocab.d)), vocab) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), bump=st.floats(0.01, 1.0))
def test_l_min_monotone_in_step_mass(vocab, seed, bump):
    rng = np.random.default_rng(seed)
    W = rng.random((2, 3, vocab.d)) * 2
    W2 = W.copy()
    W2[1, 2, 0] += bump
    assert _term("min", W2, vocab) >= _term("min", W, vocab) - 1e-12


# ---------------------------------------------------------------- sub term

def test_l_sub_values(vocab):
    W = np.zeros((1, 3, vocab.d))
    for n, idx in enumerate(vocab.submission_indices):
        W[0, n, idx] = 1.0
    assert _term("sub", W, vocab) == 0.0
    W[0, 0, vocab.submission_indices[2]] = 1.0  # help + incorrect
    assert _term("sub", W, vocab) == pytest.approx(1.0)
    W2 = np.zeros((1, 1, vocab.d))
    W2[0, 0, list(vocab.submission_indices)] = 0.4
    assert _term("sub", W2, vocab) == pytest.approx(0.2)


# --------------------------------------------------------------- poss term

def test_l_poss_values(vocab):
    h = sorted(vocab.help_related)
    a = sorted(vocab.attempt_related)
    W = np.zeros((1, 1, vocab.d))
    W[0, 0, a[0]] = 1.0  # one-sided -> 0
    assert _term("poss", W, vocab) == 0.0
    W[0, 0, h[0]] = 1.0  # one unit on each side -> (1/5)^2
    assert _term("poss", W, vocab) == pytest.approx(0.04)
    W2 = np.zeros((1, 1, vocab.d))
    W2[0, 0, h] = 1.0
    assert _term("poss", W2, vocab) == 0.0


def test_l_poss_is_per_step_sum(vocab):
    """Each step contributes independently (sum over p and n of a per-step min)."""
    h = sorted(vocab.help_related)
    a = sorted(vocab.attempt_related)
    W = np.zeros((2, 3, vocab.d))
    W[0, 0, h[0]] = W[0, 0, a[0]] = 1.0
    W[1, 2, h[:2]] = 1.0
    W[1, 2, a[0]] = 1.0
    expect = (1 / 5) ** 2 + min((2 / 5) ** 2, (1 / 5) ** 2)
    assert _term("poss", W, vocab) == pytest.approx(expect)


# ----------------------------------------------------------- composite loss

def test_total_loss_reduces_to_bce(vocab):
    """With zero regularizer weights the training loss is the BCE alone."""
    W = np.random.default_rng(0).random((2, 3, vocab.d))
    assert regularizer_value(W, LossWeights(), vocab, MP) == 0.0
    assert (regularizer_grad(W, LossWeights(), vocab, MP) == 0).all()


def test_total_loss_composition(vocab):
    """BCE plus the weighted regularizer value, as a training step adds them."""
    W = np.zeros((1, 1, vocab.d))
    W[0, 0, sorted(vocab.attempt_related)[0]] = 0.5
    v = float(bce(0.5, 1)) + regularizer_value(W, LossWeights(bin=2.0), vocab, MP)
    assert v == pytest.approx(math.log(2) + 2 * 0.25)


def test_regularizers_zero_on_target_set(vocab):
    """Binary, single-submission, one-sided, mass <= onset -> all terms zero."""
    W = np.zeros((1, 3, vocab.d))
    a = sorted(vocab.attempt_related)
    W[0, 0, vocab.submission_indices[2]] = 1.0
    W[0, 0, a[0]] = 1.0
    W[0, 1, vocab.submission_indices[1]] = 1.0
    weights = LossWeights(bin=1, min=1, sub=1, poss=1)
    assert regularizer_value(W, weights, vocab, MP) == 0.0


def test_regularizers_nonnegative(vocab):
    rng = np.random.default_rng(3)
    for _ in range(20):
        W = rng.random((2, 3, vocab.d)) * 1.5
        terms = regularizer_terms(W, vocab, MP)
        assert all(v >= 0 for v in terms.values())


# ----------------------------------------------------------------- gradients

def _fd(fn, W, h=1e-6):
    g = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        g[idx] = (fn(Wp) - fn(Wm)) / (2 * h)
    return g


@pytest.mark.parametrize("name", TERMS)
def test_regularizer_gradients_match_fd(vocab, name):
    rng = np.random.default_rng(17)
    for _ in range(5):
        W = rng.random((2, 3, vocab.d)) * 1.4 + 0.01
        g, fd = _grad(name, W, vocab), _fd(lambda W: _term(name, W, vocab), W)
        mask = np.abs(g) > 1e-8
        assert mask.any()
        np.testing.assert_allclose(g[mask], fd[mask], rtol=1e-4, atol=1e-7)


def test_weighted_gradient_is_weighted_sum(vocab):
    """Value and gradient are linear in the weights: the four-weight call
    equals the weighted sum of single-weight calls."""
    rng = np.random.default_rng(19)
    W = rng.random((2, 3, vocab.d))
    w = LossWeights(bin=0.5, min=0.2, sub=1.5, poss=0.7)
    terms = regularizer_terms(W, vocab)
    assert regularizer_value(W, w, vocab) == pytest.approx(
        sum(getattr(w, name) * terms[name] for name in TERMS))
    expect = sum(getattr(w, name) * _grad(name, W, vocab) for name in TERMS)
    np.testing.assert_allclose(regularizer_grad(W, w, vocab, MP), expect)


def test_loss_weights_validation():
    from patternconv.errors import DataError
    with pytest.raises(DataError):
        LossWeights(bin=-0.1)
    with pytest.raises(DataError):
        MinPenaltyParams(rate=1.5)

"""Shared fixtures and helpers for the test suite."""

import os
import tracemalloc

import numpy as np
import pytest

import patternconv
from patternconv import cli, corpus
from patternconv.corpus import FeatureVocabulary
from patternconv.curator import Pattern


def pytest_report_header(config):
    # pytest's pythonpath setting puts this checkout's src/ ahead of
    # PYTHONPATH, so name the package the run tests
    return f"patternconv: {os.path.dirname(patternconv.__file__)}"


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def vocab() -> FeatureVocabulary:
    return FeatureVocabulary.default()


@pytest.fixture(scope="session")
def planted(vocab):
    return cli.default_planted_patterns(vocab)


def random_legal_steps(vocab: FeatureVocabulary, L: int, rng: np.random.Generator,
                       p_help: float = 0.3, p_feature: float = 0.15) -> np.ndarray:
    """One random legal clip (L, d) honoring all step invariants."""
    return np.stack([
        corpus._random_legal_step(vocab, rng, p_help, p_feature) for _ in range(L)
    ])


def random_legal_clip_batch(vocab: FeatureVocabulary, n: int, L: int,
                            rng: np.random.Generator, p_help: float = 0.3,
                            p_feature: float = 0.25) -> np.ndarray:
    """Vectorized batch of random legal clips (n, L, d)."""
    d = vocab.d
    X = np.zeros((n, L, d), dtype=np.uint8)
    is_help = rng.random((n, L)) < p_help
    attempt = np.array(vocab.attempt_indices)
    att_choice = attempt[rng.integers(len(attempt), size=(n, L))]
    h_idx = sorted(vocab.help_related)
    a_idx = sorted(vocab.attempt_related)
    X[np.arange(n)[:, None], np.arange(L)[None, :], np.where(is_help, vocab.help_index, att_choice)] = 1
    feats = rng.random((n, L, d)) < p_feature
    X[:, :, h_idx] |= (feats[:, :, h_idx] & is_help[:, :, None]).astype(np.uint8)
    X[:, :, a_idx] |= (feats[:, :, a_idx] & ~is_help[:, :, None]).astype(np.uint8)
    return X


def random_legal_pattern(vocab: FeatureVocabulary, k: int, rng: np.random.Generator,
                         p_cell: float = 0.25) -> Pattern:
    """A random binary pattern honoring the Pattern invariants, >= 1 positive cell."""
    d = vocab.d
    h_idx = sorted(vocab.help_related)
    a_idx = sorted(vocab.attempt_related)
    while True:
        cells = np.zeros((k, d), dtype=np.uint8)
        for n in range(k):
            if rng.random() < 0.7:  # step has a submission requirement
                cells[n, rng.choice(vocab.submission_indices)] = 1
            side = h_idx if rng.random() < 0.5 else a_idx
            for j in side:
                if rng.random() < p_cell:
                    cells[n, j] = 1
        if cells.sum() > 0:
            return Pattern(cells=cells, pattern_id=f"rand-{rng.integers(1 << 30)}")


def padded_clips(X: np.ndarray, padding: int) -> np.ndarray:
    """Clips (B, L, d) with `padding` zero steps at either end."""
    B, L, d = X.shape
    Xp = np.zeros((B, L + 2 * padding, d), dtype=X.dtype)
    Xp[:, padding:padding + L] = X
    return Xp


def brute_first_window(cells: np.ndarray, X: np.ndarray, padding: int) -> np.ndarray:
    """(P, B) first window of the padded clips X (B, L, d) that holds every
    1-cell of each pattern (P, k, d), -1 when none: a scan of each window."""
    P, k, d = cells.shape
    Xp = padded_clips(X, padding)
    C = Xp.shape[1] - k + 1
    out = np.full((P, len(X)), -1, dtype=np.int64)
    for p in range(P):
        req = list(zip(*np.nonzero(cells[p])))
        for b in range(len(X)):
            for c in range(C):
                if all(Xp[b, c + n, j] for n, j in req):
                    out[p, b] = c
                    break
    return out

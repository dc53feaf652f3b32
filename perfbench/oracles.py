"""Brute-force reference implementations the benchmark checks outputs with.

They are written from the documented semantics, not from the package's
code paths: matching walks every window and row, and subsumption enumerates
the windows at which a pattern can match.
"""

from __future__ import annotations

import numpy as np

CLIP_LENGTH = 5
PADDING = 1


def first_window(cells: np.ndarray, X: np.ndarray, padding: int = PADDING) -> np.ndarray:
    """First window (padded coordinates) at which `cells` matches each clip of
    X (n, L, d), or -1. A window matches when every required cell is 1 in the
    clip; a required cell that falls on padding never matches."""
    k = cells.shape[0]
    n, L, _ = X.shape
    first = np.full(n, -1, dtype=np.int64)
    for c in range(L - k + 2 * padding, -1, -1):
        ok = np.ones(n, dtype=bool)
        for r in range(k):
            req = cells[r].astype(bool)
            if not req.any():
                continue
            t = c + r - padding
            if 0 <= t < L:
                ok &= (X[:, t, req] == 1).all(axis=1)
            else:
                ok[:] = False
        first[ok] = c
    return first


def predict(bank: list[np.ndarray], X: np.ndarray, padding: int = PADDING) -> np.ndarray:
    """(n_patterns, n_clips) first-window matrix of a bank over clips."""
    if not bank:
        return np.zeros((0, X.shape[0]), dtype=np.int64)
    return np.stack([first_window(c, X, padding) for c in bank])


def _feasible_windows(cells: np.ndarray, clip_length: int, padding: int) -> list[int]:
    k = cells.shape[0]
    rows = np.flatnonzero(cells.any(axis=1))
    return [c for c in range(clip_length - k + 1 + 2 * padding)
            if all(0 <= c + r - padding < clip_length for r in rows)]


def subsumes(a: np.ndarray, b: np.ndarray, clip_length: int = CLIP_LENGTH,
             padding: int = PADDING) -> bool:
    """True when pattern `a` is more general than `b`: its required cells are
    a strict subset of b's, or a subset of b's after a row shift `s` that
    keeps every window where b can match a valid window for a."""
    a, b = a.astype(bool), b.astype(bool)
    if (a <= b).all() and (a != b).any():
        return True
    k = a.shape[0]
    n_windows = clip_length - k + 1 + 2 * padding
    windows_b = _feasible_windows(b, clip_length, padding)
    if not windows_b:
        return False
    rows_a = np.flatnonzero(a.any(axis=1))
    for s in range(-(k - 1), k):
        if s == 0 or any(not 0 <= r + s < k for r in rows_a):
            continue
        moved = np.zeros_like(a)
        moved[rows_a + s] = a[rows_a]
        if (moved <= b).all() and all(0 <= c + s < n_windows for c in windows_b):
            return True
    return False


def subsuming_pairs(patterns: list[np.ndarray]) -> list[tuple[int, int]]:
    """Every ordered pair (i, j), i != j, where pattern i subsumes pattern j."""
    return [(i, j) for i, a in enumerate(patterns) for j, b in enumerate(patterns)
            if i != j and subsumes(a, b)]


def confusion(pred: np.ndarray, labels: np.ndarray) -> tuple[int, int, int, int]:
    pred, labels = np.asarray(pred, bool), np.asarray(labels, bool)
    return (int((pred & labels).sum()), int((pred & ~labels).sum()),
            int((~pred & ~labels).sum()), int((~pred & labels).sum()))


def kappa(pred: np.ndarray, labels: np.ndarray) -> float | None:
    """Two-class Cohen's kappa of boolean predictions; None when undefined."""
    tp, fp, tn, fn = confusion(pred, labels)
    n = tp + fp + tn + fn
    if n == 0:
        return None
    observed = (tp + tn) / n
    chance = ((tp + fp) * (tp + fn) + (tn + fn) * (tn + fp)) / (n * n)
    if chance == 1.0:
        return None
    return (observed - chance) / (1.0 - chance)


def report(pred: np.ndarray, labels: np.ndarray) -> dict:
    """accuracy, precision, recall and kappa of boolean predictions."""
    tp, fp, tn, fn = confusion(pred, labels)
    n = tp + fp + tn + fn
    return {"accuracy": (tp + tn) / n if n else 0.0,
            "precision": tp / (tp + fp) if tp + fp else None,
            "recall": tp / (tp + fn) if tp + fn else None,
            "kappa": kappa(pred, labels)}


def close(x, y, tol: float = 1e-9) -> bool:
    """Equality of two optional floats within `tol`."""
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= tol

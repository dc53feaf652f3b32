"""Hot numeric kernels: window convolution and discrete pattern matching.

`clip_windows` is the one window builder (im2col): the convolution's forward
and backward passes and discrete first-window matching all read its windows
of the zero-padded clips, each as a single 2-D matrix multiply. A binary
pattern matches a window when the window holds all of its 1-cells, that is,
when the window-times-pattern count reaches the pattern's cell count.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

USE_NUMBA = False  # the only kernel path is numpy; perfbench/run.py stamps runs with it


def clip_windows(X: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Flattened length-k windows of zero-padded clips (B, L, d): a (B, C, k·d)
    copy in the dtype of X, with C = L + 2·padding - k + 1."""
    B, L, d = X.shape
    C = L + 2 * padding - k + 1
    if C < 1:
        raise DataError("clip too short for the kernel even with padding")
    out = np.zeros((B, C, k * d), dtype=X.dtype)
    flat = X.reshape(B, L * d)
    # window c holds clip steps c - padding ... c - padding + k - 1; the ones
    # inside the clip, lo ... hi - 1, are one contiguous run of values in both
    for c in range(C):
        lo, hi = max(0, c - padding), min(L, c - padding + k)
        if lo < hi:
            out[:, c, (lo - c + padding) * d:(hi - c + padding) * d] = flat[:, lo * d:hi * d]
    return out


def _window_product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(B, C, M) products of flattened windows X (B, C, k·d) with filters W (M, k, d)."""
    B, C, kd = X.shape
    return (X.reshape(-1, kd) @ W.reshape(len(W), kd).T).reshape(B, C, len(W))


def conv_forward_batch(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-activation feature maps (B, C, M) of filters W (M, k, d) over float64
    clip windows X (B, C, k·d)."""
    return _window_product(X, W)


def conv_backward_batch(dh: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """dL/dW (M, k, d) from feature-map gradients dh (B, C, M) over float64 clip
    windows X (B, C, k·d)."""
    M, kd = dh.shape[2], X.shape[2]
    return (dh.reshape(-1, M).T @ X.reshape(-1, kd)).reshape(M, k, kd // k)


def match_hits(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B, C, P) whether each of the patterns (P, k, d) matches each of the
    binary clip windows X (B, C, k·d) from `clip_windows`: every 1-cell is 1
    in the window; 0-cells are unconstrained."""
    cells = np.asarray(cells, dtype=np.uint8)
    (P, k, d), kd = cells.shape, X.shape[2]
    if k * d != kd:
        raise DataError(f"a {k}x{d} pattern does not fit windows of {kd} cells")
    # float32 counts are exact: each is an integer no larger than k·d < 2**24
    counts = _window_product(X.astype(np.float32), cells.astype(np.float32))
    return counts >= cells.reshape(P, kd).sum(axis=1) - 0.5


def match_first_window(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none: (P, B),
    for the patterns (P, k, d) and clip windows X (B, C, k·d) of `match_hits`."""
    hit = match_hits(cells, X)
    B, C, P = hit.shape
    first = np.full((B, P), -1, dtype=np.int64)
    for c in range(C - 1, -1, -1):  # an earlier hit overwrites a later one
        np.copyto(first, c, where=hit[:, c])
    return np.ascontiguousarray(first.T)

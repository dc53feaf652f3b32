"""Hot numeric kernels: window convolution and discrete pattern matching.

The convolution works on clip windows built once per dataset (im2col,
`clip_windows`), so its forward and backward passes are each a single 2-D
matrix multiply. Discrete first-window matching is the same window product:
a binary pattern matches a window when the window holds all of its 1-cells,
that is, when the window-times-pattern count reaches the pattern's cell count.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

USE_NUMBA = False  # the only kernel path is numpy; perfbench/run.py stamps runs with it


def pad_clips(X: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad (B, L, d) clip batches along the step axis."""
    if padding == 0:
        return X
    return np.pad(X, ((0, 0), (padding, padding), (0, 0)))


def windows(Xp: np.ndarray, k: int) -> np.ndarray:
    """All length-k step windows of padded clips: (B, C, k, d) view."""
    if Xp.shape[1] < k:
        raise DataError("clip too short for the kernel even with padding")
    v = np.lib.stride_tricks.sliding_window_view(Xp, k, axis=1)
    return v.transpose(0, 1, 3, 2)


def clip_windows(X: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Flattened length-k windows of zero-padded clips (B, L, d): a (B, C, k·d)
    copy in the dtype of X, with C = L + 2·padding - k + 1."""
    v = windows(pad_clips(X, padding), k)
    return v.reshape(v.shape[0], v.shape[1], -1)


def _window_product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(B, C, M) products of flattened windows X (B, C, k·d) with filters W (M, k, d)."""
    B, C, kd = X.shape
    return (X.reshape(-1, kd) @ W.reshape(W.shape[0], -1).T).reshape(B, C, -1)


def conv_forward_batch(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-activation feature maps (B, C, M) of filters W (M, k, d) over float64
    clip windows X (B, C, k·d)."""
    return _window_product(X, W)


def conv_backward_batch(dh: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """dL/dW (M, k, d) from feature-map gradients dh (B, C, M) over float64 clip
    windows X (B, C, k·d)."""
    M, kd = dh.shape[2], X.shape[2]
    return (dh.reshape(-1, M).T @ X.reshape(-1, kd)).reshape(M, k, kd // k)


def match_first_window(cells: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none: (P, B).

    A pattern (k, d) matches a window of the padded binary clips Xp (B, Lp, d)
    when every 1-cell is 1 in the window; 0-cells are unconstrained.
    """
    cells = np.asarray(cells, dtype=np.uint8)
    P, k = cells.shape[:2]
    if cells.size == 0 or Xp.shape[0] == 0:
        return np.full((P, Xp.shape[0]), -1, dtype=np.int64)
    # float32 counts are exact: each is an integer no larger than k·d < 2**24
    v = windows(Xp, k).astype(np.float32)
    counts = _window_product(v.reshape(v.shape[0], v.shape[1], -1), cells.astype(np.float32))
    hit = counts >= cells.reshape(P, -1).sum(axis=1) - 0.5
    first = np.full((Xp.shape[0], P), -1, dtype=np.int64)
    for c in range(hit.shape[1] - 1, -1, -1):  # an earlier hit overwrites a later one
        np.copyto(first, c, where=hit[:, c])
    return np.ascontiguousarray(first.T)

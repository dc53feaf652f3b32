"""Hot numeric kernels: window convolution and discrete pattern matching.

`clip_windows` is the one window builder (im2col): a read-only strided view
of one zero-padded copy of the clips, in which window c is the run of k·d
values that starts at padded step c. The convolution's forward and backward
passes and discrete matching all read these windows, each as a single 2-D
matrix multiply. A binary pattern matches a window when the window holds all
of its 1-cells, that is, when the window-times-pattern count reaches the
pattern's cell count; the float32 pattern matrix of that product is padded
with zero rows to a multiple of 4 patterns.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

USE_NUMBA = False  # the only kernel path is numpy; perfbench/run.py stamps runs with it


def clip_windows(X: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Flattened length-k windows of zero-padded clips (B, L, d): a read-only
    (B, C, k·d) view in the dtype of X, with C = L + 2·padding - k + 1, of one
    zero-padded copy of the clips."""
    B, L, d = X.shape
    C = L + 2 * padding - k + 1
    if C < 1:
        raise DataError("clip too short for the kernel even with padding")
    padded = np.zeros((B, L + 2 * padding, d), dtype=X.dtype)
    padded[:, padding:padding + L] = X
    # window c is the run of k·d values that starts at padded step c. A plain
    # ndarray over the buffer costs less per call than as_strided or
    # sliding_window_view, which shows on one clip. The windows overlap, so a
    # write to one would change its neighbours: the view is read-only.
    out = np.ndarray((B, C, k * d), dtype=X.dtype, buffer=padded, strides=padded.strides)
    out.flags.writeable = False
    return out


def conv_forward_batch(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-activation feature maps (B, C, M) of filters W (M, k, d) over float64
    clip windows X (B, C, k·d)."""
    B, C, kd = X.shape
    return (X.reshape(-1, kd) @ W.reshape(len(W), kd).T).reshape(B, C, len(W))


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
    (P, k, d), (B, C, kd) = cells.shape, X.shape
    if k * d != kd:
        raise DataError(f"a {k}x{d} pattern does not fit windows of {kd} cells")
    # float32 counts are exact: each is an integer no larger than k·d < 2**24.
    # Zero rows pad the pattern matrix to a multiple of 4, a width the sgemm
    # runs faster on than on the odd counts a bank has; they are cut off again.
    rows = np.zeros((-(-P // 4) * 4, kd), dtype=np.float32)
    rows[:P] = cells.reshape(P, kd)
    counts = X.astype(np.float32).reshape(-1, kd) @ rows.T
    return (counts[:, :P] >= cells.reshape(P, kd).sum(axis=1) - 0.5).reshape(B, C, P)


def match_first_window(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none: (P, B),
    for the patterns (P, k, d) and clip windows X (B, C, k·d) of `match_hits`."""
    hit = match_hits(cells, X)
    B, C, P = hit.shape
    first = np.full((B, P), -1, dtype=np.int64)
    for c in range(C - 1, -1, -1):  # an earlier hit overwrites a later one
        np.copyto(first, c, where=hit[:, c])
    return np.ascontiguousarray(first.T)

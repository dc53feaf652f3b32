"""Hot numeric kernels: window convolution and discrete pattern matching.

The convolution works on clip windows built once per dataset (im2col,
`clip_windows`), so its forward and backward passes are each a single 2-D
matrix multiply on numpy. Discrete first-window matching is numba-jitted when
numba is installed; set PATTERNCONV_NO_NUMBA=1 to force the pure-numpy path
(same results, useful for debugging and as a benchmark baseline — see
benchmarks/bench_kernels.py).
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("PATTERNCONV_NO_NUMBA", "") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False


def pad_clips(X: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad (B, L, d) clip batches along the step axis."""
    if padding == 0:
        return X
    return np.pad(X, ((0, 0), (padding, padding), (0, 0)))


def windows(Xp: np.ndarray, k: int) -> np.ndarray:
    """All length-k step windows of padded clips: (B, C, k, d) view."""
    v = np.lib.stride_tricks.sliding_window_view(Xp, k, axis=1)
    return v.transpose(0, 1, 3, 2)


def clip_windows(X: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Flattened length-k windows of zero-padded clips (B, L, d): a (B, C, k·d)
    copy in the dtype of X, with C = L + 2·padding - k + 1."""
    v = windows(pad_clips(X, padding), k)
    return v.reshape(v.shape[0], v.shape[1], -1)


def conv_forward_batch(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pre-activation feature maps (B, C, M) of filters W (M, k, d) over float64
    clip windows X (B, C, k·d)."""
    B, C, kd = X.shape
    return (X.reshape(-1, kd) @ W.reshape(W.shape[0], -1).T).reshape(B, C, -1)


def conv_backward_batch(dh: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """dL/dW (M, k, d) from feature-map gradients dh (B, C, M) over float64 clip
    windows X (B, C, k·d)."""
    M, kd = dh.shape[2], X.shape[2]
    return (dh.reshape(-1, M).T @ X.reshape(-1, kd)).reshape(M, k, kd // k)


def _match_first_window_np(cells: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    k = cells.shape[1]
    counts = np.einsum("pkd,bckd->pbc", cells.astype(np.float64),
                       windows(Xp, k).astype(np.float64), optimize=True)
    needed = cells.reshape(cells.shape[0], -1).sum(axis=1).astype(np.float64)
    hit = counts >= needed[:, None, None] - 0.5
    first = np.where(hit.any(axis=2), hit.argmax(axis=2), -1)
    return first.astype(np.int64)


if USE_NUMBA:

    @njit(cache=True)
    def _match_first_window_nb(cells, Xp):
        P, k, d = cells.shape
        B, Lp, _ = Xp.shape
        C = Lp - k + 1
        out = np.full((P, B), -1, dtype=np.int64)
        for p in range(P):
            for b in range(B):
                for c in range(C):
                    ok = True
                    for n in range(k):
                        for j in range(d):
                            if cells[p, n, j] == 1 and Xp[b, c + n, j] == 0:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        out[p, b] = c
                        break
        return out


def match_first_window(cells: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none.

    A pattern matches a window when every 1-cell is 1 in the (padded) clip;
    0-cells are unconstrained.
    """
    cells = np.ascontiguousarray(cells, dtype=np.uint8)
    Xp = np.ascontiguousarray(Xp, dtype=np.uint8)
    if cells.size == 0 or Xp.shape[0] == 0:
        return np.full((cells.shape[0], Xp.shape[0]), -1, dtype=np.int64)
    if USE_NUMBA:
        return _match_first_window_nb(cells, Xp)
    return _match_first_window_np(cells, Xp)

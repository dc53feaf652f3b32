"""Hot numeric kernels: window convolution and discrete pattern matching.

`clip_windows` is the one window builder (im2col): a read-only strided view
of one zero-padded copy of the clips, in which window c is the run of k·d
values that starts at padded step c. The convolution's forward and backward
passes and discrete matching all read these windows, each as a 2-D matrix
multiply. A binary pattern matches a window when the window holds all of its
1-cells, that is, when the window-times-pattern count reaches the pattern's
cell count; the float32 pattern matrix of that product is padded with zero
rows to a multiple of 4 patterns. `_match_blocks` alone makes that product,
about MATCH_BLOCK_ROWS window rows at a time: each block's windows are
converted, multiplied and thresholded, and reduced into the caller's result
before the next, so no temporary grows with clips x windows x patterns. Its
two reductions are `match_first_window` and `match_any`; synth's one-clip
candidate test is one block.
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


# Window rows per block of matching: a block's float32 windows and counts stay
# near cache size (at 132 patterns, about 2.2 MB of counts), and no temporary
# grows with the number of clips. Counted in rows, not clips, so that long
# clips do not grow the block. Blocks of 512 to 2,048 clips at C = 5 timed
# alike; blocks of 128 clips were slower, and so was one pass over 10,000.
MATCH_BLOCK_ROWS = 4096


def _pattern_matrix(cells: np.ndarray, kd: int):
    """The patterns (P, k, d) as float32 rows (P', k·d) for windows of kd
    cells, and each row's hit threshold (P',). P' is P rounded up to a
    multiple of 4, a width the sgemm runs faster on than on the odd counts a
    bank has; the zero padding rows never hit."""
    cells = np.asarray(cells, dtype=np.uint8)
    P, k, d = cells.shape
    if kd != k * d:
        raise DataError(f"a {k}x{d} pattern does not fit windows of {kd} cells")
    rows = np.zeros((-(-P // 4) * 4, kd), dtype=np.float32)
    rows[:P] = cells.reshape(P, kd)
    # The float32 counts are exact integers (none exceeds k·d < 2**24), so a
    # window holds a pattern when its count reaches the pattern's cell count.
    # A padding row counts 0 against a threshold of 1.
    need = rows.sum(axis=1)
    need[P:] = 1.0
    return rows, need


def _match_blocks(cells: np.ndarray, X: np.ndarray):
    """Each block of about MATCH_BLOCK_ROWS rows of the clip windows X
    (B, C, k·d) from `clip_windows`, as its clip slice and (b, C, P') whether
    each window holds each row of the patterns' `_pattern_matrix`: one float32
    GEMM per block, thresholded at once."""
    B, C, kd = X.shape
    rows, need = _pattern_matrix(cells, kd)
    size = max(1, MATCH_BLOCK_ROWS // max(C, 1))
    for lo in range(0, B, size):
        block = X[lo:lo + size]
        # thresholded at once: no block's counts are held while its caller reduces it
        hit = block.astype(np.float32).reshape(-1, kd) @ rows.T >= need
        yield slice(lo, lo + size), hit.reshape(len(block), C, len(rows))


def match_first_window(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none: (P, B),
    for the patterns (P, k, d) and binary clip windows X (B, C, k·d) from
    `clip_windows`; a window matches when it holds every 1-cell."""
    P = len(cells)
    first = np.full((len(X), P), -1, dtype=np.int64)
    for part, hit in _match_blocks(cells, X):
        block, hit = first[part], hit[:, :, :P]
        for c in range(hit.shape[1] - 1, -1, -1):  # an earlier hit overwrites a later one
            np.copyto(block, c, where=hit[:, c])
    return np.ascontiguousarray(first.T)


def match_any(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B,) whether any of the patterns (P, k, d) matches some window of each
    clip, for the clip windows X (B, C, k·d) of `match_first_window`."""
    out = np.empty(len(X), dtype=bool)
    for part, hit in _match_blocks(cells, X):
        out[part] = hit.any(axis=(1, 2))
    return out

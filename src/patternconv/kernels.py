"""Hot numeric kernels: window convolution and discrete pattern matching.

`clip_windows` is the one window builder (im2col): a read-only strided view
of one zero-padded copy of the clips, in which window c is the run of k·d
values that starts at padded step c, padded by the package's one rule,
`padding_for(k)`. The convolution's forward and backward passes and
discrete matching read these windows, each as a 2-D matrix multiply. A
binary pattern matches a window when the window holds all of its 1-cells.
`_pattern_matrix` puts each pattern's threshold inside the product:
its column holds the pattern's cells and then minus its cell count, and each
window gets a trailing constant 1, so the product is the count of the
pattern's cells the window holds less the count it needs, and a hit is a
product of 0 or more, one scalar comparison. The columns are padded with
zero columns ending in -1, which never hit, to a multiple of 4 patterns.
`match_blocks` makes that product, one block of whole clips at a time:
each block's windows are converted into one float32 buffer reused by every
block, multiplied and thresholded, and reduced into the caller's result
before the next. A block holds at most MATCH_BLOCK_ROWS window rows and
MATCH_BLOCK_PRODUCTS row-by-pattern products, so no temporary grows with
the clips or with the patterns. Its consumers:
- `match_first_window` keeps each clip's first matching window per pattern,
  which `explain` and `discrete_match` read;
- `match_any` takes clip steps and reduces each block's hits to one flag
  per clip in one `np.logical_or.reduceat` call, for bank scoring and for
  synth's one-clip candidate test. It has a second row layout,
  `match_clip_rows`: one GEMM row per clip, each clip's L·d cells and a
  trailing 1, times `_shifted_matrix`, the pattern matrix stacked once per
  window at that window's clip steps. Its C·P' products per clip are the
  window rows' exact integers in their order, so the same `reduceat` gives
  the same flags, with no padded copy of the clips and no window buffer.
  The matrix grows as L²·P, so MATCH_FULL_WIDTH's rule picks clip rows
  only for narrow banks over short clips (7 patterns over 5-step clips,
  not 32 patterns or 20-step clips), where the window sgemm is too narrow
  to run at full speed; the matrix is cached per patterns and clip length;
- `match_clip_blocks` reduces each block to whether each pattern matches
  each clip. `match_counts` sums those into per-pattern matched and positive
  clip counts, which filter precision and ranking divide, and
  `match_first_pattern` keeps each clip's lowest matching pattern, which
  the kappa curve counts. Neither holds a clips x patterns matrix: filter
  precision at 2,048 filters over 1,200 clips peaks at 1.2 MB of
  tracemalloc, and ranking plus the kappa curve of 1,359 patterns over
  20,000 clips at 3.3 MB;
- `curator._dominance` reads the patterns themselves as zero-padded clips,
  so that one pass tests whether each pattern holds another at every
  shift; the block bounds pruning too, which peaks at 3.1 MB for 1,359
  patterns, 1.8 MB of it its n x n dominance matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import INTEGER, DataError, fields, within

USE_NUMBA = False  # the only kernel path is numpy; perfbench/run.py stamps runs with it
PADDING = 1


def padding_for(k: int) -> int:
    """The zero steps at either end of a clip that k-step windows read:
    PADDING, so that a 3-step pattern whose edge row is empty acts as a
    2-step pattern at a clip's edge, or k - 1 when that is less, since a
    window past k - 1 padding steps holds no clip step."""
    return min(PADDING, k - 1)


def padding_rule(k: int | None) -> tuple:
    """The `errors.fields` entry of the `padding` that a bank, model or
    snapshot file records for its k-step patterns or filters: padding_for(k),
    which a file without the field reads as. A bank without patterns has no
    k, and may record the padding of any k."""
    if k is None:
        return (*within(f"[0, {PADDING}]", INTEGER), PADDING)
    want = padding_for(k)
    return (lambda value: INTEGER[0](value) and value == want), f"{want} at k = {k}", want


def check_padding(padding: int | None, k: int, what: str) -> None:
    """DataError, naming `what`, unless the `padding` a caller gave for
    k-step patterns is None or padding_for(k)."""
    if padding is not None:
        fields({"padding": padding}, {"padding": padding_rule(k)}, what)


def window_count(L: int, k: int, padding: int) -> int:
    """C = L + 2·padding - k + 1, the k-step windows of a padded L-step clip;
    DataError when there are none."""
    C = L + 2 * padding - k + 1
    if C < 1:
        raise DataError("clip too short for the kernel even with padding")
    return C


def clip_windows(X: np.ndarray, k: int, padding: int | None = None) -> np.ndarray:
    """Flattened length-k windows of zero-padded clips (B, L, d): a read-only
    (B, C, k·d) view in the dtype of X, with C = L + 2·padding - k + 1, of one
    zero-padded copy of the clips. The padding is padding_for(k) unless
    given."""
    if padding is None:
        padding = padding_for(k)
    B, L, d = X.shape
    C = window_count(L, k, padding)
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


# A block of matching holds at most MATCH_BLOCK_ROWS window rows and at most
# MATCH_BLOCK_PRODUCTS row-by-pattern float32 products (512 KB), so no
# temporary grows with the number of clips or of patterns: 2,048 rows at 64
# patterns, 96 at 1,360, and the rows cap alone below 32 patterns, as for a
# 7-pattern bank. The block that bounds matching also bounds subsumption
# pruning, whose clips are the patterns. Counted in rows, not clips, so that
# long clips do not grow the block. Blocks of 512 to 2,048 clips at C = 5
# timed alike for a few patterns; blocks of 128 clips were slower, and so was
# one pass over 10,000.
MATCH_BLOCK_ROWS = 4096
MATCH_BLOCK_PRODUCTS = 1 << 17
# The window sgemm reaches full speed at about 32 pattern columns: a narrower
# bank takes about as long as 32 columns. `match_any` makes one GEMM row per
# clip instead, by `_shifted_matrix`, when that costs no more products a clip:
# (L·d + 1)·P' <= (k·d + 1)·max(P', MATCH_FULL_WIDTH). In-process medians of
# 9 alternating calls, 2 CPUs, one BLAS thread, 3-step patterns, d = 13:
#   patterns  clip length  clips   window rows  clip rows  window/clip  picks
#          7            5  10,000      2.26 ms    1.37 ms         1.65  clip
#         16            5  10,000      2.16       1.66            1.30  clip
#         32            5  10,000      2.80       2.74            1.02  window
#         64            5  10,000      4.41       4.87            0.91  window
#        132            5  20,000     15.4       19.7             0.78  window
#          7           10  10,000      3.57       2.77            1.29  clip
#          7           20   5,000      3.36       4.42            0.76  window
#         32           10   5,000      2.56       4.34            0.59  window
MATCH_FULL_WIDTH = 32


def _pattern_matrix(cells: np.ndarray, kd: int) -> np.ndarray:
    """The GEMM's right operand for the patterns (P, k, d) and windows of kd
    cells: a float32 (k·d + 1, P') matrix whose column p holds pattern p's
    cells and then minus its cell count, so that a window with a trailing 1
    times column p is the count of the pattern's cells the window holds,
    less the count it needs: 0 or more exactly when the window holds them
    all. P' is P rounded up to a multiple of 4, a width the sgemm runs
    faster on than on the odd counts a bank has; a zero padding column ends
    in -1, so it never hits."""
    cells = np.asarray(cells, dtype=np.uint8)
    P, k, d = cells.shape
    if kd != k * d:
        raise DataError(f"a {k}x{d} pattern does not fit windows of {kd} cells")
    rows = np.zeros((-(-P // 4) * 4, kd + 1), dtype=np.float32)
    rows[:P, :kd] = cells.reshape(P, kd)
    rows[P:, kd] = 1.0  # so that a padding row sums to 1
    np.negative(rows.sum(axis=1), out=rows[:, kd])
    return rows.T  # built a pattern a row, where the copy and count are cheaper


def match_blocks(cells: np.ndarray, X: np.ndarray):
    """Each block of whole clips of the clip windows X (B, C, k·d) from
    `clip_windows`, as its clip slice and (b·C, P') whether each window holds
    each column of the patterns' `_pattern_matrix`: one float32 GEMM per
    block, thresholded at once. A block has at most MATCH_BLOCK_ROWS rows and
    MATCH_BLOCK_PRODUCTS products, and at least one clip."""
    B, C, kd = X.shape
    cols = _pattern_matrix(cells, kd)
    rows = min(MATCH_BLOCK_ROWS, MATCH_BLOCK_PRODUCTS // max(cols.shape[1], 1))
    size = max(1, rows // max(C, 1))
    # one buffer of float32 windows for every block, each window followed by
    # a constant 1 that picks up its pattern's minus cell count
    windows = np.empty((min(B, size), C, kd + 1), dtype=np.float32)
    windows[..., kd] = 1.0
    for lo in range(0, B, size):
        block = X[lo:lo + size]
        windows[:len(block), :, :kd] = block
        # The float32 products are exact integers (every partial sum lies
        # within k·d < 2**24 of 0). Thresholded at once: no block's products
        # are held while its caller reduces it.
        yield slice(lo, lo + size), windows[:len(block)].reshape(-1, kd + 1) @ cols >= 0


def match_first_window(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """First matching window index per (pattern, clip), -1 when none: (P, B),
    for the patterns (P, k, d) and binary clip windows X (B, C, k·d) from
    `clip_windows`; a window matches when it holds every 1-cell."""
    P, C = len(cells), X.shape[1]
    first = np.empty((len(X), P), dtype=np.int64)
    first.fill(-1)  # cheaper than np.full, which shows on one clip
    for part, hit in match_blocks(cells, X):
        block = first[part]
        hit = hit.reshape(len(block), C, -1)[:, :, :P]
        for c in range(C - 1, -1, -1):  # an earlier hit overwrites a later one
            np.copyto(block, c, where=hit[:, c])
    return np.ascontiguousarray(first.T)


@functools.lru_cache(maxsize=16)
def _shifted_matrix(key: bytes, shape: tuple, L: int, d: int, padding: int) -> np.ndarray:
    """The clip rows' GEMM operand for the patterns of `shape` (P, k, d),
    given as their uint8 bytes, and L-step clips of d features padded by
    `padding`: a read-only float32 (L·d + 1, C·P') matrix whose column
    c·P' + p is column p of `_pattern_matrix` put at window c, on clip steps
    c - padding + j. The rows of padding steps are dropped and the last row
    keeps the full minus cell count, so a pattern that needs a padding cell
    never hits, and a clip with a trailing 1 times the matrix is the C·P'
    products of its C window rows, in their order."""
    k = shape[1]
    C = window_count(L, k, padding)
    cols = _pattern_matrix(np.frombuffer(key, dtype=np.uint8).reshape(shape), k * d)
    width = cols.shape[1]
    out = np.zeros((L * d + 1, C * width), dtype=np.float32)
    for c in range(C):
        lo, hi = max(0, c - padding), min(L, c - padding + k)  # the clip steps it reads
        j = lo - (c - padding)  # the pattern row on clip step lo
        out[lo * d:hi * d, c * width:(c + 1) * width] = cols[j * d:(j + hi - lo) * d]
    out[-1] = np.tile(cols[-1], C)
    out.flags.writeable = False  # shared by every call of the cache
    return out


def match_clip_rows(cells: np.ndarray, X: np.ndarray):
    """`match_blocks` for the clip steps X (B, L, d), one GEMM row per clip:
    each block as its clip slice and (b, C·P') whether each window holds
    each column, by `_shifted_matrix`. A block has at most
    MATCH_BLOCK_PRODUCTS products, and at least one clip."""
    cells = np.ascontiguousarray(cells, dtype=np.uint8)
    B, L, d = X.shape
    cols = _shifted_matrix(cells.tobytes(), cells.shape, L, d, padding_for(cells.shape[1]))
    size = max(1, MATCH_BLOCK_PRODUCTS // max(cols.shape[1], 1))
    # one buffer of float32 clips for every block, each with a trailing 1
    rows = np.empty((min(B, size), L * d + 1), dtype=np.float32)
    rows[:, -1] = 1.0
    flat = X.reshape(B, L * d)
    for lo in range(0, B, size):
        block = flat[lo:lo + size]
        rows[:len(block), :-1] = block
        yield slice(lo, lo + size), rows[:len(block)] @ cols >= 0


def match_any(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B,) whether any of the patterns (P, k, d) matches some window of each
    of the clip steps X (B, L, d), padded by padding_for(k): by clip rows
    when MATCH_FULL_WIDTH's rule finds them no costlier, else by window
    rows."""
    P, k = len(cells), cells.shape[1]
    B, L, d = X.shape
    C = window_count(L, k, padding_for(k))
    width = -(-P // 4) * 4
    if (L * d + 1) * width <= (k * d + 1) * max(width, MATCH_FULL_WIDTH):
        blocks = match_clip_rows(cells, X)
    else:
        blocks = match_blocks(cells, clip_windows(X, k))
    out = np.zeros(B, dtype=bool)
    for part, hit in blocks:
        if hit.size:  # a clip's hits are one run of C·P' flags in either layout
            out[part] = np.logical_or.reduceat(hit.ravel(), np.arange(0, hit.size, C * width))
    return out


def match_clip_blocks(cells: np.ndarray, X: np.ndarray):
    """Each block of `match_blocks` as its clip slice and (b, P) whether each
    of the patterns (P, k, d) matches some window of each clip."""
    P, C = len(cells), X.shape[1]
    for part, hit in match_blocks(cells, X):
        yield part, hit.reshape(len(hit) // C, C, hit.shape[1]).any(axis=1)[:, :P]


def match_counts(cells: np.ndarray, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(2, P) int64: per pattern (P, k, d), the clips of the windows X it
    matches, and how many of those the (B,) bool labels mark positive."""
    weights = np.ones((2, len(X)), dtype=np.float32)
    weights[1] = labels
    counts = np.zeros((2, len(cells)))
    for part, hits in match_clip_blocks(cells, X):
        # counts of 0/1 products, exact in float32 below 2**24 clips a block
        counts += weights[:, part] @ hits.astype(np.float32)
    return counts.astype(np.int64)


def match_first_pattern(cells: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B,) int64: per clip of the windows X, the lowest index of the patterns
    (P, k, d) that match it, P when none does."""
    P = len(cells)
    first = np.full(len(X), P, dtype=np.int64)
    if not P:
        return first
    for part, hits in match_clip_blocks(cells, X):
        lowest = hits.argmax(axis=1)
        first[part] = np.where(hits[np.arange(len(lowest)), lowest], lowest, P)
    return first

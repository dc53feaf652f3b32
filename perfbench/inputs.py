"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: clip logs are generated with
vectorised numpy and written in the package's line-delimited clip format,
and the curation pool is written as era snapshot files. The package only
ever sees the files.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracles
from patternconv import cli

CLIP_LENGTH = 5
K = 3
PADDING = 1


def planted_patterns(vocab) -> list[np.ndarray]:
    """The package's three planted patterns, as (k, d) uint8 arrays."""
    return [p.cells for p in cli.default_planted_patterns(vocab)]


# ---------------------------------------------------------------- clip logs

def random_steps(vocab, n: int, rng, p_help: float = 0.3, p_feature: float = 0.1) -> np.ndarray:
    """(n, L, d) legal clips: one submission type per step, context features
    only on their own side of the help/attempt divide."""
    X = np.zeros((n, CLIP_LENGTH, vocab.d), dtype=np.uint8)
    is_help = rng.random((n, CLIP_LENGTH)) < p_help
    attempts = np.array(vocab.attempt_indices)
    sub = np.where(is_help, vocab.help_index,
                   attempts[rng.integers(len(attempts), size=(n, CLIP_LENGTH))])
    np.put_along_axis(X, sub[..., None], 1, axis=2)
    on = rng.random((n, CLIP_LENGTH, vocab.d)) < p_feature
    h, a = sorted(vocab.help_related), sorted(vocab.attempt_related)
    X[..., h] |= (on[..., h] & is_help[..., None]).astype(np.uint8)
    X[..., a] |= (on[..., a] & ~is_help[..., None]).astype(np.uint8)
    return X


def stamp(X: np.ndarray, idx: np.ndarray, cells: np.ndarray, window: np.ndarray,
          vocab, rng) -> None:
    """Overlay `cells` on clips `idx` at step offsets `window`, keeping every
    step legal. `cells` must be a consistent pattern (no row asks for both
    sides of the help/attempt divide)."""
    subs = list(vocab.submission_indices)
    h, a = sorted(vocab.help_related), sorted(vocab.attempt_related)
    attempts = np.array(vocab.attempt_indices)
    for n in range(cells.shape[0]):
        req = np.flatnonzero(cells[n])
        if req.size == 0:
            continue
        rows = X[idx, window + n].copy()
        req_sub = [j for j in req if j in subs]
        if req_sub:
            rows[:, subs] = 0
            rows[:, req_sub[0]] = 1
        elif any(j in vocab.help_related for j in req):
            rows[:, subs] = 0
            rows[:, vocab.help_index] = 1
        elif any(j in vocab.attempt_related for j in req):
            helped = rows[:, vocab.help_index] == 1
            rows[helped, vocab.help_index] = 0
            pick = attempts[rng.integers(len(attempts), size=int(helped.sum()))]
            rows[np.flatnonzero(helped), pick] = 1
        rows[:, req] = 1
        helped = rows[:, vocab.help_index] == 1
        rows[np.ix_(helped, a)] = 0
        rows[np.ix_(~helped, h)] = 0
        X[idx, window + n] = rows


def clip_log(vocab, n: int, seed: int, p_plant: float = 0.05,
             p_distract: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """(steps, labels): `p_plant` of the clips carry a planted pattern; the
    rest match none, and `p_distract` of those carry a planted pattern with
    one required cell removed (a near miss)."""
    rng = np.random.default_rng(seed)
    planted = planted_patterns(vocab)
    X = random_steps(vocab, n, rng)
    labels = rng.random(n) < p_plant
    which = rng.integers(len(planted), size=n)
    for p, cells in enumerate(planted):
        idx = np.flatnonzero(labels & (which == p))
        stamp(X, idx, cells, rng.integers(CLIP_LENGTH - K + 1, size=idx.size), vocab, rng)

    def matches_any(Y):
        return np.any([oracles.first_window(c, Y, PADDING) >= 0 for c in planted], axis=0)

    neg = np.flatnonzero(~labels)
    bad = neg[matches_any(X[neg])]
    while bad.size:
        X[bad] = random_steps(vocab, bad.size, rng)
        bad = bad[matches_any(X[bad])]

    dis = neg[rng.random(neg.size) < p_distract]
    trial = X[dis].copy()
    pick = rng.integers(len(planted), size=dis.size)
    for p, cells in enumerate(planted):
        sel = np.flatnonzero(pick == p)
        ones = np.argwhere(cells == 1)
        drop = ones[rng.integers(len(ones), size=sel.size)]
        for r, j in ones:
            grp = sel[(drop[:, 0] == r) & (drop[:, 1] == j)]
            near = cells.copy()
            near[r, j] = 0
            stamp(trial, grp, near, rng.integers(CLIP_LENGTH - K + 1, size=grp.size),
                  vocab, rng)
    keep = ~matches_any(trial)
    X[dis[keep]] = trial[keep]
    return X, labels


def vocab_record(vocab) -> dict:
    """The vocabulary header of the clip format (also embedded in banks)."""
    return {"format": "patternconv-clips", "version": 1,
            "feature_names": list(vocab.feature_names),
            "submission_indices": list(vocab.submission_indices),
            "help_related": sorted(vocab.help_related),
            "attempt_related": sorted(vocab.attempt_related)}


def write_clip_log(path: str, vocab, X: np.ndarray, labels: np.ndarray) -> None:
    """Line-delimited clip file: a vocabulary header, then one clip a line."""
    with open(path, "w") as fh:
        fh.write(json.dumps(vocab_record(vocab), separators=(",", ":")) + "\n")
        for i, (steps, label) in enumerate(zip(X.tolist(), labels.tolist())):
            fh.write(json.dumps({"clip_id": f"c{i:06d}", "label": int(label), "steps": steps},
                                separators=(",", ":")) + "\n")


def write_bank(path: str, vocab, patterns: list[np.ndarray], ids: list[str],
               precisions: list[float]) -> None:
    """Pattern bank file in the package's bank format."""
    doc = {"format": "patternconv-bank", "version": 1, "vocabulary": vocab_record(vocab),
           "patterns": [{"pattern_id": pid, "cells": cells.astype(int).tolist(),
                         "precision_train": prec, "source_era": -1, "low_support": False}
                        for cells, pid, prec in zip(patterns, ids, precisions)]}
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def scoring_bank(vocab) -> tuple[list[np.ndarray], list[str], list[float]]:
    """A fixed trained-style bank: the three planted patterns plus four
    narrower legal patterns that add a few false positives."""
    planted = planted_patterns(vocab)
    rng = np.random.default_rng(20250)
    extras = []
    while len(extras) < 4:
        cells = random_pattern(vocab, rng, int(rng.integers(3, 5)))
        if not any(oracles.subsumes(p, cells) or oracles.subsumes(cells, p)
                   for p in planted + extras):
            extras.append(cells)
    ids = [f"planted-{i}" for i in range(3)] + [f"extra-{i}" for i in range(4)]
    precisions = [1.0, 1.0, 1.0, 0.62, 0.55, 0.48, 0.41]
    return planted + extras, ids, precisions


# ------------------------------------------------------------ pattern pool

def random_pattern(vocab, rng, n_cells: int, base: np.ndarray | None = None) -> np.ndarray:
    """A consistent pattern: each non-empty row sits on one side of the
    help/attempt divide and asks for at most one submission type. With
    `base`, cells are added to a copy of it."""
    cells = np.zeros((K, vocab.d), dtype=np.uint8) if base is None else base.copy()
    help_side = [vocab.help_index] + sorted(vocab.help_related)
    attempt_side = list(vocab.attempt_indices) + sorted(vocab.attempt_related)
    target = int(cells.sum()) + n_cells
    while cells.sum() < target:
        n = int(rng.integers(K))
        row = cells[n]
        if row.any():
            side = help_side if row[help_side].any() else attempt_side
        else:
            side = help_side if rng.random() < 0.4 else attempt_side
        j = side[int(rng.integers(len(side)))]
        if j in vocab.attempt_indices and row[list(vocab.attempt_indices)].any():
            continue
        row[j] = 1
    return cells


def shift_rows(cells: np.ndarray, s: int) -> np.ndarray | None:
    """`cells` moved down by `s` rows, or None when a required row falls off."""
    out = np.zeros_like(cells)
    for n in np.flatnonzero(cells.any(axis=1)):
        if not 0 <= n + s < K:
            return None
        out[n + s] = cells[n]
    return out


def unique_pool(vocab, n_unique: int, rng) -> tuple[list[np.ndarray], int]:
    """Distinct patterns with a paper-shaped structure: the planted patterns,
    general "core" patterns, and many specialisations of both, half of them
    shifted by a step. No general pattern subsumes another and every
    specialisation is subsumed by the pattern it was made from, so pruning
    keeps exactly the general ones. Returns the pool and their count.

    Pruning scans the pool in order until it meets a pattern's first
    dominator, so its cost depends on where the general patterns sit. To
    keep that cost nearly the same on every seed, each general pattern gets
    about the same number of specialisations, and the general patterns are
    spread evenly through the pool, in random order."""
    planted = planted_patterns(vocab)
    general = list(planted)
    n_cores = max(n_unique // 8, 4)
    while len(general) < len(planted) + n_cores:
        cells = random_pattern(vocab, rng, int(rng.integers(2, 4)))
        if not any(np.array_equal(cells, g) or oracles.subsumes(cells, g)
                   or oracles.subsumes(g, cells) for g in general):
            general.append(cells)
    seen = {g.tobytes() for g in general}
    special = []
    attempts = 0
    while len(general) + len(special) < n_unique:
        attempts += 1
        if attempts > 1000 * n_unique:
            raise RuntimeError("cannot specialise the general patterns further")
        # parents in turn; a parent keeps its turn until it yields one
        parent = general[len(special) % len(general)]
        base = shift_rows(parent, int(rng.choice([-1, 1]))) if rng.random() < 0.5 else parent
        if base is None:
            continue
        # two or more added cells: more than a core has, so never inside one
        cells = random_pattern(vocab, rng, int(rng.integers(2, 4)), base=base)
        if cells.tobytes() in seen or not oracles.subsumes(parent, cells) \
                or any(oracles.subsumes(cells, p) for p in planted):
            continue
        seen.add(cells.tobytes())
        special.append(cells)
    n = len(general) + len(special)
    slots = ((np.arange(len(general)) + 0.5) * n / len(general)).astype(int)
    pool: list = [None] * n
    for slot, g in zip(slots, rng.permutation(len(general))):
        pool[slot] = general[g]
    rest = iter(rng.permutation(len(special)))
    pool = [p if p is not None else special[next(rest)] for p in pool]
    return pool, len(general)


def write_snapshots(snap_dir: str, vocab, pool: list[np.ndarray], eras: int, M: int,
                    rng, threshold: float = 0.3) -> dict:
    """Era snapshot files whose filters are noisy copies of pool patterns.

    Every pool pattern appears at least once as a harvestable filter (near
    binary, precision above `threshold`); the other slots hold duplicates,
    low-precision filters, non-binary filters and filters breaking the
    submission invariant. Harvestable copies first appear in pool order, so
    curation sees the unique patterns in the order `unique_pool` chose.
    Returns the funnel the curation must report.
    """
    os.makedirs(snap_dir, exist_ok=True)
    n_raw = eras * M
    kind = rng.choice(4, size=n_raw, p=[0.5, 0.25, 0.15, 0.10])
    src = rng.integers(len(pool), size=n_raw)
    first = rng.choice(n_raw, size=len(pool), replace=False)
    kind[first] = 0
    src[first] = np.arange(len(pool))
    # relabel so the k-th pattern to appear among harvestable slots is pool[k]
    harvestable = src[kind == 0]
    _, first_seen = np.unique(harvestable, return_index=True)
    relabel = np.empty(len(pool), dtype=np.int64)
    relabel[harvestable[np.sort(first_seen)]] = np.arange(len(pool))
    src = relabel[src]
    cells = np.stack([pool[i] for i in src]).astype(np.float64)
    noise = rng.uniform(0.0, 0.04, cells.shape)
    W = np.where(cells == 1, 1.0 - noise, noise)
    prec = rng.uniform(threshold + 0.01, 1.0, n_raw)
    low = kind == 1
    prec[low] = np.where(rng.random(int(low.sum())) < 0.3, np.nan,
                         rng.uniform(0.0, threshold - 0.01, int(low.sum())))
    for m in np.flatnonzero(kind == 2):
        n, j = rng.integers(K), rng.integers(vocab.d)
        W[m, n, j] = rng.uniform(0.3, 0.7)
    subs = list(vocab.submission_indices)
    for m in np.flatnonzero(kind == 3):
        n = rng.integers(K)
        W[m, n, subs[:2]] = 1.0 - noise[m, n, subs[:2]]
    harvested = kind == 0
    for era in range(eras):
        sl = slice(era * M, (era + 1) * M)
        doc = {"format": "patternconv-filters", "version": 1, "M": M, "k": K,
               "d": vocab.d, "padding": PADDING, "W": W[sl].ravel().tolist(),
               "era": era,
               "per_filter_precision": [None if np.isnan(p) else float(p) for p in prec[sl]]}
        with open(os.path.join(snap_dir, f"era_{era:03d}.json"), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return {"raw": n_raw, "harvested": int(harvested.sum()),
            "unique": len({pool[i].tobytes() for i in src[harvested]})}

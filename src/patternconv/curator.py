"""Pattern curation: binarization, exact matching semantics, dedup,
subsumption pruning, and cumulative-kappa bank selection."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .corpus import DEFAULT_CLIP_LENGTH, Dataset, FeatureVocabulary, is_binary, step_rules
from .errors import (BOOL, INTEGER, LIST, OBJECT, STRING, DataError, check_version, field_error,
                     fields, json_object, list_of, nullable, within)
from .evalmetrics import Confusion, kappa

BANK_FORMAT_VERSION = 1
BINARIZE_TOLERANCE = 0.05  # a filter binarizes when every weight is this close to 0 or 1
LOW_SUPPORT_MATCHES = 3


@dataclass(frozen=True)
class Pattern:
    """A binarized k x d behavioral pattern with provenance metadata."""

    cells: np.ndarray  # (k, d) uint8, read-only
    pattern_id: str
    precision_train: float | None = None
    source_era: int = -1
    low_support: bool = False

    def __post_init__(self):
        self.cells.setflags(write=False)

    @property
    def positives(self) -> frozenset:
        return frozenset(zip(*np.nonzero(self.cells)))

    @property
    def n_positive(self) -> int:
        return int(self.cells.sum())

    def to_record(self) -> dict:
        return {
            "pattern_id": self.pattern_id,
            "cells": self.cells.astype(int).tolist(),
            "precision_train": self.precision_train,
            "source_era": self.source_era,
            "low_support": self.low_support,
        }


@dataclass(frozen=True, eq=False)
class Harvest(Sequence):
    """Harvested filters held as arrays, one row per filter: row i is the
    Pattern `e<era>f<filter>` with its cells, training precision and source
    era, built only when the row is indexed or iterated. Every array is
    read-only."""

    cells: np.ndarray         # (n, k, d) uint8
    era: np.ndarray           # (n,) int
    filter_index: np.ndarray  # (n,) int, the filter's row in its snapshot's W
    precision: np.ndarray     # (n,) float64

    def __post_init__(self):
        for column in (self.cells, self.era, self.filter_index, self.precision):
            column.setflags(write=False)

    @classmethod
    def concat(cls, parts) -> "Harvest":
        """The rows of one or more harvests, in order."""
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("cells", "era", "filter_index", "precision")))

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i) -> Pattern:
        era, m = int(self.era[i]), int(self.filter_index[i])
        return Pattern(cells=self.cells[i], pattern_id=f"e{era:03d}f{m:04d}",
                       precision_train=float(self.precision[i]), source_era=era)


@dataclass(frozen=True)
class PatternBank:
    patterns: tuple[Pattern, ...]
    vocabulary: FeatureVocabulary

    def __len__(self) -> int:
        return len(self.patterns)


_REASONS = ("non-binary cell", "all-zero pattern", "submission invariant",
            "help/attempt exclusion invariant")
_NON_BINARY, _ALL_ZERO, _SUBMISSION, _EXCLUSION = range(4)


def _violations(cells: np.ndarray, vocab: FeatureVocabulary):
    """Per pattern of binary cells (M, k, d): the invariant it breaks first
    (-1 when legal, else an index into _REASONS) and the step where it does."""
    n_sub, help_on, attempt_on = step_rules(cells, vocab)
    bad_sub = n_sub > 1
    bad_step = bad_sub | (help_on & attempt_on)
    step = bad_step.argmax(axis=1)
    rows = np.arange(len(cells))
    code = np.where(bad_sub[rows, step], _SUBMISSION, _EXCLUSION)
    code[~bad_step.any(axis=1)] = -1
    code[~cells.any(axis=(1, 2))] = _ALL_ZERO
    return code, step


def _reason(code: int, step: int) -> str | None:
    if code < 0:
        return None
    if code >= _SUBMISSION:
        return f"step {step}: {_REASONS[code]}"
    return _REASONS[code]


def pattern_violation(cells: np.ndarray, vocab: FeatureVocabulary) -> str | None:
    """Invariant check for a binary pattern matrix; None when legal."""
    if not ((cells == 0) | (cells == 1)).all():
        return _REASONS[_NON_BINARY]
    code, step = _violations(np.asarray(cells)[None], vocab)
    return _reason(code[0], step[0])


def binarize_filters(W: np.ndarray, vocab: FeatureVocabulary):
    """Round continuous filters (M, k, d) at 0.5 in one pass. Returns the
    cells (M, k, d) uint8 and, per filter, the first rejection (-1 when the
    filter binarizes, else an index into _REASONS) and its step."""
    W = np.asarray(W, dtype=np.float64)
    cells = (W >= 0.5).astype(np.uint8)
    code, step = _violations(cells, vocab)
    dist = np.minimum(np.abs(W), np.abs(W - 1.0))
    code[(dist > BINARIZE_TOLERANCE).any(axis=(1, 2))] = _NON_BINARY
    return cells, code, step


def binarize(W_filter: np.ndarray, vocab: FeatureVocabulary, pattern_id: str = "",
             source_era: int = -1) -> tuple[Pattern | None, str | None]:
    """Round a continuous filter at 0.5; returns (pattern, None) or (None, reason)."""
    cells, code, step = binarize_filters(np.asarray(W_filter)[None], vocab)
    if code[0] >= 0:
        return None, _reason(code[0], step[0])
    return Pattern(cells=cells[0], pattern_id=pattern_id, source_era=source_era), None


def discrete_match(pattern, clip, padding: int | None = None) -> tuple[bool, int | None]:
    """`match_matrix` of one pattern (or its cells) on one clip (or its steps).

    Zero padding lets patterns with empty edge rows act as shorter patterns at
    clip edges; a `padding` given must be `kernels.padding_for(k)`. Returns
    (matched, first window index in padded coordinates).
    """
    cells = getattr(pattern, "cells", pattern)
    kernels.check_padding(padding, len(cells), "discrete_match")
    steps = clip.steps if hasattr(clip, "steps") else np.asarray(clip)
    first = int(match_matrix([cells], steps[None])[0, 0])
    return first >= 0, (first if first >= 0 else None)


def match_matrix(patterns, steps) -> np.ndarray:
    """(n_patterns, n_clips) first-window matrix, -1 when no match, of
    patterns (Patterns or (k, d) cells) of one shape over clip steps
    (n_clips, L, d)."""
    X = np.asarray(steps)
    if not len(patterns):
        return np.full((0, len(X)), -1, dtype=np.int64)
    cells = np.stack([getattr(p, "cells", p) for p in patterns])
    return kernels.match_first_window(
        cells, kernels.clip_windows(X.astype(np.uint8, copy=False), cells.shape[1]))


def _stacked(patterns, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The cells (P, k, d) of one or more patterns of one shape, and the
    dataset's clip windows for k-step patterns."""
    cells = np.stack([p.cells for p in patterns])
    return cells, kernels.clip_windows(dataset.steps_array(), cells.shape[1])


def bank_predict_batch(bank: PatternBank, dataset: Dataset) -> np.ndarray:
    """(n_clips,) whether any of the bank's patterns matches each clip."""
    if not bank.patterns:
        return np.zeros(len(dataset), dtype=bool)
    return kernels.match_any(*_stacked(bank.patterns, dataset))


def dedup(patterns) -> list[Pattern]:
    """Keep the first occurrence of each distinct cell matrix, stable order.
    A Harvest is read as its cells array and only its unique rows become
    Patterns; other patterns (of one shape) are stacked and kept as given."""
    if not isinstance(patterns, Harvest):
        patterns = list(patterns)
    if not patterns:
        return []
    cells = (patterns.cells if isinstance(patterns, Harvest)
             else np.stack([p.cells for p in patterns]))
    # one byte string per pattern, its cells packed to bits, as a sortable key
    rows = np.ascontiguousarray(np.packbits(cells.reshape(len(cells), -1), axis=1))
    keys = rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]
    _, first = np.unique(keys, return_index=True)  # a stable sort: first occurrences
    return [patterns[i] for i in np.sort(first)]


def _dominance(cells: np.ndarray, clip_length: int) -> np.ndarray:
    """D[i, j] = pattern a = cells[i] subsumes pattern b = cells[j] (cells (n, k, d)).

    Each b is read as a clip of its k steps with k - 1 steps of zero padding,
    whose window c holds a exactly when a, shifted by s = c - (k - 1) steps,
    stays inside its own k steps and lies inside b: one pass of the window
    matcher tests containment at every shift. Position-aligned containment
    (s = 0) must be a strict subset of positives. A shift must also keep a's
    window in range for every window at which b's positive steps land on
    real clip steps, which the patterns match padded by padding_for(k).
    """
    n, k = cells.shape[:2]
    padding = kernels.padding_for(k)
    size = cells.sum(axis=(1, 2), dtype=np.int64)
    on = cells.any(axis=2)
    first, last = on.argmax(axis=1), k - 1 - on[:, ::-1].argmax(axis=1)
    C = clip_length - k + 1 + 2 * padding
    c_min = np.maximum(0, padding - first)[:, None]
    c_max = np.minimum(C - 1, padding + clip_length - 1 - last)[:, None]
    s = np.arange(1 - k, k)
    # ok[j, c]: b = cells[j] lets a shift of s = c - (k - 1) steps stand
    ok = (on.any(axis=1)[:, None] & (c_min <= c_max) & (s != 0)
          & (c_min + s >= 0) & (c_max + s <= C - 1))
    D = np.empty((n, n), dtype=bool)  # D[j, i]: b = cells[j] holds a = cells[i]
    for part, hit in kernels.match_blocks(cells, kernels.clip_windows(cells, k, k - 1)):
        hit = hit.reshape(-1, 2 * k - 1, hit.shape[1])[:, :, :n]
        D[part] = ((hit & ok[part, :, None]).any(axis=1)
                   | (hit[:, k - 1] & (size < size[part, None])))
    return D.T


def subsumes(a: Pattern, b: Pattern, clip_length: int = DEFAULT_CLIP_LENGTH) -> bool:
    """True when a is more general than b: every clip b matches, a matches too.

    Position-aligned containment requires a's positives to be a strict subset
    of b's. Shifted containment additionally requires the shift to keep a's
    match window in range for every window where b can match.
    """
    return bool(_dominance(np.stack([a.cells, b.cells]), clip_length)[0, 1])


def prune_subsumed(patterns, clip_length: int = DEFAULT_CLIP_LENGTH) -> list[Pattern]:
    """Drop every pattern some other pattern subsumes; mutual (shift-equal)
    pairs keep the earlier one."""
    patterns = list(patterns)
    if not patterns:
        return []
    cells = np.stack([p.cells for p in patterns])
    E = _dominance(cells, clip_length).T  # E[j, i]: pattern i subsumes pattern j
    np.fill_diagonal(E, False)
    # A mutual (shift-equal) pair keeps the earlier pattern: [j, i] with
    # j < i is cleared where [i, j] holds. In place, a band of rows at a
    # time, each reading only entries below the diagonal, which no band
    # writes, so that pruning holds one n x n array.
    for lo in range(0, len(patterns), 128):
        band = E[lo:lo + 128]
        band[:, lo + 128:] &= ~E[lo + 128:, lo:lo + 128].T
        square = band[:, lo:lo + 128]
        square &= ~np.tril(square, -1).T
    dominated = E.any(axis=1)
    return [p for p, out in zip(patterns, dominated) if not out]


def rank_by_precision(patterns, ranking_set: Dataset) -> list[Pattern]:
    """Refresh precisions on ranking_set and sort descending by precision,
    ties broken by pattern_id for determinism. The low_support flag is
    informational metadata and does not affect the order."""
    if not patterns:
        return []
    matched, tp = kernels.match_counts(*_stacked(patterns, ranking_set),
                                       ranking_set.labels()).tolist()
    updated = [
        replace(p, precision_train=(t / m if m else None), low_support=m < LOW_SUPPORT_MATCHES)
        for p, m, t in zip(patterns, matched, tp)
    ]
    return sorted(
        updated,
        key=lambda p: (-(p.precision_train if p.precision_train is not None else -1.0),
                       p.pattern_id),
    )


def cumulative_kappa_curve(patterns, ranking_set: Dataset, eval_set: Dataset):
    """Cumulative Cohen's kappa on eval_set over precision-ranked prefixes.

    Returns (sorted_patterns, [(n, kappa), ...]) with one point per prefix.
    """
    ranked = rank_by_precision(patterns, ranking_set)
    if not ranked:
        return ranked, []
    labels = eval_set.labels()
    P = len(ranked)
    # the n-pattern prefix flags a clip when the clip's first matching pattern
    # ranks below n; a clip none matches has rank P
    first = kernels.match_first_pattern(*_stacked(ranked, eval_set))
    tp = np.bincount(first[labels], minlength=P + 1)[:P].cumsum()
    fp = np.bincount(first[~labels], minlength=P + 1)[:P].cumsum()
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    curve = []
    for n, (t, f) in enumerate(zip(tp.tolist(), fp.tolist()), start=1):
        kap = kappa(Confusion(tp=t, fp=f, tn=n_neg - f, fn=n_pos - t))
        curve.append((n, kap if kap is not None else 0.0))
    return ranked, curve


def select_bank(curve, sorted_patterns, vocabulary: FeatureVocabulary,
                n_override: int | None = None) -> PatternBank:
    """Prefix maximizing eval kappa (smallest n on ties); n_override wins."""
    if n_override is not None:
        n = n_override
    elif not curve:
        n = 0
    else:
        best = max(k for _, k in curve)
        n = next(i for i, k in curve if k == best)
    return PatternBank(patterns=tuple(sorted_patterns[:n]), vocabulary=vocabulary)


def bank_to_json(bank: PatternBank, extra: dict | None = None) -> str:
    doc = {
        "format": "patternconv-bank",
        "version": BANK_FORMAT_VERSION,
        "padding": (kernels.padding_for(bank.patterns[0].cells.shape[0]) if bank.patterns
                    else kernels.PADDING),
        "vocabulary": bank.vocabulary.to_record(),
        "patterns": [p.to_record() for p in bank.patterns],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, separators=(",", ":"))


_BANK = {"vocabulary": OBJECT, "patterns": list_of(OBJECT, "a list of JSON objects")}
_PATTERN = {"pattern_id": STRING, "cells": LIST,
            "precision_train": (*nullable(within("[0, 1]")), None),
            "source_era": (*INTEGER, -1), "low_support": (*BOOL, False)}


def bank_from_json(text: str | dict) -> PatternBank:
    """The bank a bank file's text, or its parsed document, holds."""
    doc = json_object(text, "pattern bank file")
    if doc.get("format") != "patternconv-bank":
        raise DataError("not a pattern bank file")
    check_version(doc, BANK_FORMAT_VERSION, "pattern bank file")
    vocab_record, records = fields(doc, _BANK, "pattern bank file").values()
    vocabulary = FeatureVocabulary.from_record(vocab_record, "pattern bank file vocabulary")
    patterns = []
    for i, rec in enumerate(records):
        what = f"pattern bank pattern {i}"
        pattern_id, cells, precision, era, low_support = fields(rec, _PATTERN, what).values()
        try:
            c = np.array(cells)
        except ValueError:  # ragged rows
            c = None
        shape = patterns[0].cells.shape if patterns else (len(cells), vocabulary.d)
        if c is None or c.shape != shape or not is_binary(c):
            raise field_error(what, "cells", f"a 0/1 array of one (steps, {vocabulary.d}) "
                              "shape for every pattern", cells)
        patterns.append(Pattern(cells=c.astype(np.uint8), pattern_id=pattern_id,
                                precision_train=precision, source_era=era,
                                low_support=low_support))
    k = patterns[0].cells.shape[0] if patterns else None
    fields(doc, {"padding": kernels.padding_rule(k)}, "pattern bank file")
    return PatternBank(patterns=tuple(patterns), vocabulary=vocabulary)

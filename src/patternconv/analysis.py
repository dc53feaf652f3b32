"""Pattern-space analytics: edit distance, expert-pattern expansion and
comparison, positive-feature statistics, and explanation rendering."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import FeatureVocabulary
from .curator import Pattern, PatternBank, match_matrix
from .errors import STRING, DataError, atomic_write, fields, json_object, list_of, read_text


@dataclass(frozen=True)
class ExpertPattern:
    """A hand-written pattern: 2-4 steps, each a set of required feature indices."""

    name: str
    steps: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (2 <= len(self.steps) <= 4):
            raise DataError(f"expert pattern '{self.name}' must have 2-4 steps")


def expert_from_names(name: str, step_names, vocab: FeatureVocabulary) -> ExpertPattern:
    index = {n: i for i, n in enumerate(vocab.feature_names)}
    steps = []
    for step in step_names:
        try:
            steps.append(frozenset(index[n] for n in step))
        except KeyError as e:
            raise DataError(f"expert pattern '{name}': unknown feature {e}") from None
    return ExpertPattern(name=name, steps=tuple(steps))


_STEP = list_of(STRING, "a list of feature names")
_EXPERT = {"name": STRING, "steps": list_of(_STEP, "a list of lists of feature names")}


def load_expert_patterns(path, vocab: FeatureVocabulary) -> list[ExpertPattern]:
    """Line-delimited records with `name` and `steps` (arrays of feature names)."""
    out = []
    for lineno, line in enumerate(read_text(path).splitlines()):
        if not line.strip():
            continue
        what = f"{path}:{lineno + 1}: expert pattern"
        name, steps = fields(json_object(line, what), _EXPERT, what).values()
        try:
            out.append(expert_from_names(name, steps, vocab))
        except DataError as e:
            raise DataError(f"{path}:{lineno + 1}: {e}") from None
    return out


def write_expert_patterns(patterns, vocab: FeatureVocabulary, path) -> None:
    with atomic_write(path) as fh:
        for p in patterns:
            rec = {"name": p.name,
                   "steps": [sorted(vocab.feature_names[i] for i in s) for s in p.steps]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def edit_distance(p1: Pattern, p2: Pattern) -> int:
    """Substitution-only distance: number of differing cells."""
    if p1.cells.shape != p2.cells.shape:
        raise DataError("patterns must share the same shape")
    return int((p1.cells != p2.cells).sum())


def expand_expert(p: ExpertPattern, vocab: FeatureVocabulary, k: int = 3) -> list[Pattern]:
    """Expand to all k-step variants: identity for length k, blank-padded at
    either end for length k-1, both k-step slices for length k+1."""
    d = vocab.d
    def mk(step_sets, suffix):
        cells = np.zeros((k, d), dtype=np.uint8)
        for n, s in enumerate(step_sets):
            for j in s:
                cells[n, j] = 1
        return Pattern(cells=cells, pattern_id=f"{p.name}{suffix}")

    blank = frozenset()
    L = len(p.steps)
    if L == k:
        return [mk(p.steps, "")]
    if L == k - 1:
        return [mk((blank,) + p.steps, "/pad-front"),
                mk(p.steps + (blank,), "/pad-back")]
    if L == k + 1:
        return [mk(p.steps[:k], "/head"), mk(p.steps[1:], "/tail")]
    raise DataError(f"expert pattern '{p.name}' has unsupported length {L} for k={k}")


def _pop_stats(values) -> dict:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "sd": None, "min": None, "max": None}
    return {"mean": float(arr.mean()), "sd": float(arr.std()),
            "min": float(arr.min()), "max": float(arr.max())}


def pattern_stats(bank: PatternBank) -> dict:
    """Positive-feature counts and the pairwise edit-distance distribution.

    Standard deviations are population (not sample) deviations.
    """
    counts = [p.n_positive for p in bank.patterns]
    pairwise = [edit_distance(a, b)
                for i, a in enumerate(bank.patterns)
                for b in bank.patterns[i + 1:]]
    smallest = []
    if pairwise:
        freq = Counter(pairwise)
        smallest = [{"distance": dist, "count": freq[dist]} for dist in sorted(freq)[:2]]
    return {
        "n_patterns": len(bank.patterns),
        "positive_features": {**_pop_stats(counts), "per_pattern": counts},
        "pairwise_edit_distance": {**_pop_stats(pairwise), "smallest": smallest},
    }


def compare_banks(learned: PatternBank, experts, k: int = 3) -> dict:
    """Edit distances between learned patterns and expanded expert patterns."""
    expanded = [q for p in experts for q in expand_expert(p, learned.vocabulary, k)]
    if not expanded or not learned.patterns:
        return {"expanded_experts": [q.pattern_id for q in expanded],
                "all_pairs": _pop_stats([]), "per_learned_nearest": [],
                "per_expert_nearest": [], "closest_pairs": []}
    D = np.array([[edit_distance(a, q) for q in expanded] for a in learned.patterns])
    per_learned = [
        {"pattern_id": a.pattern_id,
         "nearest_expert": expanded[int(D[i].argmin())].pattern_id,
         "distance": int(D[i].min())}
        for i, a in enumerate(learned.patterns)
    ]
    per_expert = [
        {"expert_id": q.pattern_id,
         "nearest_pattern": learned.patterns[int(D[:, j].argmin())].pattern_id,
         "distance": int(D[:, j].min())}
        for j, q in enumerate(expanded)
    ]
    pairs = sorted(
        ((int(D[i, j]), learned.patterns[i].pattern_id, expanded[j].pattern_id)
         for i in range(D.shape[0]) for j in range(D.shape[1])),
    )[:10]
    return {
        "expanded_experts": [q.pattern_id for q in expanded],
        "all_pairs": _pop_stats(D.ravel()),
        "per_learned_nearest": per_learned,
        "per_expert_nearest": per_expert,
        "closest_pairs": [{"distance": d, "pattern_id": a, "expert_id": b}
                          for d, a, b in pairs],
    }


@dataclass(frozen=True)
class Explanation:
    clip_id: str
    matched_pattern_ids: tuple[str, ...]
    blocks: tuple[dict, ...]
    matrix_text: str
    bullet_text: str


def _matrix_block(pattern: Pattern, window: int, start: int, vocab: FeatureVocabulary) -> str:
    """Plain-text grid: features as rows, the matched clip window, whose first
    row is clip step `start`, as columns, required cells marked '#' (all
    verifiably present in the clip)."""
    k = pattern.cells.shape[0]
    name_w = max(len(n) for n in vocab.feature_names)
    lines = [f"pattern {pattern.pattern_id} at window {window}"]
    header = " " * (name_w + 2) + " ".join(f"s{start + n:+d}" for n in range(k))
    lines.append(header)
    for j, fname in enumerate(vocab.feature_names):
        row = []
        for n in range(k):
            row.append(" # " if pattern.cells[n, j] else " . ")
        lines.append(f"{fname:<{name_w}}  " + " ".join(c.strip().ljust(3) for c in row))
    return "\n".join(lines)


def explain(clip, bank: PatternBank, vocabulary: FeatureVocabulary,
            padding: int | None = None) -> Explanation:
    """Per-match explanation blocks ordered by pattern precision, or a global
    no-match statement. Every cited feature is checked against the clip. A
    `padding` given must be `kernels.padding_for(k)` of the bank's patterns."""
    if vocabulary.feature_names != bank.vocabulary.feature_names:
        raise DataError("bank vocabulary does not match the clip vocabulary")
    if bank.patterns:
        kernels.check_padding(padding, bank.patterns[0].cells.shape[0], "explain")
    steps = clip.steps
    first = match_matrix(bank.patterns, steps[None])[:, 0]
    matched = [(p, int(w)) for p, w in zip(bank.patterns, first) if w >= 0]
    matched.sort(key=lambda pw: (-(pw[0].precision_train or 0.0), pw[0].pattern_id))

    blocks = []
    matrices = []
    bullets = []
    for pattern, window in matched:
        start = window - kernels.padding_for(len(pattern.cells))  # clip step of row 0
        requirements = []
        for n, j in sorted(pattern.positives):
            step_idx = start + n
            present = 0 <= step_idx < steps.shape[0] and steps[step_idx, j] == 1
            if not present:  # pragma: no cover - match semantics guarantee
                raise DataError("explanation cites a feature absent from the clip")
            requirements.append({"step_offset": n, "step_index": step_idx,
                                 "feature": vocabulary.feature_names[j]})
        blocks.append({"pattern_id": pattern.pattern_id, "window": window,
                       "precision_train": pattern.precision_train,
                       "requirements": requirements})
        matrices.append(_matrix_block(pattern, window, start, vocabulary))
        by_step: dict[int, list[str]] = {}
        for r in requirements:
            by_step.setdefault(r["step_index"], []).append(r["feature"])
        bullets.append(f"- flagged by pattern {pattern.pattern_id} "
                       f"(training precision {pattern.precision_train if pattern.precision_train is not None else 'n/a'}):")
        for step_idx in sorted(by_step):
            bullets.append(f"  - step {step_idx}: " + ", ".join(by_step[step_idx]))

    if not matched:
        matrix_text = bullet_text = f"clip {clip.clip_id}: no pattern matched; predicted not gaming"
    else:
        matrix_text = f"clip {clip.clip_id}: flagged as gaming\n" + "\n\n".join(matrices)
        bullet_text = f"clip {clip.clip_id}: flagged as gaming\n" + "\n".join(bullets)
    return Explanation(
        clip_id=clip.clip_id,
        matched_pattern_ids=tuple(p.pattern_id for p, _ in matched),
        blocks=tuple(blocks),
        matrix_text=matrix_text,
        bullet_text=bullet_text,
    )

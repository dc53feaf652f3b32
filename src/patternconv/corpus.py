"""Binary sequential data model: vocabularies, clips, datasets, splits, synthesis."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (INTEGER, LIST, STRING, DataError, atomic_write, check_version, fields,
                     list_of)

CLIP_FORMAT_NAME = "patternconv-clips"
CLIP_FORMAT_VERSION = 1

DEFAULT_CLIP_LENGTH = 5
_DISTRACTOR_TRIES = 50  # placements a near-miss distractor gets before synth gives up

_INDICES = list_of(INTEGER, "a list of integers")
_VOCABULARY = {"feature_names": list_of(STRING, "a list of strings"),
               "submission_indices": _INDICES, "help_related": _INDICES,
               "attempt_related": _INDICES}


@dataclass(frozen=True)
class FeatureVocabulary:
    """Names and index partitions of the binary feature space.

    The feature space is partitioned into three submission types (help,
    correct attempt, incorrect attempt), a help-related set and an
    attempt-related set.
    """

    feature_names: tuple[str, ...]
    submission_indices: tuple[int, ...]
    help_related: frozenset[int]
    attempt_related: frozenset[int]

    def __post_init__(self):
        d = len(self.feature_names)
        if len(set(self.feature_names)) < d:  # a feature name must name one column
            repeated = next(name for name, n in Counter(self.feature_names).items() if n > 1)
            raise DataError(f"vocabulary repeats feature name '{repeated}'")
        if len(self.submission_indices) != 3:
            raise DataError("vocabulary must have exactly 3 submission types")
        sub = set(self.submission_indices)
        if sub & self.help_related or sub & self.attempt_related:
            raise DataError("submission indices overlap a feature set")
        if self.help_related & self.attempt_related:
            raise DataError("help-related and attempt-related sets overlap")
        if sub | self.help_related | self.attempt_related != set(range(d)):
            raise DataError("index partition does not cover the feature space")
        if d < 4:
            raise DataError("vocabulary needs at least one non-submission feature")

    @property
    def d(self) -> int:
        return len(self.feature_names)

    @property
    def help_index(self) -> int:
        """Index of the help submission type (first submission index)."""
        return self.submission_indices[0]

    @property
    def attempt_indices(self) -> tuple[int, ...]:
        return self.submission_indices[1:]

    @cached_property
    def column_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The submission columns in their given order, then the help-related
        and attempt-related columns ascending, as index arrays built once per
        vocabulary."""
        return tuple(np.array(cols, dtype=np.intp) for cols in
                     (self.submission_indices, sorted(self.help_related),
                      sorted(self.attempt_related)))

    @cached_property
    def column_group(self) -> np.ndarray:
        """(d,) the group of each feature column: 0 submission, 1 help-related,
        2 attempt-related (the groups partition the columns)."""
        group = np.empty(self.d, dtype=np.intp)
        for g, cols in enumerate(self.column_groups):
            group[cols] = g
        return group

    @classmethod
    def default(cls) -> "FeatureVocabulary":
        """3 submission types + 5 help-related + 5 attempt-related, d = 13."""
        names = (
            "help",
            "correct",
            "incorrect",
            "quick_help_request",
            "bottom_out_search",
            "repeated_help",
            "help_after_error",
            "help_same_step",
            "similar_answer",
            "answer_reuse",
            "quick_attempt",
            "repeated_error",
            "guess_like_entry",
        )
        return cls(
            feature_names=names,
            submission_indices=(0, 1, 2),
            help_related=frozenset(range(3, 8)),
            attempt_related=frozenset(range(8, 13)),
        )

    def to_record(self) -> dict:
        return {
            "format": CLIP_FORMAT_NAME,
            "version": CLIP_FORMAT_VERSION,
            "feature_names": list(self.feature_names),
            "submission_indices": list(self.submission_indices),
            "help_related": sorted(self.help_related),
            "attempt_related": sorted(self.attempt_related),
        }

    @classmethod
    def from_record(cls, rec: dict, what: str) -> "FeatureVocabulary":
        """The vocabulary a clip file header or a bank records, named `what`."""
        names, sub, help_related, attempt_related = fields(rec, _VOCABULARY, what).values()
        try:
            return cls(feature_names=tuple(names), submission_indices=tuple(sub),
                       help_related=frozenset(help_related),
                       attempt_related=frozenset(attempt_related))
        except DataError as e:
            raise DataError(f"{what}: {e}") from None


def step_rules(rows: np.ndarray, vocab: FeatureVocabulary):
    """Per-row rule quantities of binary step or pattern rows (..., d): the
    number of submission types set, whether any help-related feature is set,
    and whether any attempt-related feature is set."""
    sub, help_related, attempt_related = vocab.column_groups
    n_sub = rows[..., sub].sum(axis=-1, dtype=np.uint8)
    help_on = rows[..., help_related].any(axis=-1)
    attempt_on = rows[..., attempt_related].any(axis=-1)
    return n_sub, help_on, attempt_on


def _step_violation(rows: np.ndarray, vocab: FeatureVocabulary) -> tuple[int, str] | None:
    """(row, reason) of the first of the binary step rows (n, d) that breaks
    a step rule, or None when all are legal."""
    n_sub, help_on, attempt_on = step_rules(rows, vocab)
    is_help = rows[:, vocab.help_index] == 1
    bad = (n_sub != 1) | (help_on & attempt_on) | (help_on & ~is_help) | (attempt_on & is_help)
    if not bad.any():
        return None
    n = int(bad.argmax())
    if n_sub[n] != 1:
        return n, "multiple submission types" if n_sub[n] > 1 else "no submission type"
    if help_on[n] and attempt_on[n]:
        return n, "help- and attempt-related features both active"
    if help_on[n]:
        return n, "help-related feature without help submission"
    return n, "attempt-related feature on a help step"


def check_steps(steps: np.ndarray, vocab: FeatureVocabulary) -> str | None:
    """Return a violation message for a steps matrix, or None when legal."""
    if steps.ndim != 2 or steps.shape[1] != vocab.d:
        return f"feature count {steps.shape[-1] if steps.ndim == 2 else '?'} does not match vocabulary d={vocab.d}"
    if not ((steps == 0) | (steps == 1)).all():
        return "non-binary feature value"
    bad = _step_violation(steps, vocab)
    return None if bad is None else f"step {bad[0]}: {bad[1]}"


@dataclass(frozen=True)
class Clip:
    """A labeled sequence of binary action-step vectors."""

    clip_id: str
    steps: np.ndarray  # (L, d) uint8, read-only
    label: bool

    def __post_init__(self):
        self.steps.setflags(write=False)

    @property
    def length(self) -> int:
        return self.steps.shape[0]


class Dataset:
    """Clips of one length as read-only arrays, steps (N, L, d) uint8 and labels (N,) bool."""

    def __init__(self, vocabulary: FeatureVocabulary, clips=None, *, steps=None,
                 labels=None, clip_ids=()):
        if clips is not None:
            steps = np.stack([c.steps for c in clips]) if clips else np.zeros((0, 0, vocabulary.d))
            labels, clip_ids = [c.label for c in clips], [c.clip_id for c in clips]
        self.vocabulary = vocabulary
        self._steps = np.asarray(steps).astype(np.uint8, copy=False)
        self._labels = np.asarray(labels, dtype=bool)
        self._steps.setflags(write=False)
        self._labels.setflags(write=False)
        self.clip_ids = tuple(clip_ids)

    @cached_property
    def clips(self) -> tuple[Clip, ...]:
        return tuple(map(Clip, self.clip_ids, self._steps, self._labels.tolist()))

    @property
    def positive_rate(self) -> float:
        return np.count_nonzero(self._labels) / len(self) if len(self) else 0.0

    def labels(self) -> np.ndarray:
        return self._labels

    def steps_array(self) -> np.ndarray:
        """All clips' steps as (n_clips, L, d) uint8."""
        return self._steps

    def __len__(self) -> int:
        return len(self._steps)


def is_binary(values: np.ndarray) -> bool:
    """Every value is 0 or 1. Tested before narrowing to uint8, which would
    wrap 256 to 0 and truncate 1.7 to 1."""
    kind = values.dtype.kind
    if kind == "b":
        return True
    if kind in "iu":
        return not np.count_nonzero(values >> 1)
    if kind == "f":
        return bool(((values == 0) | (values == 1)).all())
    return False


# A clip record's fields; a label equal to 0 or 1 (true, false, 0.0, 1.0) loads.
_CLIP_FIELDS = {"clip_id": STRING, "label": (lambda value: value in (0, 1), "0 or 1"),
                "steps": LIST}


def _parse_clip_record(rec, vocab: FeatureVocabulary) -> tuple[str, np.ndarray, bool]:
    """A clip record's id, (L, d) uint8 steps and label. The step rules are
    checked later, over all clips of the file at once."""
    if not isinstance(rec, dict):
        raise DataError("malformed clip record: not a JSON object")
    clip_id, label, steps = fields(rec, _CLIP_FIELDS, "clip record").values()
    try:
        steps = np.array(steps)
    except (ValueError, TypeError):  # rows of uneven width
        steps = None
    if steps is None or steps.ndim != 2:
        raise DataError(f"clip '{clip_id}': steps are not a rectangular (steps x features) array")
    if steps.shape[1] != vocab.d:
        raise DataError(f"clip '{clip_id}': feature count {steps.shape[1]} does not match "
                        f"vocabulary d={vocab.d}")
    if not is_binary(steps):
        raise DataError(f"clip '{clip_id}': non-binary feature value")
    return clip_id, steps.astype(np.uint8), bool(label)


_CHECK_ROWS = 1 << 13  # rows per block of the clip-set rule check, to bound its temporaries


def _clip_violation(X: np.ndarray, vocab: FeatureVocabulary) -> tuple[int, int, str] | None:
    """(clip, step, reason) of the first step of the binary clips X (N, L, d)
    that breaks a step rule, or None when all are legal."""
    rows = X.reshape(-1, vocab.d)
    for start in range(0, len(rows), _CHECK_ROWS):
        bad = _step_violation(rows[start:start + _CHECK_ROWS], vocab)
        if bad is not None:
            return (*divmod(start + bad[0], X.shape[1]), bad[1])
    return None


# A clip line as write_dataset writes it: an id without escapes, a 0/1 label
# and the steps as lists of 0/1 digits, all without spaces. The steps text
# must also fit the (L, d) template, which _ClipReader checks per block.
_CANONICAL_CLIP = re.compile(r'\{"clip_id":"([^"\\\x00-\x1f]*)","label":([01]),'
                             r'"steps":(\[[\[\],01]*\])\}')
_BLOCK_LINES = 1 << 9  # canonical lines decoded together; larger blocks held more memory, saved no time


class _ClipReader:
    """The clips of one file, in file order. Canonical lines are queued and
    decoded a block at a time; every other line, and any queued line that
    does not fit the template, goes through json.loads. Queued lines are
    decoded before the next JSON line is read, so the first faulty line
    raises the same DataError either way."""

    def __init__(self, path, n_lines: int):
        self.path, self.n_lines = path, n_lines
        self.vocab = None
        self.X = None  # (lines in the file, L, d): the clips' steps fill its first rows
        self.clip_ids, self.labels = [], []
        self.queued = []  # (line number, match) of canonical lines not yet decoded

    def _allocate(self, L: int) -> None:
        d = self.vocab.d
        self.X = np.empty((self.n_lines, L, d), dtype=np.uint8)
        row = "[" + ",".join("0" * d) + "]"
        self.template = np.frombuffer(("[" + ",".join([row] * L) + "]").encode(), np.uint8)
        self.digit = self.template == ord("0")

    def add(self, lineno: int, line: str) -> None:
        m = _CANONICAL_CLIP.fullmatch(line)
        if m is not None and self.vocab is not None:
            size = m.end(3) - m.start(3)
            if self.X is None:
                L, rest = divmod(size - 1, 2 * self.vocab.d + 2)
                if L > 0 and not rest:
                    self._allocate(L)
            if self.X is not None and size == self.template.size:
                self.queued.append((lineno, m))
                if len(self.queued) == _BLOCK_LINES:
                    self.decode()
                return
        self.decode()
        self._add_json(lineno, line)

    def decode(self) -> None:
        """Decode the queued lines with one frombuffer, up to the first that
        does not fit the template; the rest go through json.loads."""
        queued, self.queued = self.queued, []
        if not queued:
            return
        text = "".join(m[3] for _, m in queued).encode("ascii")
        rows = np.frombuffer(text, np.uint8).reshape(len(queued), -1)
        # a line fits when it differs from the template only by 1s for 0s:
        # "1" ^ "0" is 1, and any other byte differs by more
        fits = ((rows ^ self.template) <= self.digit).all(axis=1)
        n = len(queued) if fits.all() else int(fits.argmin())
        start = len(self.clip_ids)
        self.X[start:start + n] = (rows[:n, self.digit] - ord("0")).reshape(n, *self.X.shape[1:])
        self.clip_ids.extend(m[1] for _, m in queued[:n])
        self.labels.extend(m[2] == "1" for _, m in queued[:n])
        for lineno, m in queued[n:]:
            self._add_json(lineno, m.string)

    def _add_json(self, lineno: int, line: str) -> None:
        path = self.path
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
            raise DataError(f"{path}:{lineno + 1}: malformed record: {e}") from None
        if isinstance(rec, dict) and rec.get("format") == CLIP_FORMAT_NAME:
            header = f"{path}:{lineno + 1}: clip file header"
            check_version(rec, CLIP_FORMAT_VERSION, header)
            file_vocab = FeatureVocabulary.from_record(rec, header)
            if self.vocab is not None and file_vocab != self.vocab:
                raise DataError(f"{path}:{lineno + 1}: vocabulary header differs "
                                "from an earlier one")
            self.vocab = file_vocab
            return
        if self.vocab is None:
            raise DataError(f"{path}: clip record before vocabulary header")
        try:
            clip_id, steps, label = _parse_clip_record(rec, self.vocab)
        except DataError as e:
            raise DataError(f"{path}:{lineno + 1}: {e}") from None
        if self.X is None:
            self._allocate(len(steps))
        elif len(steps) != self.X.shape[1]:
            raise DataError(f"{path}:{lineno + 1}: clip '{clip_id}': {len(steps)} steps, "
                            f"where earlier clips have {self.X.shape[1]}")
        self.X[len(self.clip_ids)] = steps
        self.clip_ids.append(clip_id)
        self.labels.append(label)


def load_dataset(path) -> Dataset:
    """Load a line-delimited clip file, rejecting the whole file on any
    violation. Every clip must have the same number of steps and an id no
    other clip of the file has. Lines in write_dataset's canonical form are
    decoded in blocks, any other line is parsed as JSON; both accept the same
    clips and raise the same errors."""
    with open(path, encoding="utf-8") as fh:
        try:  # the first pass decodes the whole file
            n_lines = sum(1 for _ in fh)
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text: {e}") from None
        fh.seek(0)
        reader = _ClipReader(path, n_lines)
        for lineno, line in enumerate(fh):
            line = line.strip()
            if line:
                reader.add(lineno, line)
        reader.decode()
    vocab, X, clip_ids = reader.vocab, reader.X, reader.clip_ids
    if vocab is None:
        raise DataError(f"{path}: no vocabulary header")
    if not clip_ids:
        return Dataset(vocabulary=vocab, clips=())
    if len(set(clip_ids)) < len(clip_ids):
        repeated = next(clip_id for clip_id, n in Counter(clip_ids).items() if n > 1)
        raise DataError(f"{path}: clip id '{repeated}' appears more than once")
    bad = _clip_violation(X[:len(clip_ids)], vocab)
    if bad is not None:
        raise DataError(f"{path}: clip '{clip_ids[bad[0]]}': step {bad[1]}: {bad[2]}")
    return Dataset(vocabulary=vocab, steps=X[:len(clip_ids)], labels=reader.labels,
                   clip_ids=clip_ids)


def write_dataset(dataset: Dataset, path, meta: dict | None = None) -> None:
    """Write the canonical line-delimited form (round-trips byte-identically
    when no meta keys are added to the header)."""
    header = dataset.vocabulary.to_record()
    if meta:
        header.update(meta)
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        # row by row: a whole-array tolist() would hold every step as Python ints
        for clip_id, label, steps in zip(dataset.clip_ids, dataset.labels(), dataset.steps_array()):
            rec = {"clip_id": clip_id, "label": int(label), "steps": steps.tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def stratified_split(
    dataset: Dataset,
    test_fraction: float,
    val_fraction_of_remainder: float,
    seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic stratified (train, val, test) split."""
    if not (0 < test_fraction < 1) or not (0 < val_fraction_of_remainder < 1):
        raise DataError("split fractions must lie in (0, 1)")
    labels = dataset.labels()
    pos, neg = np.flatnonzero(labels), np.flatnonzero(~labels)
    if not pos.size or not neg.size:
        raise DataError("stratified split needs at least one clip of each class")

    rng = np.random.default_rng(seed)

    def carve(group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shuffled = group[rng.permutation(len(group))]
        n_test = round(test_fraction * len(group))
        test = shuffled[:n_test]
        rest = shuffled[n_test:]
        n_val = round(val_fraction_of_remainder * len(rest))
        return rest[n_val:], rest[:n_val], test

    parts = [np.concatenate(p) for p in zip(carve(pos), carve(neg))]
    if not all(p.size for p in parts):
        raise DataError("split fractions leave an empty split")
    return tuple(Dataset(vocabulary=dataset.vocabulary, steps=dataset.steps_array()[p],
                         labels=labels[p], clip_ids=[dataset.clip_ids[i] for i in p])
                 for p in parts)


def _random_legal_step(vocab: FeatureVocabulary, rng: np.random.Generator,
                       p_help: float, p_feature: float) -> np.ndarray:
    _, help_related, attempt_related = vocab.column_groups
    row = np.zeros(vocab.d, dtype=np.uint8)
    if rng.random() < p_help:
        row[vocab.help_index] = 1
        active = help_related
    else:
        # indexing by integers(n) draws what choice() of n items draws
        row[vocab.attempt_indices[rng.integers(len(vocab.attempt_indices))]] = 1
        active = attempt_related
    # one draw per feature, in ascending column order
    row[active[rng.random(len(active)) < p_feature]] = 1
    return row


def _stamp(steps: np.ndarray, cells: np.ndarray, window: int, vocab: FeatureVocabulary,
           rng: np.random.Generator) -> None:
    """Overlay a pattern's required cells at `window`, re-enforcing step invariants."""
    sub, h, a = vocab.column_groups
    group = vocab.column_group
    for n in range(cells.shape[0]):
        req = np.flatnonzero(cells[n])
        if req.size == 0:
            continue
        row = steps[window + n]
        req_group = group[req]
        req_sub = req[req_group == 0]
        if req_sub.size:
            row[sub] = 0
            row[req_sub[0]] = 1
        elif (req_group == 1).any() and row[vocab.help_index] == 0:
            row[sub] = 0
            row[vocab.help_index] = 1
        elif (req_group == 2).any() and row[vocab.help_index] == 1:
            row[sub] = 0
            row[vocab.attempt_indices[rng.integers(len(vocab.attempt_indices))]] = 1
        row[req] = 1
        # drop context features now on the wrong side of the help/attempt divide
        if row[vocab.help_index] == 1:
            row[a] = 0
        else:
            row[h] = 0


def synth_generate(
    vocabulary: FeatureVocabulary,
    planted,
    n_clips: int,
    label_noise: float,
    feature_noise: float,
    seed: int,
    clip_length: int = DEFAULT_CLIP_LENGTH,
    p_plant: float = 0.06,
    p_help: float = 0.3,
    p_feature: float = 0.15,
    p_distract: float = 0.0,
) -> Dataset:
    """Generate a planted-pattern dataset with recoverable ground truth.

    `planted` is a list of legal curator.Pattern of one shape. Unstamped clips are
    rejection-sampled until they match no planted pattern, so before noise the
    label is exactly planted-match status.

    `p_distract` is the fraction of negative clips that receive a near-miss
    distractor: a planted pattern with one required cell removed, stamped at a
    random window (re-checked to still match no full pattern). Distractors
    keep any strictly-more-general variant of a planted pattern from being a
    usable classifier, so recovery of a pattern requires recovering it exactly.
    """
    if not (0 <= label_noise < 0.5) or not (0 <= feature_noise < 0.5):
        raise DataError("noise fractions must lie in [0, 0.5)")
    if len({pat.cells.shape for pat in planted}) > 1:
        raise DataError("planted patterns must share one (steps, features) shape")
    cells = np.stack([pat.cells for pat in planted]) if planted else None
    if planted and cells.shape[1] > clip_length:
        raise DataError(f"planted pattern '{planted[0].pattern_id}' is wider than the "
                        "clip length")

    rng = np.random.default_rng(seed)
    X = np.empty((n_clips, clip_length, vocabulary.d), dtype=np.uint8)
    labels = np.empty(n_clips, dtype=bool)
    for i in range(n_clips):
        stamped = bool(planted) and rng.random() < p_plant
        steps = X[i]
        for _ in range(200):
            for n in range(clip_length):
                steps[n] = _random_legal_step(vocabulary, rng, p_help, p_feature)
            if stamped:
                pat = cells[rng.integers(len(cells))]
                window = int(rng.integers(clip_length - pat.shape[0] + 1))
                _stamp(steps, pat, window, vocabulary, rng)
                break
            if not planted or not _matches_any(cells, steps):
                break
        else:
            raise DataError("could not generate a non-matching background clip")

        if not stamped and planted and rng.random() < p_distract:
            _stamp_distractor(steps, cells, vocabulary, rng)

        label = stamped
        if label_noise and rng.random() < label_noise:
            label = not label
        if feature_noise:
            _apply_feature_noise(steps, vocabulary, feature_noise, rng)
        labels[i] = label
    clip_ids = [f"synth-{i:06d}" for i in range(n_clips)]
    bad = _clip_violation(X, vocabulary)
    if bad is not None:  # pragma: no cover - generator guarantee
        raise DataError(f"generated clip '{clip_ids[bad[0]]}' violates invariants: "
                        f"step {bad[1]}: {bad[2]}")
    return Dataset(vocabulary=vocabulary, steps=X, labels=labels, clip_ids=clip_ids)


def _matches_any(cells: np.ndarray, steps: np.ndarray) -> bool:
    """Whether any of the patterns (P, k, d) matches the clip steps (L, d)."""
    windows = kernels.clip_windows(steps[None], cells.shape[1])
    return bool(kernels.match_any(cells, windows)[0])


def _stamp_distractor(steps: np.ndarray, planted: np.ndarray, vocab: FeatureVocabulary,
                      rng: np.random.Generator) -> bool:
    """Stamp a drop-one-cell variant of a random planted pattern (P, k, d)
    into `steps`.

    Retries until the clip still matches no full planted pattern; leaves
    `steps` unchanged if none is found. The variant of a legal pattern breaks
    no step rule and `_stamp` keeps them, so the clip stays legal.
    """
    for _ in range(_DISTRACTOR_TRIES):
        trial = steps.copy()
        cells = planted[rng.integers(len(planted))].copy()
        positions = np.argwhere(cells == 1)
        drop = positions[rng.integers(len(positions))]
        cells[drop[0], drop[1]] = 0
        window = int(rng.integers(trial.shape[0] - cells.shape[0] + 1))
        _stamp(trial, cells, window, vocab, rng)
        if not _matches_any(planted, trial):
            steps[...] = trial
            return True
    return False


def _apply_feature_noise(steps: np.ndarray, vocab: FeatureVocabulary,
                         rate: float, rng: np.random.Generator) -> None:
    """Flip non-submission bits at `rate`, keeping each step legal."""
    _, help_related, attempt_related = vocab.column_groups
    for row in steps:
        active = help_related if row[vocab.help_index] else attempt_related
        row[active[rng.random(len(active)) < rate]] ^= 1

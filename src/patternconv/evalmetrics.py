"""Classification metrics: accuracy, AUC, Cohen's kappa, precision, recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

POSITIVE_THRESHOLD = 0.5  # a score at or above it is a positive prediction


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    auc: float | None
    kappa: float | None
    precision: float | None
    recall: float | None


def confusion(scores, labels) -> Confusion:
    """Counts with the >= POSITIVE_THRESHOLD positive rule."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have the same length")
    pred = scores >= POSITIVE_THRESHOLD
    # The true, predicted and actual positives are counts of set flags, one
    # pass each, and the other cells follow from them. Four masked sums, or
    # one bincount of 2·pred + label, cast every flag first: each took about
    # 6x as long over 10,000 clips.
    tp = np.count_nonzero(pred & labels)
    predicted, actual = np.count_nonzero(pred), np.count_nonzero(labels)
    return Confusion(tp=tp, fp=predicted - tp, tn=labels.size - predicted - actual + tp,
                     fn=actual - tp)


def accuracy(c: Confusion) -> float:
    return (c.tp + c.tn) / c.total if c.total else 0.0


def precision(c: Confusion) -> float | None:
    denom = c.tp + c.fp
    return c.tp / denom if denom else None


def recall(c: Confusion) -> float | None:
    denom = c.tp + c.fn
    return c.tp / denom if denom else None


def kappa(c: Confusion) -> float | None:
    """Two-class Cohen's kappa; None when expected agreement is 1."""
    n = c.total
    if n == 0:
        return None
    p_o = (c.tp + c.tn) / n
    pred_pos = (c.tp + c.fp) / n
    actual_pos = (c.tp + c.fn) / n
    p_e = pred_pos * actual_pos + (1 - pred_pos) * (1 - actual_pos)
    if p_e == 1.0:
        return None
    return (p_o - p_e) / (1 - p_e)


def auc(scores, labels) -> float | None:
    """Mann-Whitney AUC: P(random positive outscores random negative), ties 1/2."""
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=bool)
    n_pos = np.count_nonzero(labels)
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # each score's group in ascending score order: a bank's bool scores are
    # their own groups (False, True), with no sort; a group with no scores
    # adds 0 to both sums
    if scores.dtype == bool:
        groups, n_groups = scores.view(np.uint8), 2
    else:
        values, groups = np.unique(scores, return_inverse=True)
        n_groups = len(values)
    # negatives and positives per group, from one count of 2·group + label
    neg, pos = np.bincount(2 * groups + labels, minlength=2 * n_groups).reshape(n_groups, 2).T
    greater = (pos * (np.cumsum(neg) - neg)).sum()
    equal = (pos * neg).sum()
    return float((greater + 0.5 * equal) / (n_pos * n_neg))


def report(scores, labels) -> MetricsReport:
    c = confusion(scores, labels)
    return MetricsReport(
        accuracy=accuracy(c),
        auc=auc(scores, labels),
        kappa=kappa(c),
        precision=precision(c),
        recall=recall(c),
    )


def evaluate(predictor, dataset) -> MetricsReport:
    """One-pass metrics of a PatternBank (discrete: scores in {0, 1}) or a
    ModelState (continuous scores) over a dataset."""
    from .curator import PatternBank, bank_predict_batch
    from .netcore import predict

    if isinstance(predictor, PatternBank):
        scores = bank_predict_batch(predictor, dataset)
    else:
        scores = predict(predictor, dataset.steps_array())
    return report(scores, dataset.labels())


def render_table(rows: dict[str, MetricsReport]) -> str:
    """Text table with one row per dataset, matching the reported metric set."""
    cols = ["accuracy", "auc", "kappa", "precision", "recall"]
    fmt = lambda v: "   -  " if v is None else f"{v:0.3f}"
    lines = ["set        " + "  ".join(f"{c:>9}" for c in cols)]
    for name, rep in rows.items():
        vals = [getattr(rep, c) for c in cols]
        lines.append(f"{name:<10} " + "  ".join(f"{fmt(v):>9}" for v in vals))
    return "\n".join(lines)

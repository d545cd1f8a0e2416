"""Evaluation: thresholded confusion metrics, ranking AUC, PR curves,
chronological cross-validation splits, and the keyword baseline.

Degenerate ratios (no predicted positives, no true positives, a single
class in the labels) never raise inside metrics(); the report carries
0.0 plus a flag naming what was undefined, so callers can tell a true
zero from a vacuous one.  The standalone auc_roc returns NaN for
single-class input.

numpy is imported by the metric functions that use it, not with the
module: the CLI imports this module for every command, and the
baseline and folds need no numpy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .core import Label
from .textprep import message_tokens

BASELINE_STEMS = frozenset(("bug", "fix"))
BASELINE_LITERAL = "bug-fix"


@dataclass(frozen=True)
class EvalReport:
    n: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    pr_points: tuple[tuple[float, float], ...] = ()
    degenerate: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["pr_points"] = [list(p) for p in self.pr_points]
        obj["degenerate"] = list(self.degenerate)
        return obj


def _as_binary(values, name: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    arr = arr.astype(np.int64)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr


def _pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise ValueError("scores and labels must have the same length")
    return s, y


def auc_roc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    Midranks handle ties, so this equals the pairwise statistic with
    ties worth half.  Single-class labels or a NaN score give NaN.
    """
    import numpy as np

    s, y = _pair(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(s).any():
        return float("nan")
    # 1-based midranks: a group of tied scores shares its mean rank.
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pr_curve(scores, labels) -> list[tuple[float, float]]:
    """(recall, precision) at each distinct threshold, descending.

    Predictions use score >= threshold, so every point has at least one
    predicted positive and recall never decreases along the sequence.
    """
    import numpy as np

    s, y = _pair(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("pr_curve requires both classes in labels")
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    tp = np.cumsum(y[order])
    # The threshold at a group of tied scores predicts through the
    # group's last member.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    return [(int(tp[i]) / n_pos, int(tp[i]) / int(i + 1)) for i in ends]


def metrics(scores, labels, threshold: float = 0.5) -> EvalReport:
    """Confusion metrics at `score >= threshold`, plus AUC and PR curve."""
    import numpy as np

    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    s, y = _pair(scores, labels)
    pred = (s >= threshold).astype(np.int64)

    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    n = y.size

    degenerate: list[str] = []
    accuracy = (tp + tn) / n
    precision = 0.0
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        degenerate.append("precision_undefined")
    recall = 0.0
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        degenerate.append("recall_undefined")
    f1 = 0.0
    if precision + recall > 0.0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        degenerate.append("f1_undefined")

    auc = auc_roc(s, y)
    if not np.isfinite(auc):
        auc = 0.0
        degenerate.append("auc_undefined")

    if 0 < int(y.sum()) < n:
        pr_points = tuple(pr_curve(s, y))
    else:
        pr_points = ()
        degenerate.append("pr_curve_undefined")

    return EvalReport(
        n=n, tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, auc=auc,
        pr_points=pr_points, degenerate=tuple(degenerate),
    )


def chrono_folds(dataset, n_folds: int = 5) -> list[tuple[list, list]]:
    """n (train, test) splits from contiguous (date, commit_id) order.

    The sorted sequence cuts into n near-equal sets, remainder going to
    the earliest sets (11 items in 5 folds: 3, 2, 2, 2, 2); split i
    holds out set i and trains on the rest.
    """
    items = sorted(dataset, key=lambda c: (c.date, c.commit_id))
    if n_folds < 2:
        raise ValueError(f"n_folds must be at least 2, not {n_folds}: every split needs a training set")
    if n_folds > len(items):
        raise ValueError(f"cannot make {n_folds} folds from {len(items)} items")
    base, rem = divmod(len(items), n_folds)
    sets = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i < rem else 0)
        sets.append(items[start : start + size])
        start += size
    return [
        ([c for j, s in enumerate(sets) if j != i for c in s], list(sets[i]))
        for i in range(n_folds)
    ]


def keyword_baseline(message: str) -> Label:
    """Stable when the lowercased, stemmed message mentions bug or fix.

    The hyphenated literal "bug-fix" also counts, matching the stated
    keyword list; tag lines are not stripped for this baseline.
    """
    if BASELINE_STEMS & set(message_tokens(message)):
        return Label.STABLE
    if BASELINE_LITERAL in message.lower():
        return Label.STABLE
    return Label.NON_STABLE

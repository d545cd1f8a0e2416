"""Evaluation: thresholded confusion metrics, ranking AUC, PR curves,
chronological cross-validation splits, and the keyword baseline.

Degenerate ratios (no predicted positives, no true positives, a single
class in the labels) never raise inside metrics(); the report carries
0.0 plus a flag naming what was undefined, so callers can tell a true
zero from a vacuous one.  The standalone auc_roc returns NaN for
single-class input.

Everything here is pure Python, with no numpy: the CLI imports this
module for every command, and evaluate and baseline --report run in
processes that need no numpy.  Midranks are half-integers, so the AUC
sums them exactly, as twice their sum in integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import itemgetter

from .core import Label
from .textprep import message_tokens

BASELINE_STEMS = frozenset(("bug", "fix"))
BASELINE_LITERAL = "bug-fix"
_BINARY = {0: 0, 1: 1}  # 0.0, 1.0, False and True hash and compare equal to these keys


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


def _as_binary(values, name: str) -> list[int]:
    """values as 0/1 ints; each must equal 0 or 1 (ints, bools, 0.0 and
    1.0 do), and anything else is a ValueError naming `name`."""
    try:
        y = [_BINARY[v] for v in values]
    except TypeError:  # not iterable, or an item is a sequence
        raise ValueError(f"{name} must be a non-empty 1-d sequence") from None
    except KeyError:  # hashes equal and compares equal to neither 0 nor 1
        raise ValueError(f"{name} must contain only 0 and 1") from None
    if not y:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return y


def _pair(scores, labels) -> tuple[list[float], list[int]]:
    y = _as_binary(labels, "labels")
    try:
        s = [float(v) for v in scores]
    except TypeError:
        raise ValueError("scores must be a 1-d sequence of numbers") from None
    if len(s) != len(y):
        raise ValueError("scores and labels must have the same length")
    return s, y


def auc_roc(scores, labels) -> float:
    """Probability a random positive outranks a random negative.

    Midranks handle ties, so this equals the pairwise statistic with
    ties worth half.  Single-class labels or a NaN score give NaN.
    """
    s, y = _pair(scores, labels)
    n_pos = sum(y)
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0 or any(math.isnan(v) for v in s):
        return float("nan")
    # 1-based midranks: a group of tied scores at ranks start+1..end
    # shares (start + 1 + end) / 2, so twice the positives' rank sum is
    # an exact integer.
    rank_sum2 = start = 0
    for _, group in groupby(sorted(zip(s, y)), key=itemgetter(0)):
        labels = [label for _, label in group]
        end = start + len(labels)
        rank_sum2 += sum(labels) * (start + 1 + end)
        start = end
    return (rank_sum2 / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_curve(scores, labels) -> list[tuple[float, float]]:
    """(recall, precision) at each distinct threshold, descending.

    Predictions use score >= threshold, so every point has at least one
    predicted positive and recall never decreases along the sequence.
    A NaN score ranks last, as a threshold of its own.
    """
    s, y = _pair(scores, labels)
    n_pos = sum(y)
    if n_pos == 0 or n_pos == len(y):
        raise ValueError("pr_curve requires both classes in labels")
    # Descending and stable; NaN compares false, so it ends each group.
    order = sorted(range(len(s)), key=lambda i: (math.isnan(s[i]), -s[i]))
    points = []
    tp = 0
    for i, k in enumerate(order):
        tp += y[k]
        # The threshold at a group of tied scores predicts through the
        # group's last member.
        if i + 1 == len(order) or not s[order[i + 1]] == s[k]:
            points.append((tp / n_pos, tp / (i + 1)))
    return points


def metrics(scores, labels, threshold: float = 0.5) -> EvalReport:
    """Confusion metrics at `score >= threshold`, plus AUC and PR curve."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    s, y = _pair(scores, labels)
    confusion = Counter((v >= threshold, label) for v, label in zip(s, y))

    tp, fp = confusion[True, 1], confusion[True, 0]
    tn, fn = confusion[False, 0], confusion[False, 1]
    n = len(y)

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
    if math.isnan(auc):
        auc = 0.0
        degenerate.append("auc_undefined")

    if 0 < sum(y) < n:
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

"""The metric functions as they were before they computed in pure
Python: numpy midranks for the AUC and a numpy cumsum for the PR curve,
kept as the oracle that tests/test_evalkit_oracle.py checks
patchnet.evalkit against.  Only this docstring and the imports are new;
the functions are unchanged, so `_as_binary` still casts labels to int
before its 0/1 check."""

from __future__ import annotations

from patchnet.evalkit import EvalReport


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

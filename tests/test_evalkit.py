"""Tests for confusion metrics, AUC, PR curves, folds, and the baseline."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_MESSAGES, make_commit
from patchnet.core import Label
from patchnet.evalkit import (
    BASELINE_LITERAL,
    BASELINE_STEMS,
    auc_roc,
    chrono_folds,
    keyword_baseline,
    metrics,
    pr_curve,
)


def loop_pr_curve(scores, labels):
    """Reference: one pass over every score per distinct threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(y.sum())
    points = []
    for t in sorted(set(s.tolist()), reverse=True):
        pred = s >= t
        tp = int((pred & (y == 1)).sum())
        points.append((tp / n_pos, tp / int(pred.sum())))
    return points


def pairwise_auc(scores, labels):
    """O(n^2) reference: wins count 1, ties 0.5, over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_scored_labels(rng, n):
    labels = rng.integers(0, 2, n)
    while labels.min() == labels.max():
        labels = rng.integers(0, 2, n)
    # Coarse grid forces plenty of exact ties.
    scores = rng.integers(0, 8, n) / 7.0
    return scores, labels


# ---------------------------------------------------------------------------
# metrics()


def test_metrics_closed_form():
    report = metrics([0.9, 0.8, 0.6, 0.4], [1, 1, 0, 1])
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 0, 1)
    assert report.n == 4
    assert report.accuracy == 0.5
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)
    assert report.auc == pytest.approx(2 / 3)
    assert report.degenerate == ()
    assert report.pr_points == (
        (1 / 3, 1.0),
        (2 / 3, 1.0),
        (2 / 3, 2 / 3),
        (1.0, 3 / 4),
    )


def test_metrics_threshold_is_inclusive():
    report = metrics([0.5, 0.49], [1, 0])
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 0, 1, 0)
    assert report.accuracy == 1.0
    custom = metrics([0.5, 0.49], [1, 0], threshold=0.6)
    assert (custom.tp, custom.fn) == (0, 1)


def test_metrics_flags_degenerate_ratios_instead_of_raising():
    # Single-class negatives, nothing predicted positive.
    report = metrics([0.1, 0.2, 0.3], [0, 0, 0])
    assert report.accuracy == 1.0
    assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0
    assert report.auc == 0.0
    assert report.pr_points == ()
    assert set(report.degenerate) == {
        "precision_undefined",
        "recall_undefined",
        "f1_undefined",
        "auc_undefined",
        "pr_curve_undefined",
    }


def test_metrics_single_class_positive():
    report = metrics([0.9, 0.8], [1, 1])
    assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0
    assert report.auc == 0.0
    assert set(report.degenerate) == {"auc_undefined", "pr_curve_undefined"}


def test_metrics_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(88)
    for _ in range(10):
        scores, labels = random_scored_labels(rng, int(rng.integers(4, 50)))
        report = metrics(scores, labels)
        assert report.auc == pytest.approx(pairwise_auc(scores, labels))


def test_metrics_input_validation():
    with pytest.raises(ValueError, match="same length"):
        metrics([0.5, 0.5], [1])
    with pytest.raises(ValueError, match="only 0 and 1"):
        metrics([0.5, 0.5], [1, 2])
    with pytest.raises(ValueError, match="non-empty"):
        metrics([], [])


@pytest.mark.parametrize("labels", [[0.7, 1.5], [-0.2, 1], [0, 2], [1, float("nan")], ["0", "1"]])
def test_metrics_refuses_labels_other_than_0_or_1(labels):
    # Casting to int first would read 0.7 and -0.2 as 0 and 1.5 as 1.
    with pytest.raises(ValueError, match="labels must contain only 0 and 1"):
        metrics([0.2, 0.9], labels)


def test_metrics_accepts_labels_equal_to_0_or_1():
    want = metrics([0.2, 0.9], [0, 1]).to_json_obj()
    for labels in ([False, True], [0.0, 1.0], [-0.0, 1], np.array([0, 1]), np.array([0.0, 1.0])):
        assert metrics([0.2, 0.9], labels).to_json_obj() == want


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_metrics_refuses_a_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be finite"):
        metrics([0.2, 0.8], [0, 1], threshold)


def test_report_json_shape():
    obj = metrics([0.9, 0.2], [1, 0]).to_json_obj()
    assert obj["n"] == 2 and obj["tp"] == 1 and obj["tn"] == 1
    assert obj["accuracy"] == 1.0 and obj["auc"] == 1.0
    assert obj["pr_points"] == [[1.0, 1.0], [1.0, 0.5]]
    assert obj["degenerate"] == []
    assert isinstance(obj["precision"], float)


# ---------------------------------------------------------------------------
# auc_roc()


def test_auc_perfect_and_inverted():
    assert auc_roc([0.9, 0.1], [1, 0]) == 1.0
    assert auc_roc([0.1, 0.9], [1, 0]) == 0.0
    assert auc_roc([0.3, 0.7, 0.1, 0.9], [0, 1, 0, 1]) == 1.0


def test_auc_all_tied_is_half():
    assert auc_roc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_single_class_is_nan():
    assert math.isnan(auc_roc([0.2, 0.8], [1, 1]))
    assert math.isnan(auc_roc([0.2, 0.8], [0, 0]))


def test_auc_nan_score_is_nan():
    assert math.isnan(auc_roc([0.2, float("nan"), 0.7], [1, 0, 1]))


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        scores, labels = random_scored_labels(rng, int(rng.integers(2, 60)))
        assert auc_roc(scores, labels) == pytest.approx(pairwise_auc(scores, labels))


def test_auc_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(7)
    scores, labels = random_scored_labels(rng, 40)
    base = auc_roc(scores, labels)
    assert auc_roc(3.0 * scores - 7.0, labels) == pytest.approx(base)
    assert auc_roc(np.tanh(scores), labels) == pytest.approx(base)


# ---------------------------------------------------------------------------
# pr_curve()


def test_pr_curve_hand_trace():
    points = pr_curve([0.9, 0.8, 0.6, 0.4], [1, 1, 0, 1])
    assert points == [(1 / 3, 1.0), (2 / 3, 1.0), (2 / 3, 2 / 3), (1.0, 3 / 4)]


def test_pr_curve_merges_tied_scores():
    points = pr_curve([0.7, 0.7, 0.3], [1, 0, 1])
    assert points == [(0.5, 0.5), (1.0, 2 / 3)]


def test_pr_curve_end_point_and_monotone_recall():
    rng = np.random.default_rng(15)
    for _ in range(10):
        scores, labels = random_scored_labels(rng, int(rng.integers(3, 40)))
        points = pr_curve(scores, labels)
        recalls = [r for r, _ in points]
        assert recalls == sorted(recalls)
        assert points[-1][0] == 1.0
        assert points[-1][1] == pytest.approx(labels.sum() / labels.size)


def test_pr_curve_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        pr_curve([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError, match="both classes"):
        pr_curve([0.1, 0.9], [0, 0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.5]), st.integers(0, 1)),
                min_size=2, max_size=60).filter(lambda rows: 0 < sum(y for _, y in rows) < len(rows)))
def test_pr_curve_matches_the_loop_with_ties(rows):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert pr_curve(scores, labels) == loop_pr_curve(scores, labels)


def test_metrics_scales_to_the_paper_dataset():
    # 82,403 patches, the size of the paper's balanced dataset.
    rng = np.random.default_rng(82_403)
    labels = rng.integers(0, 2, 82_403)
    scores = np.round(rng.random(82_403) * 0.6 + 0.4 * labels, 4)
    start = time.perf_counter()
    report = metrics(scores, labels)
    assert time.perf_counter() - start <= 2.0
    assert report.pr_points[-1] == (1.0, labels.sum() / labels.size)
    assert len(report.pr_points) == np.unique(scores).size


# ---------------------------------------------------------------------------
# chrono_folds()


def dated_commits(dates):
    return [make_commit(i, date=d) for i, d in enumerate(dates)]


def test_chrono_folds_sizes_and_order():
    # 11 items over 5 folds: earliest folds absorb the remainder.
    commits = dated_commits([1000 * (11 - i) for i in range(11)])
    folds = chrono_folds(commits, n_folds=5)
    assert [len(test) for _, test in folds] == [3, 2, 2, 2, 2]
    assert [len(train) for train, _ in folds] == [8, 9, 9, 9, 9]
    seen = []
    for train, test in folds:
        assert {c.commit_id for c in train}.isdisjoint(c.commit_id for c in test)
        assert len(train) + len(test) == 11
        seen.extend(test)
    # Concatenated held-out sets reproduce the full dataset in date order.
    assert [c.commit_id for c in seen] == [
        c.commit_id for c in sorted(commits, key=lambda c: c.date)
    ]


def test_chrono_folds_insensitive_to_input_order():
    dates = [500, 100, 900, 300, 700, 200, 800]
    a = chrono_folds(dated_commits(dates), n_folds=3)
    b = chrono_folds(list(reversed(dated_commits(dates))), n_folds=3)
    for (_, test_a), (_, test_b) in zip(a, b):
        assert [c.commit_id for c in test_a] == [c.commit_id for c in test_b]


def test_chrono_folds_ties_break_on_commit_id():
    commits = dated_commits([42, 42, 42, 42])
    folds = chrono_folds(commits, n_folds=2)
    held_out = [c.commit_id for _, test in folds for c in test]
    assert held_out == sorted(c.commit_id for c in commits)


def test_chrono_folds_validation():
    commits = dated_commits([1, 2, 3])
    for n_folds in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            chrono_folds(commits, n_folds=n_folds)
    with pytest.raises(ValueError, match="cannot make 4 folds"):
        chrono_folds(commits, n_folds=4)


# ---------------------------------------------------------------------------
# keyword_baseline()


def test_baseline_keyword_set():
    assert BASELINE_STEMS == {"bug", "fix"}
    assert BASELINE_LITERAL == "bug-fix"


def test_baseline_hits_on_inflected_keywords():
    for message in (
        "Fixes a race when the buffers are freed",
        "fixed a rare crash in the scheduler",
        "fixing up error paths",
        "several bugs squashed in the allocator",
        "BUG: unable to handle page fault",
        "apply the bug-fix from upstream",
    ):
        assert keyword_baseline(message) is Label.STABLE, message


def test_baseline_misses_near_words():
    # Stems must match exactly: debugging stems to debug, buggy to buggi,
    # and the fused word bugfix stays whole, so none of these trigger.
    for message in (
        "add debugging output to the probe path",
        "buggy firmware workaround documented",
        "bugfix branch merged back",
        "prefix handling for long names",
        "",
    ):
        assert keyword_baseline(message) is Label.NON_STABLE, message


def test_baseline_on_sample_corpus_messages():
    for message in SAMPLE_MESSAGES:
        assert keyword_baseline(message) is Label.NON_STABLE


def test_baseline_ignores_case():
    assert keyword_baseline("FIX THE THING") is Label.STABLE
    assert keyword_baseline("Bug-Fix rollup") is Label.STABLE

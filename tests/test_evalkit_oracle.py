"""The pure-Python metrics against their numpy predecessors.

`evalkit_oracle` holds `metrics`, `auc_roc` and `pr_curve` as they were
when they computed with numpy.  On every input with 0/1 labels both
must give the same report, compared as the JSON that `evaluate` writes,
so NaN and -0.0 are compared too.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import evalkit_oracle
from patchnet.evalkit import auc_roc, metrics, pr_curve

# A coarse grid forces ties (-0.0 ties with 0.0); NaN and the infinities
# are scores too.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0, float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ROWS = st.lists(st.tuples(SCORES, st.sampled_from([0, 1, True, False, 0.0, 1.0])), min_size=1, max_size=60)
THRESHOLDS = st.one_of(st.sampled_from([0.5, 0.0, 0.25, 1.0]), st.floats(-2.0, 2.0))


def as_json(value):
    return json.dumps(value, sort_keys=True)


def assert_matches_oracle(scores, labels, threshold):
    got = metrics(scores, labels, threshold).to_json_obj()
    assert as_json(got) == as_json(evalkit_oracle.metrics(scores, labels, threshold).to_json_obj())
    assert as_json(auc_roc(scores, labels)) == as_json(evalkit_oracle.auc_roc(scores, labels))
    if 0 < sum(labels) < len(labels):
        assert pr_curve(scores, labels) == evalkit_oracle.pr_curve(scores, labels)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ROWS, THRESHOLDS)
def test_reports_match_the_oracle(rows, threshold):
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    assert_matches_oracle(scores, labels, threshold)
    assert_matches_oracle(np.array(scores), np.array(labels, dtype=np.int64), threshold)


def test_reports_match_the_oracle_on_larger_inputs():
    rng = np.random.default_rng(26)
    for i in range(200):
        n = int(rng.integers(1, 2_000))
        labels = rng.integers(0, 2, n) if i % 10 else np.full(n, i % 20 // 10)  # every 10th single-class
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))  # 1-3 decimals: many ties
        if i % 7 == 0:
            scores[rng.integers(0, n)] = np.nan
        assert_matches_oracle(scores.tolist(), labels.tolist(), 0.5)

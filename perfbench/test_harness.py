"""Tests of the harness's own arithmetic. Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py

They need numpy only, not modperf.
"""

import math

import numpy as np
import pytest

from measures import ok_frac, r2, spearman
from tracer import (
    Span,
    classify_inputs,
    distinct_rows,
    layer_metrics,
    outermost_totals,
    self_times,
    split_same_name,
)


def _tree():
    # run_model [0, 10]
    #   knowledge_models.fit (complete) [1, 7]
    #     knowledge_models.fit (practical, nested) [2, 6]
    #       learners.forest.fit [3, 5]
    #   metrics.efficacy [8, 9]
    return [
        Span("experiment.run_model", -1, 0.0, 10.0),
        Span("knowledge_models.fit", 0, 1.0, 7.0, {"level": "complete"}),
        Span("knowledge_models.fit", 1, 2.0, 6.0, {"level": "practical"}),
        Span("learners.forest.fit", 2, 3.0, 5.0,
             {"shape": "iv_mixed", "trees": 6, "nodes": 40, "rows": 20, "distinct": 0}),
        Span("metrics.efficacy", 0, 8.0, 9.0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 2.0, 2.0, 2.0, 1.0]


def test_self_times_sum_to_root_duration():
    spans = _tree()
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_outermost_totals_do_not_double_count_nesting():
    totals = outermost_totals(_tree())
    assert totals["knowledge_models.fit"] == 6.0  # the nested practical span is inside it
    assert totals["learners.forest.fit"] == 2.0
    assert totals["experiment.run_model"] == 10.0


def test_nested_same_layer_spans_split_their_time():
    assert split_same_name(_tree()) == [10.0, 2.0, 4.0, 2.0, 1.0]


def test_layer_metrics_on_hand_built_tree():
    m = layer_metrics(_tree(), op_wall=10.0)
    assert m["experiment.run_model.self_s"] == 3.0
    assert m["knowledge_models.fit_s.complete"] == 2.0
    assert m["knowledge_models.fit_s.practical"] == 4.0
    assert m["learners.forest.fit_s.iv_mixed"] == 2.0
    assert m["learners.forest.fit_calls"] == 1
    assert m["learners.forest.us_per_node"] == pytest.approx(1e6 * 2.0 / 40)
    assert m["metrics.efficacy_s"] == 1.0
    # top-level layer spans: the outer fit (6 s) and efficacy (1 s)
    assert m["trace.coverage_frac"] == pytest.approx(0.7)
    assert m["learners.lasso.fit_l1_calls"] == 0


def test_classify_inputs():
    binary = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]], dtype=float)
    mixed = np.column_stack([binary[:, 0], [0.5, 2.0, 1.0]])
    real = np.array([[0.5, 1.5], [2.0, 0.0], [3.0, 1.0]])
    assert classify_inputs(binary) == "binary"
    assert classify_inputs(mixed) == "mixed"
    assert classify_inputs(real) == "real"


def test_distinct_rows_of_binary_matrix():
    X = np.array([[0, 1], [0, 1], [1, 1], [1, 0], [1, 1]], dtype=float)
    assert distinct_rows(X) == 3
    wide = np.zeros((4, 70))
    wide[1, 69] = 1.0
    assert distinct_rows(wide) == 2


def test_r2():
    actual = [1.0, 2.0, 3.0, 4.0]
    assert r2(actual, actual) == 1.0
    # mean prediction explains nothing
    assert r2([2.5] * 4, actual) == pytest.approx(0.0)
    # residuals (0.5, -0.5, 0.5, -0.5): SS_res = 1, SS_tot = 5
    assert r2([0.5, 2.5, 2.5, 4.5], actual) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        r2([1.0, 2.0], [3.0, 3.0])


def test_spearman_with_ties():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # ranks x: 1, 2.5, 2.5, 4; y: 1, 2, 3, 4 -> Pearson on ranks
    rx = np.array([1, 2.5, 2.5, 4]) - 2.5
    ry = np.array([1, 2, 3, 4]) - 2.5
    want = (rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry))
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(want)


def test_ok_frac_is_one_minus_fail_frac():
    assert ok_frac(0, 30) == 1.0
    assert ok_frac(3, 30) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        ok_frac(0, 0)
    with pytest.raises(ValueError):
        ok_frac(5, 4)

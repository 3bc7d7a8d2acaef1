from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modperf.hardness_opportunity import (
    EfficacyCurve,
    HardnessMode,
    build_matrix,
    classify_hardness,
    hardness,
    opportunity,
    scaling_constant,
)

SIZES = (20, 50, 100, 200, 500, 1000)


def _curve(values, metric="scc", sizes=SIZES):
    return EfficacyCurve(metric=metric, points=tuple(zip(sizes, values)))


def test_scaling_constant_exact_rational():
    assert scaling_constant(SIZES) == 125 / 11
    assert scaling_constant(SIZES) == float(1 / sum(Fraction(1, n) for n in SIZES))
    assert scaling_constant([1]) == 1.0
    assert scaling_constant([37]) == 37.0


def test_scaling_constant_rejects_bad_input():
    with pytest.raises(ValueError):
        scaling_constant([])
    with pytest.raises(ValueError):
        scaling_constant([10, 0])


def test_hardness_worked_example_medium_system():
    # SCC curve 0.19..0.77 over {20..1000} -> 0.718
    score = hardness(_curve([0.19, 0.31, 0.43, 0.55, 0.66, 0.77]))
    assert score.value == pytest.approx(0.718, abs=1e-3)
    assert score.scaling_constant == 125 / 11


def test_hardness_worked_example_low_system():
    score = hardness(_curve([0.71, 0.87, 0.96, 0.97, 0.97, 0.98]))
    assert score.value == pytest.approx(0.2015, abs=2e-3)


def test_hardness_normalization_endpoints():
    assert hardness(_curve([1.0] * 6)).value == 0.0
    assert hardness(_curve([0.0] * 6)).value == 1.0


def test_hardness_clamps_out_of_range_efficacies():
    assert hardness(_curve([-0.4] * 6)).value == 1.0
    assert hardness(_curve([1.3] * 6)).value == 0.0


def test_hardness_and_opportunity_never_exceed_one():
    # C * (1/20 + 1/40) rounds to 1.0000000000000002 before the final clamp
    sizes = (20, 40)
    assert hardness(_curve([-0.05, -0.2], sizes=sizes)).value == 1.0
    null, ideal = _curve([0.0, 0.0], sizes=sizes), _curve([1.0, 1.0], sizes=sizes)
    assert opportunity(null, ideal, ideal, "complete").value == 1.0


def test_hardness_monotone_pointwise():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0, 1, len(SIZES))
        worse = p.copy()
        idx = rng.integers(len(SIZES))
        worse[idx] = max(0.0, worse[idx] - rng.uniform(0, worse[idx] + 1e-12))
        assert hardness(_curve(list(worse))).value >= hardness(_curve(list(p))).value - 1e-12


def test_hardness_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        hardness(EfficacyCurve(metric="scc", points=()))
    with pytest.raises(ValueError):
        hardness(_curve([0.1, np.nan, 0.3, 0.4, 0.5, 0.6]))


def test_curve_requires_increasing_sizes():
    with pytest.raises(ValueError):
        EfficacyCurve(metric="scc", points=((50, 0.1), (20, 0.2)))


def test_opportunity_hand_example():
    sizes = (10, 100)
    null = _curve([0.2, 0.4], sizes=sizes)
    ideal = _curve([0.6, 0.8], sizes=sizes)
    level = _curve([0.4, 0.6], sizes=sizes)
    score = opportunity(null, ideal, level, "partial")
    assert [f for _, _, f in score.per_size] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert score.value == pytest.approx(0.2, abs=1e-12)


def test_opportunity_trivial_endpoints():
    null = _curve([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    ideal = _curve([0.8, 0.85, 0.9, 0.92, 0.95, 0.99])
    nothing = opportunity(null, ideal, null, "partial")
    assert nothing.value == 0.0
    everything = opportunity(null, ideal, ideal, "complete")
    expected = scaling_constant(SIZES) * sum(
        (i - n) / s for (s, n), (_, i) in zip(null.points, ideal.points)
    )
    assert everything.value == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= everything.value <= 1.0


def test_opportunity_monotone_in_level_curve():
    rng = np.random.default_rng(2)
    null = _curve([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    ideal = _curve([0.7, 0.8, 0.85, 0.9, 0.95, 1.0])
    for _ in range(40):
        base = rng.uniform(0, 1, 6)
        bumped = base.copy()
        idx = rng.integers(6)
        bumped[idx] = min(1.0, bumped[idx] + rng.uniform(0, 0.5))
        low = opportunity(null, ideal, _curve(list(base)), "partial").value
        high = opportunity(null, ideal, _curve(list(bumped)), "partial").value
        assert high >= low - 1e-12


def test_opportunity_clamps_filling_to_unit_interval():
    sizes = (10, 100)
    null = _curve([0.4, 0.5], sizes=sizes)
    ideal = _curve([0.6, 0.7], sizes=sizes)
    overshoot = _curve([0.9, 0.95], sizes=sizes)
    undershoot = _curve([0.1, 0.2], sizes=sizes)
    assert [f for _, _, f in opportunity(null, ideal, overshoot, "x").per_size] == [1.0, 1.0]
    assert [f for _, _, f in opportunity(null, ideal, undershoot, "x").per_size] == [0.0, 0.0]


def test_opportunity_zero_gap_contributes_nothing():
    sizes = (10, 100)
    null = _curve([0.5, 0.5], sizes=sizes)
    ideal = _curve([0.5, 0.9], sizes=sizes)
    level = _curve([0.9, 0.7], sizes=sizes)
    score = opportunity(null, ideal, level, "partial")
    assert score.per_size[0][2] == 0.0  # no gap at n=10
    assert score.value > 0.0


def test_opportunity_requires_aligned_curves():
    with pytest.raises(ValueError):
        opportunity(
            _curve([0.1, 0.2], sizes=(10, 100)),
            _curve([0.3, 0.4], sizes=(10, 200)),
            _curve([0.2, 0.3], sizes=(10, 100)),
            "partial",
        )
    with pytest.raises(ValueError):
        opportunity(
            _curve([0.1] * 6, metric="acc"),
            _curve([0.3] * 6, metric="scc"),
            _curve([0.2] * 6, metric="scc"),
            "partial",
        )


@given(st.lists(st.floats(0, 1), min_size=6, max_size=6))
def test_opportunity_bounded_unit_interval(level_values):
    null = _curve([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    ideal = _curve([0.9, 0.95, 1.0, 1.0, 1.0, 1.0])
    score = opportunity(null, ideal, _curve(level_values), "partial")
    assert 0.0 <= score.value <= 1.0


def test_classify_fixed_ranges():
    assert classify_hardness(0.718) == "medium"
    assert classify_hardness(0.201) == "low"
    assert classify_hardness(0.0) == "low"
    assert classify_hardness(0.25) == "medium"
    assert classify_hardness(0.75) == "high"
    assert classify_hardness(1.0) == "high"


def test_classify_empirical_quartiles():
    population = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    mode = HardnessMode.EMPIRICAL_QUARTILE
    assert classify_hardness(0.15, mode, population) == "low"
    assert classify_hardness(0.45, mode, population) == "medium"
    assert classify_hardness(0.79, mode, population) == "high"
    with pytest.raises(ValueError):
        classify_hardness(0.5, mode, [0.1, 0.2])


def test_build_matrix_means_against_streaming_oracle():
    rng = np.random.default_rng(3)
    observations = []
    streaming = {}
    for _ in range(200):
        level = ("partial", "practical", "complete")[rng.integers(3)]
        hardness_level = ("low", "medium", "high")[rng.integers(3)]
        value = float(rng.uniform())
        observations.append((level, hardness_level, value))
        count, mean = streaming.get((level, hardness_level), (0, 0.0))
        count += 1
        mean += (value - mean) / count
        streaming[(level, hardness_level)] = (count, mean)
    matrix = build_matrix(observations, metric="acc")
    for key, (count, mean) in streaming.items():
        cell = matrix.cells[key]
        assert cell.count == count
        assert cell.mean == pytest.approx(mean, abs=1e-12)


def test_build_matrix_single_and_duplicate_observations():
    matrix = build_matrix([("partial", "low", 0.3)], metric="acc")
    assert matrix.cell("partial", "low").mean == 0.3
    dup = build_matrix([("partial", "low", 0.3), ("partial", "low", 0.3)], metric="acc")
    assert dup.cell("partial", "low").mean == 0.3
    assert dup.cell("complete", "high").empty


def test_build_matrix_rejects_unknown_labels():
    with pytest.raises(ValueError):
        build_matrix([("null", "low", 0.1)], metric="acc")
    with pytest.raises(ValueError):
        build_matrix([("partial", "extreme", 0.1)], metric="acc")

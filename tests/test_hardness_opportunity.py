from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modperf.hardness_opportunity import (
    GAP_EPS,
    CurveTable,
    HardnessMode,
    build_matrix,
    classify_hardness,
    hardness,
    opportunity,
    scaling_constant,
)

SIZES = (20, 50, 100, 200, 500, 1000)


def _curve(values, metric="scc", sizes=SIZES):
    """One curve as a one-row table."""
    return CurveTable(metric, sizes, np.array([values], dtype=float))


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
    assert score.value[0] == pytest.approx(0.718, abs=1e-3)
    assert score.scaling_constant == 125 / 11


def test_hardness_worked_example_low_system():
    score = hardness(_curve([0.71, 0.87, 0.96, 0.97, 0.97, 0.98]))
    assert score.value[0] == pytest.approx(0.2015, abs=2e-3)


def test_hardness_normalization_endpoints():
    assert hardness(_curve([1.0] * 6)).value[0] == 0.0
    assert hardness(_curve([0.0] * 6)).value[0] == 1.0


def test_hardness_clamps_out_of_range_efficacies():
    assert hardness(_curve([-0.4] * 6)).value[0] == 1.0
    assert hardness(_curve([1.3] * 6)).value[0] == 0.0


def test_hardness_and_opportunity_never_exceed_one():
    # C * (1/20 + 1/40) rounds to 1.0000000000000002 before the final clamp
    sizes = (20, 40)
    assert hardness(_curve([-0.05, -0.2], sizes=sizes)).value[0] == 1.0
    null, ideal = _curve([0.0, 0.0], sizes=sizes), _curve([1.0, 1.0], sizes=sizes)
    assert opportunity(null, ideal, ideal, "complete").value[0] == 1.0


def test_hardness_monotone_pointwise():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0, 1, len(SIZES))
        worse = p.copy()
        idx = rng.integers(len(SIZES))
        worse[idx] = max(0.0, worse[idx] - rng.uniform(0, worse[idx] + 1e-12))
        assert hardness(_curve(list(worse))).value[0] >= hardness(_curve(list(p))).value[0] - 1e-12


def test_hardness_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        hardness(_curve([], sizes=()))
    with pytest.raises(ValueError):
        hardness(_curve([0.1, np.nan, 0.3, 0.4, 0.5, 0.6]))


def test_curve_requires_increasing_sizes():
    with pytest.raises(ValueError, match="strictly increasing"):
        _curve([0.1, 0.2], sizes=(50, 20))
    with pytest.raises(ValueError, match="strictly increasing"):
        _curve([0.1, 0.2], sizes=(20, 20))


def test_opportunity_hand_example():
    sizes = (10, 100)
    null = _curve([0.2, 0.4], sizes=sizes)
    ideal = _curve([0.6, 0.8], sizes=sizes)
    level = _curve([0.4, 0.6], sizes=sizes)
    score = opportunity(null, ideal, level, "partial")
    assert list(score.filling[0]) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert score.value[0] == pytest.approx(0.2, abs=1e-12)


def test_opportunity_trivial_endpoints():
    null = _curve([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    ideal = _curve([0.8, 0.85, 0.9, 0.92, 0.95, 0.99])
    nothing = opportunity(null, ideal, null, "partial")
    assert nothing.value[0] == 0.0
    everything = opportunity(null, ideal, ideal, "complete")
    expected = scaling_constant(SIZES) * sum(
        (i - n) / s for s, n, i in zip(SIZES, null.values[0].tolist(), ideal.values[0].tolist())
    )
    assert everything.value[0] == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= everything.value[0] <= 1.0


def test_opportunity_monotone_in_level_curve():
    rng = np.random.default_rng(2)
    null = _curve([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    ideal = _curve([0.7, 0.8, 0.85, 0.9, 0.95, 1.0])
    for _ in range(40):
        base = rng.uniform(0, 1, 6)
        bumped = base.copy()
        idx = rng.integers(6)
        bumped[idx] = min(1.0, bumped[idx] + rng.uniform(0, 0.5))
        low = opportunity(null, ideal, _curve(list(base)), "partial").value[0]
        high = opportunity(null, ideal, _curve(list(bumped)), "partial").value[0]
        assert high >= low - 1e-12


def test_opportunity_clamps_filling_to_unit_interval():
    sizes = (10, 100)
    null = _curve([0.4, 0.5], sizes=sizes)
    ideal = _curve([0.6, 0.7], sizes=sizes)
    overshoot = _curve([0.9, 0.95], sizes=sizes)
    undershoot = _curve([0.1, 0.2], sizes=sizes)
    assert opportunity(null, ideal, overshoot, "x").filling[0].tolist() == [1.0, 1.0]
    assert opportunity(null, ideal, undershoot, "x").filling[0].tolist() == [0.0, 0.0]


def test_opportunity_zero_gap_contributes_nothing():
    sizes = (10, 100)
    null = _curve([0.5, 0.5], sizes=sizes)
    ideal = _curve([0.5, 0.9], sizes=sizes)
    level = _curve([0.9, 0.7], sizes=sizes)
    score = opportunity(null, ideal, level, "partial")
    assert score.filling[0, 0] == 0.0  # no gap at n=10
    assert score.value[0] > 0.0


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
    assert 0.0 <= score.value[0] <= 1.0


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
    # a value equal to a quartile goes to the upper class; the quartiles of
    # this population are exactly 0.25 and 0.75
    quarters = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert classify_hardness(np.array(quarters), mode, quarters) == ["low", "medium", "medium", "high", "high"]
    assert classify_hardness(np.nextafter(0.25, 0.0), mode, quarters) == "low"
    assert classify_hardness(np.nextafter(0.75, 0.0), mode, quarters) == "medium"
    # all-equal scores: both quartiles equal the value, so every unit is high
    assert classify_hardness(np.full(4, 0.3), mode, [0.3] * 4) == ["high"] * 4
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


# ------------------------------------------- scalar reference definitions
# The per-value definitions the table kernels replaced. `sum()` of floats is
# written as the left-to-right loop it is on Python <= 3.11 (3.12 compensates
# the sum), so these stay the reference the output bytes were written with.


def _ref_clamp01(p):
    return min(max(p, 0.0), 1.0)


def _ref_hardness(sizes, efficacies):
    constant = scaling_constant(sizes)
    losses = [min(max(1.0 - p, 0.0), 1.0) for p in efficacies]
    total = 0
    for l, n in zip(losses, sizes):
        total = total + l / n
    return _ref_clamp01(constant * total)


def _ref_opportunity(sizes, null, ideal, level):
    constant = scaling_constant(sizes)
    per_size = []
    total = 0.0
    for n, p_null, p_ideal, p_level in zip(sizes, null, ideal, level):
        gap = _ref_clamp01(p_ideal) - _ref_clamp01(p_null)
        if gap > GAP_EPS:
            filling = min(max((_ref_clamp01(p_level) - _ref_clamp01(p_null)) / gap, 0.0), 1.0)
        else:
            filling = 0.0
        per_size.append((gap, filling))
        total += filling * max(gap, 0.0) / n
    return _ref_clamp01(constant * total), per_size


def _ref_classify(value, population):
    q25 = float(np.quantile(population, 0.25))
    q75 = float(np.quantile(population, 0.75))
    if value < q25:
        return "low"
    if value < q75:
        return "medium"
    return "high"


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_SPECIAL = [-0.3, -0.0, 0.0, 1.0, 1.3, 1e-9, float(np.nextafter(1e-9, 1.0)), 0.5]


def _oracle_tables(rng, sizes, rows=300):
    """Null, ideal and level tables mixing random efficacies with values
    below 0 (negative SCC) and above 1, signed zeros, and ideal-minus-null
    gaps exactly at GAP_EPS and one ulp above it."""
    shape = (rows, len(sizes))
    tables = [rng.uniform(-0.5, 1.5, size=shape) for _ in range(3)]
    for table in tables:
        mask = rng.random(shape) < 0.3
        table[mask] = rng.choice(_SPECIAL, size=mask.sum())
    null, ideal, level = tables
    null[:40] = 0.0
    ideal[:20] = GAP_EPS
    ideal[20:40] = np.nextafter(GAP_EPS, 1.0)
    null[40:50], ideal[40:50] = 0.0, -0.0
    return null, ideal, level


@pytest.mark.parametrize("sizes", [(20, 50, 100, 200, 500, 1000), (37,), (10, 100)])
def test_table_kernels_match_scalar_definitions_bitwise(sizes):
    rng = np.random.default_rng(len(sizes))
    null, ideal, level = _oracle_tables(rng, sizes)
    tables = [CurveTable("scc", sizes, t) for t in (null, ideal, level)]
    h = hardness(tables[0])
    opp = opportunity(*tables, "partial")
    for i in range(len(null)):
        want_h = _ref_hardness(sizes, null[i].tolist())
        want_o, want_per_size = _ref_opportunity(sizes, null[i].tolist(), ideal[i].tolist(), level[i].tolist())
        want_gap, want_fill = zip(*want_per_size)
        assert _bits([h.value[i], opp.value[i]]) == _bits([want_h, want_o])
        assert _bits(opp.gap[i]) == _bits(want_gap)
        assert _bits(opp.filling[i]) == _bits(want_fill)
        # the row scored alone, as a one-row table: the same bits
        alone = [CurveTable("scc", sizes, t[i : i + 1]) for t in (null, ideal, level)]
        one = opportunity(*alone, "partial")
        assert _bits([hardness(alone[0]).value[0], one.value[0]]) == _bits([h.value[i], opp.value[i]])
        assert _bits(one.gap[0]) == _bits(opp.gap[i])
        assert _bits(one.filling[0]) == _bits(opp.filling[i])
    assert np.signbit(opp.gap[40]).all()  # -0.0 gaps kept


def test_classify_array_matches_per_value_rule():
    rng = np.random.default_rng(9)
    # ties at both quartiles: q25 and q75 are values of the population
    population = [0.1, 0.2, 0.2, 0.2, 0.4, 0.6, 0.6, 0.6, 0.9]
    values = np.concatenate([population, rng.choice(population, 50), rng.uniform(0, 1, 50)])
    empirical = classify_hardness(values, HardnessMode.EMPIRICAL_QUARTILE, population)
    assert empirical == [_ref_classify(v, population) for v in values.tolist()]
    assert classify_hardness(values) == [_ref_classify(v, [0.0, 0.25, 0.5, 0.75, 1.0]) for v in values.tolist()]
    assert {"low", "medium", "high"} <= set(empirical)
    score = hardness(CurveTable("acc", SIZES, rng.uniform(0, 1, size=(5, len(SIZES)))))
    assert classify_hardness(score.value) == [classify_hardness(v) for v in score.value.tolist()]


def test_opportunity_rejects_tables_of_different_lengths():
    null = CurveTable("acc", (10, 100), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        opportunity(null, null, CurveTable("acc", (10, 100), np.zeros((1, 2))), "partial")
    with pytest.raises(ValueError):
        CurveTable("acc", (10, 100), np.zeros((3, 3)))

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modperf.metrics import acc, maape, rankdata, spearman


def test_maape_perfect_prediction_is_zero():
    assert maape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_maape_hand_case_pi_over_4():
    # actual=[1,1], predicted=[2,0]: each term arctan(1) = pi/4
    assert maape([2.0, 0.0], [1.0, 1.0]) == pytest.approx(math.pi / 4, abs=1e-12)


def test_maape_approaches_pi_over_2_for_huge_error():
    assert maape([1e15], [1.0]) == pytest.approx(math.pi / 2, abs=1e-6)


def test_maape_zero_actual_uses_epsilon_fallback():
    assert maape([0.0], [0.0]) == 0.0
    assert maape([1.0], [0.0]) == pytest.approx(math.pi / 2, abs=1e-9)


def test_maape_length_mismatch():
    with pytest.raises(ValueError):
        maape([1.0], [1.0, 2.0])


def test_acc_endpoints_and_scaling():
    assert acc([1.0, 2.0], [1.0, 2.0]) == 1.0
    assert acc([2.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert acc([1e16, 1e16], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-6)


def test_acc_sign_symmetric_relative_error():
    y = np.array([1.0, 2.0, 5.0, 9.0])
    for delta in (0.1, 0.4, 0.9):
        assert acc(y * (1 + delta), y) == pytest.approx(acc(y * (1 - delta), y), abs=1e-12)


def test_rankdata_average_ties():
    assert rankdata([1.0, 2.0, 2.0, 4.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert rankdata([3.0, 3.0, 3.0]).tolist() == [2.0, 2.0, 2.0]
    assert rankdata([]).tolist() == []


def test_rankdata_matches_definition_on_tied_data():
    # rank = #less + (#equal + 1) / 2, exactly
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 50, 300):
        for levels in (1, 3, 20, None):
            v = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) * 0.1
            less = (v[None, :] < v[:, None]).sum(axis=1)
            equal = (v[None, :] == v[:, None]).sum(axis=1)
            assert rankdata(v).tolist() == (less + (equal + 1) / 2).tolist()


def test_spearman_identical_and_reversed_rankings():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([4, 3, 2, 1], [10, 20, 30, 40]) == pytest.approx(-1.0)


def test_spearman_hand_case_with_ties():
    # ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4] -> 4.5/sqrt(22.5)
    assert spearman([1, 2, 2, 4], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)


def test_spearman_degenerate_is_zero():
    assert spearman([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == 0.0
    assert spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) == 0.0


def test_spearman_needs_two_points():
    with pytest.raises(ValueError):
        spearman([1.0], [1.0])


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40, unique=True).flatmap(
        lambda ys: st.tuples(
            st.just(ys),
            st.lists(
                # Quantized so strictly increasing float transforms stay
                # injective (exp collapses sub-epsilon gaps otherwise).
                st.floats(-50, 50).map(lambda p: round(p, 3)),
                min_size=len(ys),
                max_size=len(ys),
            ),
        )
    )
)
def test_spearman_invariant_under_monotone_transforms(data):
    actual, predicted = data
    base = spearman(predicted, actual)
    affine = spearman([3.0 * p + 7.0 for p in predicted], actual)
    assert affine == pytest.approx(base, abs=1e-9)
    expo = spearman(np.exp(np.asarray(predicted) / 10.0), actual)
    assert expo == pytest.approx(base, abs=1e-9)

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_mwu_p
from modperf import reporting
from modperf.hardness_opportunity import build_matrix
from modperf.learners import CVSpec, fold_indices, mse
from modperf.learners.lasso import CVLosses, SolveCounts
from modperf.stats import (
    ImportanceVector,
    aspect_regression,
    cles,
    fisher_z_screen,
    fisher_z_statistic,
    mann_whitney_u,
    matrix_hypothesis_tests,
    permutation_importance,
    shapley_importance,
    system_folds,
    two_stage_pipeline,
)


class _Linear:
    def __init__(self, beta):
        self.beta = np.asarray(beta, dtype=float)

    def predict(self, X):
        return np.asarray(X, dtype=float) @ self.beta


# ------------------------------------------------------------ mann-whitney


def test_mwu_small_shift_exact_p():
    result = mann_whitney_u([1, 2], [3, 4], alternative="less")
    assert result.method == "exact"
    assert result.p_value == pytest.approx(1 / 6)
    assert result.cles_other == 1.0


def test_mwu_identical_samples():
    x = list(range(30))
    result = mann_whitney_u(x, list(x), alternative="less")
    assert result.cles == 0.5
    assert result.p_value >= 0.5


def test_mwu_all_tied_degenerate():
    result = mann_whitney_u([2.0] * 15, [2.0] * 15, alternative="greater")
    assert result.p_value == 1.0
    assert result.cles == 0.5


def test_mwu_exact_matches_brute_force_small_sweep():
    rng = np.random.default_rng(5)
    for n_x in range(1, 4):
        for n_y in range(1, 4):
            for _ in range(4):
                x = rng.integers(0, 4, n_x).tolist()
                y = rng.integers(0, 4, n_y).tolist()
                for alternative in ("less", "greater", "two_sided"):
                    got = mann_whitney_u(x, y, alternative=alternative)
                    want = brute_force_mwu_p(x, y, alternative)
                    assert got.method == "exact"
                    assert got.p_value == pytest.approx(want, abs=1e-12), (x, y, alternative)


def test_mwu_normal_approximation_reasonable():
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, 60)
    y = rng.normal(0.8, 1.0, 60)
    result = mann_whitney_u(x, y, alternative="less")
    assert result.method == "normal"
    assert result.p_value < 0.05
    assert result.cles < 0.5
    assert mann_whitney_u(x, y, alternative="greater").p_value > 0.95


def test_mwu_rejects_empty():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


# -------------------------------------------------------------------- cles


def test_cles_pair_enumeration():
    assert cles([1, 3], [2, 4]) == 0.25
    assert cles([5, 6], [1, 2]) == 1.0
    assert cles([2, 2], [2, 2]) == 0.5


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
)
def test_cles_antisymmetry(x, y):
    assert cles(x, y) + cles(y, x) == pytest.approx(1.0)


def test_cles_equals_pair_count_on_tied_data():
    """cles comes from the U statistic; it must equal the pair count
    (greater + 0.5 equal) / (n_x n_y) exactly, ties and signed zeros too."""
    rng = np.random.default_rng(25)
    for _ in range(400):
        x = rng.integers(-3, 4, size=rng.integers(1, 40)).astype(float)
        y = rng.integers(-3, 4, size=rng.integers(1, 40)).astype(float)
        x[x == 0] *= rng.choice([-1.0, 1.0], size=(x == 0).sum())  # -0.0 ties 0.0
        greater = (x[:, None] > y[None, :]).sum()
        equal = (x[:, None] == y[None, :]).sum()
        assert cles(x, y) == float((greater + 0.5 * equal) / (x.size * y.size))


# ---------------------------------------------------------------- fisher-z


def test_fisher_z_zero_correlation_independent():
    u = np.array([1.0, -1.0] * 30)
    v = np.array(([1.0] * 2 + [-1.0] * 2) * 15)
    assert fisher_z_statistic(u[:, None], v)[0] == pytest.approx(0.0, abs=1e-12)
    assert not fisher_z_screen(u[:, None], v)[0]


def test_fisher_z_hand_computed_statistic():
    # r = 0.5, n = 103: z = artanh(0.5), statistic = 10 z
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.normal(size=103)
        v = rng.normal(size=103)
        u = (u - u.mean()) / u.std()
        v = v - v.mean()
        # orthogonalize then mix to get exact sample correlation 0.5
        v = v - (u @ v) / (u @ u) * u
        v = v / v.std()
        mixed = 0.5 * u + math.sqrt(1 - 0.25) * v
        # each column is tested on its own, in either sign
        X = np.column_stack([u, -u, v])
        statistic = fisher_z_statistic(X, mixed)
        assert statistic[:2] == pytest.approx([5 * math.log(3.0)] * 2, abs=1e-9)
        assert statistic[0] == pytest.approx(5.493, abs=1e-3)
        assert fisher_z_screen(X, mixed)[:2].tolist() == [True, True]


def test_fisher_z_degenerate_variance_flagged_independent():
    X = np.column_stack([np.zeros(50), np.full(50, 3.0), np.arange(50.0)])
    assert fisher_z_statistic(X, np.arange(50.0)).tolist()[:2] == [0.0, 0.0]
    assert fisher_z_screen(X, np.arange(50.0)).tolist() == [False, False, True]
    assert fisher_z_statistic(X, np.ones(50)).tolist() == [0.0, 0.0, 0.0]


def test_fisher_z_preconditions():
    with pytest.raises(ValueError):
        fisher_z_screen(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        fisher_z_screen(np.zeros((10, 1)), np.zeros(9))


def test_fisher_z_perfect_correlation_is_capped_and_rejected():
    x = np.arange(40.0)
    statistic = fisher_z_statistic(np.column_stack([x, -x]), 2 * x + 1)
    assert fisher_z_screen(np.column_stack([x, -x]), 2 * x + 1).all()
    assert statistic.tolist() == pytest.approx([math.sqrt(37) * math.atanh(1 - 1e-15)] * 2)


def test_fisher_z_type_one_rate_calibrated():
    rng = np.random.default_rng(1001)
    alpha = 0.05
    rejections = 0
    trials = 1000
    for _ in range(trials):
        if fisher_z_screen(rng.normal(size=(100, 1)), rng.normal(size=100), alpha=alpha)[0]:
            rejections += 1
    rate = rejections / trials
    half_width = 2.576 * math.sqrt(alpha * (1 - alpha) / trials)
    assert abs(rate - alpha) < half_width


# ------------------------------------------------------------- importances


def test_permutation_importance_single_relevant_feature():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 3))
    y = X[:, 0].copy()
    imp = permutation_importance(_Linear([1.0, 0.0, 0.0]), X, y, mse, repeats=10, seed=1)
    assert imp.weights["x0"] > 0.999
    assert not imp.degenerate


def test_permutation_importance_matches_analytic_shuffle_loss():
    rng = np.random.default_rng(12)
    x = rng.normal(size=1500)
    X = x.reshape(-1, 1)
    beta = 1.7
    imp = permutation_importance(_Linear([beta]), X, beta * x, mse, repeats=20, seed=2)
    analytic = 2.0 * beta**2 * x.var()
    assert imp.raw["x0"] == pytest.approx(analytic, rel=0.10)


def test_permutation_importance_degenerate_uniform():
    X = np.random.default_rng(13).normal(size=(50, 4))
    imp = permutation_importance(_Linear([0.0] * 4), X, np.zeros(50), mse, repeats=3, seed=3)
    assert imp.degenerate
    assert all(w == pytest.approx(0.25) for w in imp.weights.values())


def test_shapley_symmetry_and_single_feature():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(300, 2))
    y = X[:, 0] + X[:, 1]
    imp, _ = shapley_importance(_Linear([1.0, 1.0]), X, y, mse)
    assert imp.weights["x0"] == pytest.approx(imp.weights["x1"], abs=0.06)
    only, _ = shapley_importance(_Linear([1.0, 0.0]), X, X[:, 0], mse)
    assert only.weights["x0"] > 0.99


def test_shapley_efficiency():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(250, 3))
    beta = [1.0, 0.5, 0.25]
    y = X @ np.array(beta)
    exact, total = shapley_importance(_Linear(beta), X, y, mse)
    assert sum(exact.raw.values()) == pytest.approx(total, abs=1e-6)


def test_shapley_matches_linear_closed_form():
    """For y = X beta under mean imputation and MSE, a coalition S leaves the
    loss beta_-S' Sigma_-S beta_-S (Sigma: the biased sample covariance), so
    feature j's Shapley value is beta_j (Sigma beta)_j and the total loss
    reduction is beta' Sigma beta, with correlated columns too."""
    rng = np.random.default_rng(16)
    X = rng.normal(size=(400, 5))
    X[:, 3] = 0.7 * X[:, 0] + 0.3 * X[:, 3]
    beta = np.array([1.0, -0.5, 0.25, 0.8, 0.0])
    imp, total = shapley_importance(_Linear(beta), X, X @ beta, mse)
    sigma = np.cov(X, rowvar=False, bias=True)
    assert [imp.raw[f"x{j}"] for j in range(5)] == pytest.approx(beta * (sigma @ beta), abs=1e-12)
    assert total == pytest.approx(beta @ sigma @ beta, abs=1e-12)


def test_shapley_exact_feature_limit():
    X = np.zeros((10, 21))
    with pytest.raises(ValueError):
        shapley_importance(_Linear([0.0] * 21), X, np.zeros(10), mse)


def test_importance_vector_validates_sum():
    with pytest.raises(ValueError):
        ImportanceVector(weights={"a": 0.7, "b": 0.7})


# -------------------------------------------------------- aspect regression


def _aspect_records(rng, n=120, coef_module=0.6, coef_option=0.2):
    X = rng.uniform(0, 1, size=(n, 5))
    y = coef_module * X[:, 4] + coef_option * X[:, 0]
    return [(X[i].tolist(), float(y[i])) for i in range(n)]


def _one_task(records, cv):
    X = np.array([r[0] for r in records], dtype=float)
    y = np.array([r[1] for r in records], dtype=float)
    return [(X, y, fold_indices(len(records), cv))]


def test_aspect_regression_recovers_coefficient_ratio():
    records = _aspect_records(np.random.default_rng(16))
    [(model, importance)] = aspect_regression(
        _one_task(records, CVSpec(folds=3, shuffle_seed=0)), degrees=(1, 2), alphas=[1e-4, 1e-3]
    )
    assert importance.weights["Module#"] == pytest.approx(0.75, abs=0.03)
    assert importance.weights["Option#"] == pytest.approx(0.25, abs=0.03)
    assert importance.weights["IEWithin_p"] < 0.02


def test_aspect_regression_constant_target_degenerate():
    rng = np.random.default_rng(17)
    records = [(rng.uniform(0, 1, 5).tolist(), 0.4) for _ in range(30)]
    [(_, importance)] = aspect_regression(
        _one_task(records, CVSpec(folds=3, shuffle_seed=0)), degrees=(1,), alphas=[0.01]
    )
    assert importance.degenerate
    assert all(w == pytest.approx(0.25) for w in importance.weights.values())


def test_aspect_regression_needs_ten_records():
    with pytest.raises(ValueError):
        aspect_regression(_one_task([([0.0] * 5, 0.0)] * 9, CVSpec()))


def test_aspect_regression_picks_first_minimum_degrees_outer(monkeypatch):
    """Stage 1 keeps the first lowest CV loss over the degree x alpha array,
    scanning alphas within each degree: a tie across degrees goes to the
    earlier degree, a tie within one to the earlier alpha."""
    from modperf import stats

    losses = {1: [3.0, 1.0, 1.0], 2: [1.0, 4.0, 1.0], 3: [2.0, 2.0, 2.0]}
    calls = []

    def fake_cv(tasks, degree, alphas):
        calls.append((degree, list(alphas), [[f.tolist() for f in folds] for _, _, folds in tasks]))
        solves = [SolveCounts(problems=0, unconverged=0, max_sweeps=0) for _ in tasks]
        return CVLosses([np.array(losses[degree]) for _ in tasks], solves)

    monkeypatch.setattr(stats, "cross_validate_l1_many", fake_cv)
    task = _one_task(_aspect_records(np.random.default_rng(19), n=30), CVSpec(folds=3, shuffle_seed=4))
    [(model, _)] = aspect_regression(task, degrees=(1, 2, 3), alphas=[0.1, 0.01, 0.001])
    assert (model.params.degree, model.params.alpha) == (1, 0.01)
    folds = [f.tolist() for f in task[0][2]]
    assert calls == [(d, [0.1, 0.01, 0.001], [folds]) for d in (1, 2, 3)]


def test_system_folds_keep_each_system_on_one_side():
    systems = [f"s{i // 3}" for i in range(21)]  # 7 systems x 3 trials
    folds = system_folds(systems, CVSpec(folds=5, shuffle_seed=3))
    assert sorted(np.concatenate(folds).tolist()) == list(range(21))
    for held_out in folds:
        train = np.setdiff1d(np.arange(21), held_out)
        assert not {systems[i] for i in held_out} & {systems[i] for i in train}
    # one record per system: the plain record folds
    spec = CVSpec(folds=5, shuffle_seed=8)
    ids = [f"u{i}" for i in range(13)]
    assert [f.tolist() for f in system_folds(ids, spec)] == [
        f.tolist() for f in fold_indices(13, spec)
    ]
    # fewer systems than folds: each system is one fold
    two = system_folds(["a", "b", "a", "b", "b"], spec)
    assert sorted(f.tolist() for f in two) == [[0, 2], [1, 3, 4]]
    with pytest.raises(ValueError):
        system_folds(["a"] * 12, spec)


def test_aspect_regression_many_tasks_equal_one_at_a_time():
    rng = np.random.default_rng(26)
    tasks = [
        _one_task(_aspect_records(rng, n=n, coef_module=c), CVSpec(folds=k, shuffle_seed=k))[0]
        for n, c, k in ((40, 0.6, 3), (25, 0.1, 5), (31, 0.9, 4))
    ]
    kwargs = dict(degrees=(1, 2), alphas=[1e-4, 1e-2, 0.3])
    together = aspect_regression(tasks, **kwargs)
    for task, (model, importance) in zip(tasks, together):
        [(alone, alone_importance)] = aspect_regression([task], **kwargs)
        assert (model.params, model.intercept) == (alone.params, alone.intercept)
        assert np.array_equal(model.coefs, alone.coefs)
        assert importance.weights == alone_importance.weights


def test_aspect_regression_mixed_term_attribution():
    # y = x_mu * x_sigma: one pure IEAcross_p interaction -> full mass there
    rng = np.random.default_rng(18)
    X = rng.uniform(0, 1, size=(150, 5))
    y = 2.0 * X[:, 2] * X[:, 3]
    records = [(X[i].tolist(), float(y[i])) for i in range(150)]
    [(_, importance)] = aspect_regression(
        _one_task(records, CVSpec(folds=3, shuffle_seed=0)), degrees=(2,), alphas=[1e-4]
    )
    assert importance.weights["IEAcross_p"] > 0.9


# ----------------------------------------------------- two-stage pipeline


def _matrix_fixture(rng, shift=0.0):
    observations = []
    for level, base in (("partial", 0.2), ("practical", 0.3), ("complete", 0.4)):
        for hardness_level, bump in (("low", 0.0), ("medium", 0.1), ("high", 0.2)):
            values = base + bump + shift + rng.normal(0, 0.01, size=25)
            observations += [(level, hardness_level, float(v)) for v in values]
    return build_matrix(observations, metric="scc")


def test_hypothesis_battery_shape_and_families():
    tests = matrix_hypothesis_tests(_matrix_fixture(np.random.default_rng(19)))
    assert len(tests) == 27
    by_family = {}
    for t in tests:
        by_family.setdefault(t.family, []).append(t)
    assert {k: len(v) for k, v in by_family.items()} == {
        "hardness": 9, "knowledge": 9, "cross": 9
    }


def test_hypothesis_battery_detects_dominance():
    tests = matrix_hypothesis_tests(_matrix_fixture(np.random.default_rng(20)))
    hardness_tests = [t for t in tests if t.family == "hardness"]
    assert all(t.p_value < 0.05 and t.cles_g2 > 0.5 for t in hardness_tests)
    knowledge_tests = [t for t in tests if t.family == "knowledge"]
    assert all(t.p_value < 0.05 for t in knowledge_tests)


def test_hypothesis_battery_identical_cells_not_significant():
    observations = [
        (level, hardness_level, 0.25)
        for level in ("partial", "practical", "complete")
        for hardness_level in ("low", "medium", "high")
        for _ in range(20)
    ]
    tests = matrix_hypothesis_tests(build_matrix(observations, metric="acc"))
    for t in tests:
        assert t.p_value >= 0.5
        assert t.cles_g1 == 0.5 and t.cles_g2 == 0.5
        assert not t.significant


def test_hypothesis_battery_skips_empty_cells():
    observations = [("partial", "low", 0.1), ("partial", "medium", 0.2)]
    tests = matrix_hypothesis_tests(build_matrix(observations, metric="acc"))
    assert len(tests) == 27
    skipped = [t for t in tests if t.skipped]
    assert skipped and all(t.p_value is None for t in skipped)
    live = [t for t in tests if not t.skipped]
    assert all({t.group1, t.group2} <= {("partial", "low"), ("partial", "medium")} for t in live)


def test_tests_csv_reads_back_one_cell_per_field():
    """`tests_to_csv` is standard CSV: every row has the header's 12 cells,
    though each `hypothesis_id` holds commas, and each cell reads back as its
    `HypothesisTest` value (a group as level|hardness, None as empty)."""
    observations = [
        (level, hardness_level, value)
        for level in ("partial", "practical")
        for hardness_level in ("low", "medium")
        for value in (0.1, 0.2, 0.35)
    ]
    tests = matrix_hypothesis_tests(build_matrix(observations, metric="acc"))
    assert any(t.skipped for t in tests) and not all(t.skipped for t in tests)
    rows = list(csv.reader(io.StringIO(reporting.tests_to_csv(tests))))
    assert rows[0] == [
        "family", "hypothesis_id", "group1", "group2", "alternative", "n1", "n2",
        "p_value", "cles_g1", "cles_g2", "significant", "skipped",
    ]
    assert len(rows) == 1 + len(tests)
    assert all(len(row) == 12 for row in rows)
    for row, t in zip(rows[1:], tests):
        family, hid, g1, g2, alternative, n1, n2, p, c1, c2, significant, skipped = row
        assert (family, hid, alternative) == (t.family, t.hypothesis_id, t.alternative)
        assert (g1, g2) == ("|".join(t.group1), "|".join(t.group2))
        assert (int(n1), int(n2)) == (t.n1, t.n2)
        for cell, value in ((p, t.p_value), (c1, t.cles_g1), (c2, t.cles_g2)):
            assert (cell == "") if value is None else (float(cell) == value)
        assert (significant, skipped) == (str(t.significant), str(t.skipped))


def _pipeline_task(aspect_records, opportunity_records, systems=None):
    """A `two_stage_pipeline` task from unit id -> (aspect row, measured
    hardness); each unit is its own system unless `systems` names them."""
    units = list(aspect_records)
    X = np.array([aspect_records[u][0] for u in units], dtype=float)
    y = np.array([aspect_records[u][1] for u in units], dtype=float)
    return units, systems or units, X, y, opportunity_records


def test_two_stage_pipeline_routes_by_predicted_hardness():
    rng = np.random.default_rng(21)
    aspect_records = {}
    opportunity_records = []
    for i in range(60):
        x = rng.uniform(0, 1, 5)
        hardness_value = 0.9 * x[4] + 0.05  # driven by module count
        system_id = f"sys{i}"
        aspect_records[system_id] = (x.tolist(), float(hardness_value))
        for level, base in (("partial", 0.1), ("complete", 0.3)):
            opportunity_records.append(
                (system_id, level, base + 0.3 * hardness_value + rng.normal(0, 0.01))
            )
    result = two_stage_pipeline(
        {"scc": _pipeline_task(aspect_records, opportunity_records)},
        {"scc": CVSpec(folds=3, shuffle_seed=1)},
        degrees=(1,),
        alphas=[1e-4, 1e-3],
    )["scc"]
    assert result.importance.weights["Module#"] > 0.9
    assert len(result.tests) == 27
    populated = [
        result.matrix.cell("partial", h).count for h in ("low", "medium", "high")
    ]
    assert sum(populated) == 60
    knowledge_tests = [
        t for t in result.tests
        if t.family == "knowledge" and not t.skipped
        and {t.group1[0], t.group2[0]} == {"partial", "complete"}
    ]
    assert knowledge_tests
    assert all(t.p_value < 0.05 for t in knowledge_tests)


def test_two_stage_pipeline_empirical_quartiles_spread_cells():
    from modperf.hardness_opportunity import HardnessMode

    rng = np.random.default_rng(23)
    aspect_records = {}
    opportunity_records = []
    for i in range(60):
        x = rng.uniform(0, 1, 5)
        hardness_value = 0.5 * x[4] + 0.1  # narrow band: fixed mode would lump these
        system_id = f"sys{i}"
        aspect_records[system_id] = (x.tolist(), float(hardness_value))
        opportunity_records.append((system_id, "partial", float(rng.uniform(0, 0.2))))
    result = two_stage_pipeline(
        {"acc": _pipeline_task(aspect_records, opportunity_records)},
        {"acc": CVSpec(folds=3, shuffle_seed=2)},
        degrees=(1,),
        alphas=[1e-4],
        hardness_mode=HardnessMode.EMPIRICAL_QUARTILE,
    )["acc"]
    counts = {
        h: result.matrix.cell("partial", h).count for h in ("low", "medium", "high")
    }
    assert counts["low"] > 0 and counts["medium"] > 0 and counts["high"] > 0
    assert counts["medium"] > counts["low"]  # middle two quartiles pooled


def test_two_stage_pipeline_unknown_system_rejected():
    rng = np.random.default_rng(22)
    aspect_records = {
        f"s{i}": (rng.uniform(0, 1, 5).tolist(), 0.5) for i in range(12)
    }
    with pytest.raises(ValueError):
        two_stage_pipeline(
            {"acc": _pipeline_task(aspect_records, [("ghost", "partial", 0.1)])},
            {"acc": CVSpec(folds=3, shuffle_seed=1)},
            degrees=(1,),
            alphas=[1e-3],
        )


def test_two_stage_pipeline_skip_rule():
    """Stage 1 needs >= 10 units from >= 2 systems; a metric short of either
    is classified by its measured hardness, and the staged metric's result
    does not depend on the skipped ones."""
    rng = np.random.default_rng(24)

    def metric(n, systems):
        aspects = {f"u{i}": (rng.uniform(0, 1, 5).tolist(), float(rng.uniform(0, 1))) for i in range(n)}
        opportunities = [(u, "partial", float(rng.uniform(0, 0.3))) for u in aspects]
        return _pipeline_task(aspects, opportunities, systems)

    tasks = {
        "staged": metric(12, [f"s{i % 4}" for i in range(12)]),
        "few": metric(9, None),
        "one_system": metric(12, ["s0"] * 12),
    }
    kwargs = dict(degrees=(1, 2), alphas=[1e-3, 1e-1])
    cv = {m: CVSpec(folds=3, shuffle_seed=5) for m in tasks}
    results = two_stage_pipeline(tasks, cv, **kwargs)
    for name in ("few", "one_system"):
        units, _, _, measured, _ = tasks[name]
        assert results[name].model is None and results[name].importance is None
        assert [v for v, _ in results[name].hardness_by_unit.values()] == measured.tolist()
        assert list(results[name].hardness_by_unit) == units
    [alone] = two_stage_pipeline({"staged": tasks["staged"]}, cv, **kwargs).values()
    staged = results["staged"]
    assert staged.model is not None
    assert (staged.model.params, staged.model.intercept) == (alone.model.params, alone.model.intercept)
    assert np.array_equal(staged.model.coefs, alone.model.coefs)
    assert staged.importance == alone.importance
    assert staged.hardness_by_unit == alone.hardness_by_unit
    assert staged.matrix == alone.matrix and staged.tests == alone.tests

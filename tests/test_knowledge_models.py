import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from modperf.dataset import (
    MeasurementRecord,
    load_dataset,
    sample_dataset,
    save_dataset,
    training_prefix,
)
from modperf.influence_graph import (
    NodeId,
    NodeKind,
    StructuralAspects,
    derive_knowledge,
    generate_graph,
    intermediate,
    option,
    performance,
)
from modperf import knowledge_models
from modperf.knowledge_models import (
    LEVEL_PARENTS,
    IVModel,
    LevelFit,
    MeanModel,
    ModularPredictor,
    SystemShape,
    design,
    level_curves,
    make_factory,
    prune_parents,
)
from modperf.learners import forest as forest_module
from modperf.learners import (
    CVSpec,
    ForestParams,
    SearchBudget,
    enumerate_candidates,
    fit_forest,
    fit_forests,
    fold_indices,
    mse,
)
from modperf.metrics import acc
from modperf.seeds import derive
from modperf.semantics import PolynomialFunction, SystemSemantics
from modperf.stats import fisher_z_screen

BUDGET = SearchBudget(evaluations=2, seed=7)
CV = CVSpec(folds=2, shuffle_seed=8)
SPACE = {
    "n_trees": [4],
    "max_depth": [4],
    "min_samples_leaf": [1, 2],
    "feature_subsample": [1.0],
}


def _fit(level, records, shape, Z_held, artifacts=None, seed=0, space=SPACE, budget=BUDGET):
    """`level`'s `LevelFit` on `records`, predicting the design rows Z_held."""
    factory = make_factory(level, shape, artifacts, budget, CV, space=space, seed=seed)
    return factory(*design(records), Z_held)


def _model(plan, Z, perf, candidate, tag=("final",)):
    """`plan`'s model for `candidate` on design rows Z, assembled as the
    search's stream assembles it, its forests grown in one `fit_forests`
    call."""
    keys = knowledge_models._keys(plan, candidate, tag)
    forests = fit_forests(*zip(*(knowledge_models._problem(key, Z, perf) for key in keys)))
    return knowledge_models._assemble(plan, Z, iter(forests))


def _stand_in(model):
    """A search whose one level, "", predicts the held-out rows with `model`."""
    return lambda Z, perf, Z_held: {"": LevelFit(model.predict(Z_held), {})}


def _nodes(shape, columns):
    """The graph nodes in the design columns `columns`."""
    nodes = shape.options + shape.ivs
    return tuple(nodes[c] for c in columns)


def _columns(shape, nodes):
    """The design columns holding `nodes`."""
    return [(shape.options + shape.ivs).index(n) for n in nodes]


def _system(seed=41, option_count=5, module_count=2, p_w=0.9):
    aspects = StructuralAspects(
        option_count=option_count, p_w=p_w, mu_a=0.2, sigma_a=0.05, module_count=module_count
    )
    graph = generate_graph(aspects, seed=seed)
    from modperf.semantics import synthesize_semantics

    semantics = synthesize_semantics(graph, seed=seed + 1)
    dataset = sample_dataset(semantics, seed=seed + 2, n_train=200, n_test=120)
    return graph, derive_knowledge(graph), dataset


def _single_option_effect_dataset(n_train=1000, n_test=500):
    """Noiseless system whose performance equals one option's linear effect."""
    aspects = StructuralAspects(
        option_count=12, p_w=1.0, mu_a=0.01, sigma_a=0.0, module_count=1, iv_per_module=1
    )
    graph = generate_graph(aspects, seed=3, iv_to_iv_p=0.0)
    iv = intermediate(0, 0)
    formula = PolynomialFunction(
        tuple(option(0, j) for j in range(12)), [1.0] + [0.0] * 11, np.zeros(66)
    )
    semantics = SystemSemantics(
        graph, {iv: formula}, {performance(0): {iv: 3.0}}, noise_fraction=0.0
    )
    return sample_dataset(semantics, seed=4, n_train=n_train, n_test=n_test)


def test_null_constant_performance():
    _, _, dataset = _system()
    records = [
        MeasurementRecord(r.config, r.iv_values, np.array([42.0])) for r in dataset.train[:60]
    ]
    shape = SystemShape.from_dataset(dataset)
    fit = _fit("null", records, shape, design(dataset.test)[0], seed=1)
    assert np.allclose(fit.predictions, 42.0)


def test_null_learns_single_option_effect():
    dataset = _single_option_effect_dataset()
    shape = SystemShape.from_dataset(dataset)
    predictions = _fit(
        "null", training_prefix(dataset, 1000), shape, design(dataset.test)[0], seed=2
    ).predictions
    actual = np.array([r.perf_values[0] for r in dataset.test])
    assert np.abs(predictions - actual).max() < 1e-9


def test_null_deterministic_under_fixed_seeds():
    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    a = _fit("null", dataset.train, shape, design(dataset.test)[0], seed=5).predictions
    b = _fit("null", dataset.train, shape, design(dataset.test)[0], seed=5).predictions
    assert np.array_equal(a, b)


def test_null_requires_enough_records():
    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    with pytest.raises(ValueError):
        _fit("null", dataset.train[:1], shape, design(dataset.test)[0])


def test_partial_inputs_respect_boundaries():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("partial", shape, artifacts, design(dataset.train)[0])
    for iv, inputs in plan.parents.items():
        [node] = _nodes(shape, [iv])
        parents = _nodes(shape, inputs)
        assert all(p.kind is NodeKind.OPTION and p.module == node.module for p in parents)
    assert _nodes(shape, _perf_inputs(plan)) == shape.ivs
    assert len(plan.parents) == len(shape.ivs)


def test_partial_single_module_matches_null_input_set():
    graph, artifacts, dataset = _system(module_count=1, option_count=9)
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("partial", shape, artifacts, design(dataset.train)[0])
    for inputs in plan.parents.values():
        assert _nodes(shape, inputs) == shape.options


def test_partial_cascade_deterministic():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    Z_test = design(dataset.test)[0]
    a = _fit("partial", dataset.train, shape, Z_test, artifacts, seed=9)
    b = _fit("partial", dataset.train, shape, Z_test, artifacts, seed=9)
    assert np.array_equal(a.predictions, b.predictions)


def test_predict_is_repeatable_and_leaves_design_unchanged():
    """The search's predictions overwrite cascaded IV columns in a copy of
    the held-out rows, so one test design can serve every training size."""
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    assert _plan("partial", shape, artifacts, design(dataset.train)[0]).parents
    Z, _ = design(dataset.test)
    before = Z.copy()
    first = _fit("partial", dataset.train, shape, Z, artifacts, seed=9).predictions
    assert np.array_equal(Z, before)
    assert np.array_equal(_fit("partial", dataset.train, shape, Z, artifacts, seed=9).predictions, first)
    assert np.array_equal(Z, before)


def test_partial_boundaries_must_cover():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    uncovering = dataclasses.replace(
        artifacts, logical_boundaries={0: artifacts.logical_boundaries[0]}
    )
    with pytest.raises(ValueError, match="boundaries do not cover"):
        _fit("partial", dataset.train, shape, design(dataset.test)[0], uncovering)


def test_practical_parents_subset_of_pie():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("practical", shape, artifacts, design(dataset.train)[0])
    pie_parents = {}
    for src, dst in artifacts.potential_influence_edges:
        pie_parents.setdefault(dst, set()).add(src)
    for iv, inputs in plan.parents.items():
        [node] = _nodes(shape, [iv])
        assert set(_nodes(shape, inputs)) <= pie_parents.get(node, set())


def test_complete_parents_subset_of_true_edges():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("complete", shape, artifacts, design(dataset.train)[0])
    true_parents = {}
    for src, dst in artifacts.influence_edges:
        true_parents.setdefault(dst, set()).add(src)
    assert plan.level == "complete"
    for iv, inputs in plan.parents.items():
        [node] = _nodes(shape, [iv])
        assert set(_nodes(shape, inputs)) <= true_parents.get(node, set())


def test_practical_fallback_for_parentless_iv():
    # p_w=0 leaves every IV constant zero; pruning must strip all candidates
    graph, artifacts, dataset = _system(p_w=0.0, seed=55)
    shape = SystemShape.from_dataset(dataset)
    Z, perf = design(dataset.train)
    plan = _plan("practical", shape, artifacts, Z)
    model = _model(plan, Z, perf, enumerate_candidates(SPACE, BUDGET)[0])
    zero_ivs = [
        iv for iv in shape.ivs
        if all(r.iv_values[shape.ivs.index(iv)] == 0.0 for r in dataset.train[:20])
    ]
    assert zero_ivs
    for iv in _columns(shape, zero_ivs):
        assert plan.parents[iv] == ()
        assert model.iv_models[iv].fallback
        assert isinstance(model.iv_models[iv].model, MeanModel)


def test_decoy_pruned_at_type_one_rate():
    rng = np.random.default_rng(10)
    alpha = 0.05
    resamples = 1000
    n = 200
    candidates = {2: (0, 1)}  # IV column: the strong and the decoy option's columns
    pruned_decoy = 0
    for _ in range(resamples):
        strong = rng.integers(0, 2, n).astype(float)
        decoy = rng.integers(0, 2, n).astype(float)
        iv_vals = 0.8 * strong + rng.normal(0, 0.1, n)
        Z = np.column_stack([strong, decoy, iv_vals])
        surviving = prune_parents(Z, candidates, alpha)[2]
        if 1 not in surviving:
            pruned_decoy += 1
    rate = pruned_decoy / resamples
    sigma = np.sqrt(alpha * (1 - alpha) / resamples)
    assert rate >= 1 - alpha - 3 * sigma


def test_strong_parent_retained():
    rng = np.random.default_rng(11)
    n = 1000
    candidates = {1: (0,)}
    retained = 0
    resamples = 200
    for _ in range(resamples):
        x = rng.integers(0, 2, n).astype(float)
        iv_vals = 0.5 * x + rng.normal(0, 0.2, n)
        Z = np.column_stack([x, iv_vals])
        if 0 in prune_parents(Z, candidates, 0.05)[1]:
            retained += 1
    assert retained / resamples >= 0.99


def test_prune_parents_agrees_with_scalar_fisher_z():
    from statistics import NormalDist

    rng = np.random.default_rng(12)
    n = 150
    bits = rng.integers(0, 2, (n, 4)).astype(float)
    iv_vals = 0.3 * bits[:, 0] + 0.05 * bits[:, 1] + rng.normal(0, 0.15, n)
    Z = np.column_stack([bits, iv_vals])
    surviving = prune_parents(Z, {4: (0, 1, 2, 3)}, 0.05)[4]
    critical = NormalDist().inv_cdf(1 - 0.05 / 2)
    screen = fisher_z_screen(bits, iv_vals, 0.05)
    for j in range(4):
        # scalar Fisher-Z from the definition: sqrt(n - 3) |artanh r|
        r = np.corrcoef(bits[:, j], iv_vals)[0, 1]
        scalar = math.sqrt(n - 3) * abs(math.atanh(r)) > critical
        assert (j in surviving) == scalar == screen[j]


def test_ideal_consumes_true_ivs_and_recovers_linear_perf():
    graph, artifacts, dataset = _system(seed=61)
    shape = SystemShape.from_dataset(dataset)
    predictions = _fit(
        "ideal", training_prefix(dataset, 200), shape, design(dataset.test)[0], seed=6
    ).predictions
    actual = np.array([r.perf_values[0] for r in dataset.test])
    assert acc(predictions, actual) > 0.9


def test_ideal_no_signal_when_perf_ignores_ivs():
    _, _, dataset = _system()
    rng = np.random.default_rng(13)
    noise = rng.normal(size=len(dataset.train))
    records = [
        MeasurementRecord(r.config, r.iv_values, np.array([noise[i]]))
        for i, r in enumerate(dataset.train)
    ]
    shape = SystemShape.from_dataset(dataset)
    predictions = _fit("ideal", records, shape, design(dataset.test)[0], seed=7).predictions
    assert np.abs(predictions).max() <= np.abs(noise).max() + 1e-9


def test_identical_candidates_across_levels():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    Z_test = design(dataset.test)[0]
    null = _fit("null", dataset.train, shape, Z_test, seed=1)
    ideal = _fit("ideal", dataset.train, shape, Z_test, seed=2)
    partial = _fit("partial", dataset.train, shape, Z_test, artifacts, seed=3)
    assert null.search_meta["candidates"] == ideal.search_meta["candidates"]
    assert null.search_meta["candidates"] == partial.search_meta["candidates"]
    assert null.search_meta["budget"] == partial.search_meta["budget"] == BUDGET.evaluations


def test_paper_scale_space_exercises_ranges():
    from modperf.learners import forest_search_space

    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    space = forest_search_space(len(shape.options), scale="paper")
    fit = _fit(
        "null", dataset.train[:60], shape, design(dataset.test)[0], seed=12, space=space,
        budget=SearchBudget(evaluations=2, seed=3),
    )
    chosen = fit.search_meta["chosen"]
    assert 50 <= chosen["n_trees"] <= 300
    assert 4 <= chosen["max_depth"] <= 24
    assert np.isfinite(fit.predictions).all()


class _Oracle:
    """Predictor that looks each design row up among the dataset's test
    records and returns its true performance."""

    def __init__(self, dataset):
        Z, perf = design(dataset.test)
        self.perf = {row.tobytes(): p for row, p in zip(Z, perf)}

    def predict(self, Z):
        return np.array([self.perf[row.tobytes()] for row in Z])


class _Constant:
    def predict(self, Z):
        return np.full(len(Z), 5.0)


def test_efficacy_curve_perfect_predictor():
    _, _, dataset = _system()
    oracle = _Oracle(dataset)
    points = level_curves(_stand_in(oracle), dataset, ("scc",), (20, 50, 100))[""]
    assert [p.n for p in points] == [20, 50, 100]
    assert [p.efficacies["scc"] for p in points] == [pytest.approx(1.0)] * 3


def test_efficacy_curve_constant_predictor_degenerate_scc():
    _, _, dataset = _system()
    points = level_curves(_stand_in(_Constant()), dataset, ("scc",), (20, 50))[""]
    assert [p.efficacies["scc"] for p in points] == [0.0, 0.0]


def test_efficacy_curves_isolate_fit_failures():
    _, _, dataset = _system()

    def search(Z, perf, Z_held):
        if len(Z) == 50:
            return {"": RuntimeError("boom")}
        return _stand_in(_Oracle(dataset))(Z, perf, Z_held)

    points = level_curves(search, dataset, ("acc",), (20, 50, 100))[""]
    assert points[0].error is None
    assert points[1].error is not None and "boom" in points[1].error
    assert points[2].efficacies["acc"] == pytest.approx(1.0)


def test_efficacy_curves_reject_oversized_request():
    _, _, dataset = _system()
    with pytest.raises(ValueError):
        level_curves(_stand_in(_Oracle(dataset)), dataset, ("acc",), (20, 10_000))


def test_make_factory_levels_and_validation():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    with pytest.raises(ValueError):
        make_factory("partial", shape, None, BUDGET, CV, space=SPACE)
    Z_test = design(dataset.test)[0]
    with pytest.raises(ValueError):
        make_factory("quantum", shape, artifacts, BUDGET, CV, space=SPACE)(
            *design(dataset.train), Z_test
        )
    factory = make_factory("complete", shape, artifacts, BUDGET, CV, space=SPACE, seed=4)
    fit = factory(*design(dataset.train[:80]), Z_test)
    assert isinstance(fit, LevelFit) and fit.predictions.shape == (len(dataset.test),)


def test_level_table_keys_all_fit():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    assert knowledge_models.LEVELS == ("null", "partial", "practical", "complete", "ideal")
    assert tuple(LEVEL_PARENTS) == knowledge_models.LEVELS
    Z = design(dataset.train[:80])[0]
    for level in LEVEL_PARENTS:
        fit = _fit(level, dataset.train[:80], shape, design(dataset.test)[0], artifacts, seed=4)
        plan = _plan(level, shape, artifacts, Z, seed=4)
        assert plan.level == level
        assert np.isfinite(fit.predictions).all()
        cascade = LEVEL_PARENTS[level] is not None
        assert set(_nodes(shape, plan.parents)) == (set(shape.ivs) if cascade else set())
        assert _nodes(shape, _perf_inputs(plan)) == (shape.options if level == "null" else shape.ivs)
    with pytest.raises(ValueError, match="unknown level"):
        make_factory("quantum", shape, artifacts, BUDGET, CV, space=SPACE)


def test_search_constant_loss_returns_first_candidate():
    _, artifacts, dataset = _system()
    records = [
        MeasurementRecord(r.config, r.iv_values, np.array([42.0])) for r in dataset.train[:60]
    ]
    shape = SystemShape.from_dataset(dataset)
    budget = SearchBudget(evaluations=5, seed=0)
    for level in ("null", "partial"):
        meta = _fit(
            level, records, shape, design(dataset.test)[0], artifacts, seed=1, budget=budget
        ).search_meta
        assert meta["cv_loss"] == 0.0
        assert meta["candidates"] == enumerate_candidates(SPACE, budget)
        assert meta["chosen"] == meta["candidates"][0]


def test_search_picks_lowest_mean_cv_loss(monkeypatch):
    """Each candidate's forest predicts its max_depth everywhere, so on
    constant perf 5 its CV loss is (depth - 5)^2: the search must pick depth 5,
    and on the tie between the two depth-5 candidates the first of them."""

    class DepthModel:
        def __init__(self, depth):
            self.depth = depth

        def predict(self, X):
            return np.full(len(X), float(self.depth))

    monkeypatch.setattr(
        knowledge_models,
        "fit_forests",
        lambda Xs, ys, params_list: [DepthModel(p.max_depth) for p in params_list],
    )
    _, _, dataset = _system()
    records = [
        MeasurementRecord(r.config, r.iv_values, np.array([5.0])) for r in dataset.train[:40]
    ]
    shape = SystemShape.from_dataset(dataset)
    space = dict(SPACE, max_depth=[2, 5, 8], min_samples_leaf=[1, 2])
    meta = _fit(
        "null", records, shape, design(dataset.test)[0], space=space,
        budget=SearchBudget(evaluations=6),
    ).search_meta
    assert [c["max_depth"] for c in meta["candidates"]] == [2, 2, 5, 5, 8, 8]
    assert meta["chosen"] == meta["candidates"][2]
    assert meta["cv_loss"] == 0.0
    assert meta["budget"] == 6


def test_search_cv_loss_is_mean_held_out_mse(monkeypatch):
    """With a forest stand-in that predicts its training mean, the reported
    CV loss must be the fold mean of held-out MSEs over the shared folds."""

    monkeypatch.setattr(
        knowledge_models,
        "fit_forests",
        lambda Xs, ys, params_list: [MeanModel(np.mean(y)) for y in ys],
    )
    _, _, dataset = _system()
    records = dataset.train[:50]
    perf = np.array([r.perf_values[0] for r in records])
    expected = []
    for held_out in fold_indices(len(records), CV):
        train = np.setdiff1d(np.arange(len(records)), held_out)
        expected.append(mse(perf[held_out], np.full(len(held_out), perf[train].mean())))
    meta = _fit(
        "ideal", records, SystemShape.from_dataset(dataset), design(dataset.test)[0]
    ).search_meta
    assert meta["cv_loss"] == pytest.approx(np.mean(expected), rel=1e-12)


def _reference_parents(level, shape, artifacts, Z):
    """Each IV's parents at `level` by `NodeId`, from the levels' definitions
    rather than the search's table: none for `null` and `ideal`, the own
    module's options for `partial`, and for `practical` and `complete` the
    sources of the potential or true influence edges into the IV, in sorted
    order, that pass `stats.fisher_z_screen` on design rows Z."""
    if level in ("null", "ideal"):
        return None
    if level == "partial":
        return {iv: options for options, ivs in artifacts.logical_boundaries.values() for iv in ivs}
    edges = {
        "practical": artifacts.potential_influence_edges, "complete": artifacts.influence_edges
    }[level]
    parents = {}
    for iv in shape.ivs:
        candidates = sorted(src for src, dst in edges if dst == iv)
        keep = fisher_z_screen(
            Z.take(_columns(shape, candidates), axis=1),
            Z[:, _columns(shape, [iv])[0]],
            knowledge_models.DEFAULT_ALPHA_CI,
        )
        parents[iv] = tuple(p for p, k in zip(candidates, keep) if k)
    return parents


def _reference_fit_level(level, shape, parents_by_iv, order, seed, Z, perf, candidate, tag):
    """One level's model for one candidate on design rows Z, as the search
    fitted it before it batched its forests: the IV forests in one
    `fit_forests` call, the perf forest in its own `fit_forest` call. Every
    forest is seeded by its problem: derive(seed, target, *tag,
    min_samples_leaf, feature_subsample.hex())."""
    family = (candidate["min_samples_leaf"], float(candidate["feature_subsample"]).hex())

    def params(forest_seed):
        return ForestParams(
            n_trees=int(candidate["n_trees"]),
            max_depth=int(candidate["max_depth"]),
            min_samples_leaf=int(candidate["min_samples_leaf"]),
            feature_subsample=float(candidate["feature_subsample"]),
            bootstrap_seed=forest_seed,
        )

    fitted = [iv for iv in order if parents_by_iv[iv]]
    forests = fit_forests(
        [Z.take(_columns(shape, parents_by_iv[iv]), axis=1) for iv in fitted],
        [Z[:, _columns(shape, [iv])[0]] for iv in fitted],
        [params(derive(seed, iv.encode(), *tag, *family)) for iv in fitted],
    )
    forest_of = dict(zip(fitted, forests))
    iv_models = {}
    for iv in order:
        [column] = _columns(shape, [iv])
        if iv in forest_of:
            inputs = tuple(_columns(shape, parents_by_iv[iv]))
            iv_models[column] = IVModel(column, inputs, forest_of[iv])
        else:
            iv_models[column] = IVModel(column, (), MeanModel(Z[:, column].mean()), fallback=True)
    perf_inputs = tuple(_columns(shape, shape.options if level == "null" else shape.ivs))
    perf_model = fit_forest(
        Z.take(perf_inputs, axis=1), perf, params(derive(seed, "perf", *tag, *family))
    )
    return ModularPredictor(level, perf_model, perf_inputs, iv_models)


def _reference_cross_validate(fit_fn, X, y, folds):
    losses = []
    for f, held_out in enumerate(folds):
        train = np.ones(len(y), dtype=bool)
        train[held_out] = False
        model = fit_fn(X[train], y[train], f)
        losses.append(mse(y[held_out], _reference_predict(model, X[held_out])))
    return float(np.mean(losses))


def _reference_search(level, shape, artifacts, budget, space, seed, records):
    """Every candidate's CV loss and the refitted model, one fit per
    (candidate, fold) as the search ran before it batched its forests."""
    Z, perf = design(records)
    parents = _reference_parents(level, shape, artifacts, Z)
    order = () if parents is None else tuple(sorted(parents))
    candidates = enumerate_candidates(space, budget)
    folds = fold_indices(len(records), CV)
    losses = [
        _reference_cross_validate(
            lambda X, y, f: _reference_fit_level(
                level, shape, parents, order, seed, X, y, c, ("cv", f)
            ),
            Z,
            perf,
            folds,
        )
        for c in candidates
    ]
    best = int(np.argmin(losses))
    model = _reference_fit_level(
        level, shape, parents, order, seed, Z, perf, candidates[best], ("final",)
    )
    return losses, model


SEARCH_SPACE = {
    "n_trees": [3, 6],
    "max_depth": [3, 6],
    "min_samples_leaf": [1, 3],
    "feature_subsample": [1.0, 0.5],
}
SEARCH_BUDGET = SearchBudget(evaluations=3, seed=0)
SEARCH_SEED = 5


def _search_system():
    """61 records of a system whose pruned levels leave IVs without parents.
    Noise on the IVs the system holds constant makes those fallbacks' means
    differ between the folds and the refit."""
    _, artifacts, dataset = _system(p_w=0.2)
    ivs = np.array([r.iv_values for r in dataset.train[:61]])
    noise = np.random.default_rng(1).normal(size=ivs.shape) * (np.ptp(ivs, axis=0) == 0)
    records = [
        MeasurementRecord(r.config, r.iv_values + e, r.perf_values)
        for r, e in zip(dataset.train[:61], noise)
    ]
    return artifacts, dataset, records, noise


def _search(levels, artifacts, dataset):
    shape = SystemShape.from_dataset(dataset)
    return knowledge_models.make_search(
        SEARCH_SEED, levels, shape, artifacts, SEARCH_BUDGET, CV, SEARCH_SPACE
    )


@functools.lru_cache(maxsize=None)
def _search_references():
    """Each level's per-(candidate, fold) reference CV losses and refit."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    return {
        level: _reference_search(
            level, shape, artifacts, SEARCH_BUDGET, SEARCH_SPACE, SEARCH_SEED, records
        )
        for level in knowledge_models.LEVELS
    }


def _plan(level, shape, artifacts, Z, seed=SEARCH_SEED, alpha=knowledge_models.DEFAULT_ALPHA_CI):
    """The plan the search makes for `level` on design rows Z."""
    knowledge = knowledge_models._level_knowledge(level, shape, artifacts)
    codes = tuple(node.encode() for node in shape.options + shape.ivs)
    return knowledge_models._plan(seed, level, knowledge, codes, Z, alpha)


def _perf_inputs(plan):
    """The perf forest's input columns in `plan`."""
    return plan.forests[-1][1]


def _level_forests(levels, artifacts, shape, records):
    """Each level's forests as (target, input columns) pairs, from the plan
    the search makes on `records`."""
    Z, _ = design(records)
    return {
        level: {(target, inputs) for target, inputs, _ in _plan(level, shape, artifacts, Z).forests}
        for level in levels
    }


@pytest.mark.parametrize("level", knowledge_models.LEVELS)
def test_search_grows_every_forest_in_two_calls(monkeypatch, level):
    """The all-level search gives each level the per-(candidate, fold)
    reference's CV losses, chosen candidate and final predictions exactly,
    from one stream and one `fit_forests` call for every CV fit of every
    level and one of each for the five refits, whichever level leads the
    stream. Each call grows every distinct problem once: per (candidate,
    fold), the union of the levels' forests. The candidates differ in every
    forest setting, 61 records give folds of 31 and 30 rows, and the pruned
    levels leave IVs without parents (`_search_system`)."""
    artifacts, dataset, records, noise = _search_system()
    shape = SystemShape.from_dataset(dataset)
    candidates = enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET)
    assert all(len({c[k] for c in candidates}) == 2 for k in SEARCH_SPACE)
    references = _search_references()
    lead = knowledge_models.LEVELS.index(level)
    levels = knowledge_models.LEVELS[lead:] + knowledge_models.LEVELS[:lead]
    forests = _level_forests(levels, artifacts, shape, records)
    distinct = set().union(*forests.values())
    assert len(distinct) < sum(map(len, forests.values()))

    calls, streams = [], []
    real_fit, real_stream = knowledge_models.fit_forests, knowledge_models._held_out_predictions
    monkeypatch.setattr(
        knowledge_models, "fit_forests", lambda *args: calls.append(len(args[0])) or real_fit(*args)
    )
    monkeypatch.setattr(
        knowledge_models,
        "_held_out_predictions",
        lambda jobs: streams.append(len(jobs)) or real_stream(jobs),
    )
    Z, perf = design(records)
    Z_test = design(dataset.test)[0]
    got = _search(levels, artifacts, dataset)(Z, perf, Z_test)

    assert list(got) == list(levels)
    assert streams == [len(candidates) * CV.folds * len(levels), len(levels)]
    assert len(calls) == 2 and calls[0] == len(candidates) * CV.folds * len(distinct)
    chosen = {lv: int(np.argmin(references[lv][0])) for lv in levels}
    assert calls[1] == len({(chosen[lv], *f) for lv in levels for f in forests[lv]})
    for lv in levels:
        want_losses, want = references[lv]
        meta = got[lv].search_meta
        assert meta["cv_losses"] == want_losses
        assert meta["cv_loss"] == min(want_losses)
        assert meta["chosen"] == candidates[int(np.argmin(want_losses))]
        assert np.array_equal(got[lv].predictions, _reference_predict(want, Z_test))
        if lv in ("practical", "complete"):
            parents = _plan(lv, shape, artifacts, Z).parents
            fallbacks = [iv for iv, inputs in parents.items() if not inputs]
            assert 0 < len(fallbacks) < len(shape.ivs)
            assert any(np.ptp(noise[:, iv - len(shape.options)]) > 0 for iv in fallbacks)


def test_one_level_search_equals_its_reference(monkeypatch):
    """`make_factory` is the one-level call of the search: two `fit_forests`
    calls, and the reference's losses and final predictions. The reference
    finds `complete`'s parents by `NodeId` itself (`_reference_parents`), so
    this pins the search's integer level table."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    want_losses, want = _search_references()["complete"]
    calls = []
    real_fit = knowledge_models.fit_forests
    monkeypatch.setattr(
        knowledge_models, "fit_forests", lambda *args: calls.append(len(args[0])) or real_fit(*args)
    )
    factory = make_factory(
        "complete", shape, artifacts, SEARCH_BUDGET, CV, SEARCH_SPACE, seed=SEARCH_SEED
    )
    Z_test = design(dataset.test)[0]
    got = factory(*design(records), Z_test)
    assert len(calls) == 2
    assert got.search_meta["cv_losses"] == want_losses
    assert np.array_equal(got.predictions, _reference_predict(want, Z_test))


def test_tiny_chunk_budget_changes_nothing(monkeypatch):
    """Cutting the CV and final streams into chunks, also inside one model's
    forests, gives the one-chunk losses and final predictions, and no
    chunk's forests, the final refits' included, hold more bootstrap-row x
    tree cells than the budget."""
    artifacts, dataset, records, _ = _search_system()
    levels = knowledge_models.LEVELS
    Z, perf = design(records)
    Z_test = design(dataset.test)[0]
    whole = _search(levels, artifacts, dataset)(Z, perf, Z_test)
    largest = 61 * max(c["n_trees"] for c in enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET))
    budget = 2 * largest
    chunks = []
    real_fit = knowledge_models.fit_forests

    def spy(Xs, ys, params_list):
        chunks.append(sum(len(y) * p.n_trees for y, p in zip(ys, params_list)))
        return real_fit(Xs, ys, params_list)

    monkeypatch.setattr(knowledge_models, "fit_forests", spy)
    monkeypatch.setattr(knowledge_models, "_CHUNK_CELLS", budget)
    cut = _search(levels, artifacts, dataset)(Z, perf, Z_test)
    assert len(chunks) > 10
    assert max(chunks) <= budget
    for level in levels:
        assert cut[level].search_meta["cv_losses"] == whole[level].search_meta["cv_losses"]
        assert np.array_equal(cut[level].predictions, whole[level].predictions)


def test_failing_parent_finder_marks_only_its_level():
    """Boundaries that leave IVs uncovered fail `partial` at every size; the
    other levels' curves equal those of a search without `partial`."""
    _, artifacts, dataset = _system(p_w=0.2)
    uncovering = dataclasses.replace(
        artifacts, logical_boundaries={0: artifacts.logical_boundaries[0]}
    )
    sizes = (20, 50, 100)
    curves = knowledge_models.level_curves(
        _search(knowledge_models.LEVELS, uncovering, dataset), dataset, ("acc", "scc"), sizes
    )
    others = tuple(lv for lv in knowledge_models.LEVELS if lv != "partial")
    want = knowledge_models.level_curves(
        _search(others, uncovering, dataset), dataset, ("acc", "scc"), sizes
    )
    assert list(curves) == list(knowledge_models.LEVELS)
    assert [p.n for p in curves["partial"]] == list(sizes)
    for point in curves["partial"]:
        assert point.efficacies == {} and "boundaries do not cover" in point.error
    for level in others:
        assert curves[level] == want[level]
        assert all(p.error is None and set(p.efficacies) == {"acc", "scc"} for p in curves[level])


def _reference_predict(model, Z):
    """A model's predictions as it made them before the batched walk: one IV
    at a time in evaluation order, each through its own `predict`."""
    Z = np.array(Z, dtype=float)
    for column, iv_model in model.iv_models.items():
        Z[:, column] = iv_model.model.predict(Z.take(iv_model.inputs, axis=1))
    return model.perf_model.predict(Z.take(model.perf_inputs, axis=1))


def test_predict_models_equals_one_model_at_a_time(monkeypatch):
    """One batched cascade over many models, each on its own rows, equals
    each model's sequential cascade bit for bit: every level, several
    candidates (so tree counts and depths differ within a walk), `MeanModel`
    fallbacks, a `MeanModel` stand-in, and walks cut small."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = design(records)
    Z_test = design(dataset.test)[0]
    models = []
    for k, level in enumerate(knowledge_models.LEVELS):
        plan = _plan(level, shape, artifacts, Z, seed=k)
        candidates = enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET)
        models += [_model(plan, Z, perf, c) for c in candidates]
    assert any(m.fallback for model in models for m in model.iv_models.values())
    constants = {
        iv: IVModel(iv, m.inputs, MeanModel(k))
        for k, (iv, m) in enumerate(models[4].iv_models.items())
    }
    models.append(dataclasses.replace(models[4], perf_model=MeanModel(3.5), iv_models=constants))
    rows = [Z_test[k % 7 :: 1 + k % 3] for k in range(len(models))]
    want = [_reference_predict(m, Z) for m, Z in zip(models, rows)]
    for walk_entries in (forest_module._WALK_ENTRIES, 500):
        monkeypatch.setattr(forest_module, "_WALK_ENTRIES", walk_entries)
        got = knowledge_models.predict_models(models, rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_one_perf_forest_serves_the_four_iv_input_levels(monkeypatch):
    """One (candidate, fold) of an all-level search grows one perf forest on
    the measured IVs, and the models of `partial`, `practical`, `complete`
    and `ideal` hold that one `FittedForest`; `null`'s perf forest reads the
    options and stays its own. Across the whole search, every (candidate,
    fold) grows exactly one perf forest on the IVs."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    widths, batches = [], []
    real_fit, real_predict = knowledge_models.fit_forests, knowledge_models.predict_models

    def spy(Xs, ys, params_list):
        widths.append([(X.shape[1], p.bootstrap_seed) for X, p in zip(Xs, params_list)])
        return real_fit(Xs, ys, params_list)

    monkeypatch.setattr(knowledge_models, "fit_forests", spy)
    monkeypatch.setattr(
        knowledge_models, "predict_models", lambda ms, Zs: batches.append(ms) or real_predict(ms, Zs)
    )
    _search(knowledge_models.LEVELS, artifacts, dataset)(*design(records), design(dataset.test)[0])
    # the CV stream is one chunk; its jobs run candidate-major, then fold,
    # then level, so its first models are candidate 0's on fold 0
    null, *others = batches[0][: len(knowledge_models.LEVELS)]
    assert [m.level for m in others] == ["partial", "practical", "complete", "ideal"]
    assert all(m.perf_model is others[0].perf_model for m in others)
    assert null.perf_model is not others[0].perf_model
    assert others[0].perf_model.n_features == len(shape.ivs)

    for c in enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET):
        family = (c["min_samples_leaf"], float(c["feature_subsample"]).hex())
        for f in range(CV.folds):
            seed = derive(SEARCH_SEED, "perf", "cv", f, *family)
            perf_forests = [w for w, s in widths[0] if s == seed]
            assert sorted(perf_forests) == sorted([len(shape.options), len(shape.ivs)])


def test_problem_keys_merge_only_equal_problems():
    """Two forests of a search share a key exactly when they pose one
    problem: the same target, input columns, rows tag and candidate. Inputs,
    tag or family apart keeps them apart; candidates of one family differ
    only in their key's `n_trees` or `max_depth`, not in their seed. That
    the deduplicated search equals the per-problem reference is
    `test_search_grows_every_forest_in_two_calls`."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, _ = design(records)
    space = dict(SEARCH_SPACE, n_trees=[3, 6, 12])
    candidates = enumerate_candidates(space, SearchBudget(evaluations=24))
    assert len(candidates) == 24
    plans = [_plan(level, shape, artifacts, Z) for level in knowledge_models.LEVELS]
    problems = {}  # key -> every (target, inputs, tag, candidate) it stands for
    for plan in plans:
        for c in candidates:
            for tag in [("cv", 0), ("cv", 1), ("final",)]:
                for key, (target, inputs, _) in zip(
                    knowledge_models._keys(plan, c, tag), plan.forests
                ):
                    problems.setdefault(key, set()).add(
                        (target, inputs, tag, tuple(sorted(c.items())))
                    )
                    family = (c["min_samples_leaf"], float(c["feature_subsample"]).hex())
                    assert key.params.bootstrap_seed == derive(SEARCH_SEED, target, *tag, *family)
    assert all(len(merged) == 1 for merged in problems.values())
    assert len(set().union(*problems.values())) == len(problems)
    assert len(problems) < sum(len(plan.forests) for plan in plans) * len(candidates) * 3

    seeds_by_family = {}  # members of one family that one seed serves
    for key in problems:
        p = key.params
        group = (p.bootstrap_seed, key.column, key.inputs, key.tag)
        seeds_by_family.setdefault(group, set()).add((p.n_trees, p.max_depth))
    assert max(map(len, seeds_by_family.values())) == 3 * 2  # n_trees x max_depth


def test_candidates_of_one_family_share_bootstrap_rows():
    """Two candidates of one family, 6 and 12 trees, get one seed for a
    problem, and the 6-tree forest's node tables equal the first 6 trees of
    the 12-tree fit: a family can be read off its largest member."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = design(records)
    plan = _plan("practical", shape, artifacts, Z)
    base = {"max_depth": 6, "min_samples_leaf": 1, "feature_subsample": 0.5}
    small, large = (
        knowledge_models._keys(plan, dict(base, n_trees=n), ("final",)) for n in (6, 12)
    )
    assert len(small) == len(plan.forests) > 2
    for a, b in zip(small, large):
        assert a.params.bootstrap_seed == b.params.bootstrap_seed
        six, twelve = fit_forests(
            *zip(knowledge_models._problem(a, Z, perf), knowledge_models._problem(b, Z, perf))
        )
        stop = six.offsets[-1]
        assert np.array_equal(six.offsets, twelve.offsets[:7])
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(six, name), getattr(twelve, name)[:stop])


def test_make_factory_equals_its_level_of_the_all_level_search():
    """`make_factory(level, seed=s)` fits what the all-level search with seed
    s fits for that level: losses, chosen candidate and test predictions."""
    artifacts, dataset, records, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z_test = design(dataset.test)[0]
    Z, perf = design(records)
    every = _search(knowledge_models.LEVELS, artifacts, dataset)(Z, perf, Z_test)
    for level in knowledge_models.LEVELS:
        one = make_factory(
            level, shape, artifacts, SEARCH_BUDGET, CV, SEARCH_SPACE, seed=SEARCH_SEED
        )(Z, perf, Z_test)
        assert one.search_meta == every[level].search_meta
        assert np.array_equal(one.predictions, every[level].predictions)


def test_shape_rejects_names_out_of_canonical_order(tmp_path):
    """Design columns are evaluated in their order, so a dataset whose
    manifest lists two IV columns swapped is refused, as are options out of
    order."""
    _, _, dataset = _system()
    save_dataset(dataset, tmp_path, semantics_file="semantics.json")
    assert SystemShape.from_dataset(load_dataset(tmp_path)).ivs == tuple(
        NodeId.decode(n) for n in dataset.iv_names
    )
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    ivs = manifest["columns"]["ivs"]
    ivs[0], ivs[1] = ivs[1], ivs[0]
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="IV names are not in canonical NodeId order"):
        SystemShape.from_dataset(load_dataset(tmp_path))
    with pytest.raises(ValueError, match="option names are not in canonical NodeId order"):
        SystemShape(options=(option(0, 1), option(0, 0)), ivs=(intermediate(0, 0),))


def test_search_and_prediction_never_touch_node_ids(monkeypatch):
    """Past `make_search`'s construction the search works on design columns:
    with `NodeId` hashing and equality made to raise, every level still fits
    and predicts."""
    artifacts, dataset, records, _ = _search_system()
    search = _search(knowledge_models.LEVELS, artifacts, dataset)
    Z, perf = design(records)
    Z_test = design(dataset.test)[0]

    def forbidden(*args):
        raise AssertionError("NodeId hashed or compared")

    monkeypatch.setattr(NodeId, "__hash__", forbidden)
    monkeypatch.setattr(NodeId, "__eq__", forbidden)
    fits = search(Z, perf, Z_test)
    assert all(isinstance(f, LevelFit) for f in fits.values()), fits
    assert all(np.isfinite(f.predictions).all() for f in fits.values())

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from modperf.dataset import load_dataset, sample_dataset, save_dataset
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
    ModularPredictor,
    SystemShape,
    design,
    level_curves,
    make_factory,
    prune_parents,
)
from modperf.learners import forest as forest_module
from modperf.learners import (
    FittedForest,
    ForestParams,
    SearchBudget,
    bootstrap_rows,
    enumerate_candidates,
    fit_forest,
    fit_forests,
    mse,
)
from modperf.metrics import acc
from modperf.seeds import derive
from modperf.semantics import PolynomialFunction, SystemSemantics
from modperf.stats import fisher_z_screen

BUDGET = SearchBudget(evaluations=2, seed=7)
SPACE = {
    "n_trees": [4],
    "max_depth": [4],
    "min_samples_leaf": [1, 2],
    "feature_subsample": [1.0],
}


def _train(dataset, n=None):
    """The design rows and targets of the first n training rows (default:
    all of them)."""
    Z, perf = design(dataset)
    n = dataset.n_train if n is None else n
    return Z[:n], perf[:n]


def _test_rows(dataset):
    """The design rows of the test rows."""
    return design(dataset)[0][dataset.n_train:]


def _fit(level, rows, shape, Z_held, artifacts=None, seed=0, space=SPACE, budget=BUDGET):
    """`level`'s `LevelFit` on the training design rows and targets `rows`,
    predicting the design rows Z_held."""
    factory = make_factory(level, shape, artifacts, budget, space=space, seed=seed)
    return factory(*rows, Z_held)


def _model(plan, Z, perf, candidate):
    """`plan`'s model for `candidate` on design rows Z, assembled as the
    search's stream assembles it, its forests grown in one `fit_forests`
    call."""
    keys = knowledge_models._keys(plan, candidate)
    forests = fit_forests(*zip(*(knowledge_models._problem(key, Z, perf) for key in keys)))
    return knowledge_models._assemble(plan, forests)


def _constant_forest(value, width, params):
    """A forest of `params.n_trees` root-only trees over `width` columns,
    each holding `value`: a forest that predicts `value` on every row,
    weighted or not."""
    n_trees = params.n_trees
    return FittedForest(
        params, width, np.arange(n_trees + 1), np.full(n_trees, -1), np.zeros(n_trees),
        np.full(n_trees, -1), np.full(n_trees, -1), np.full(n_trees, float(value)),
    )


def _parents(plan):
    """Each modelled IV's input columns in `plan`, in evaluation order; an IV
    left without parents has none."""
    return {column: inputs for _, inputs, column in plan.forests[:-1]}


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
    Z, _ = _train(dataset, 60)
    shape = SystemShape.from_dataset(dataset)
    fit = _fit("null", (Z, np.full(60, 42.0)), shape, _test_rows(dataset), seed=1)
    assert np.allclose(fit.predictions, 42.0)


def test_null_learns_single_option_effect():
    dataset = _single_option_effect_dataset()
    shape = SystemShape.from_dataset(dataset)
    predictions = _fit(
        "null", _train(dataset, 1000), shape, _test_rows(dataset), seed=2
    ).predictions
    actual = dataset.perf[dataset.n_train:, 0]
    assert np.abs(predictions - actual).max() < 1e-9


def test_null_deterministic_under_fixed_seeds():
    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    a = _fit("null", _train(dataset), shape, _test_rows(dataset), seed=5).predictions
    b = _fit("null", _train(dataset), shape, _test_rows(dataset), seed=5).predictions
    assert np.array_equal(a, b)


def test_null_requires_enough_records():
    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    with pytest.raises(ValueError):
        _fit("null", _train(dataset, 1), shape, _test_rows(dataset))


def test_partial_inputs_respect_boundaries():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("partial", shape, artifacts, _train(dataset)[0])
    for iv, inputs in _parents(plan).items():
        [node] = _nodes(shape, [iv])
        parents = _nodes(shape, inputs)
        assert all(p.kind is NodeKind.OPTION and p.module == node.module for p in parents)
    assert _nodes(shape, _perf_inputs(plan)) == shape.ivs
    assert len(_parents(plan)) == len(shape.ivs)


def test_partial_single_module_matches_null_input_set():
    graph, artifacts, dataset = _system(module_count=1, option_count=9)
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("partial", shape, artifacts, _train(dataset)[0])
    for inputs in _parents(plan).values():
        assert _nodes(shape, inputs) == shape.options


def test_partial_cascade_deterministic():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    Z_test = _test_rows(dataset)
    a = _fit("partial", _train(dataset), shape, Z_test, artifacts, seed=9)
    b = _fit("partial", _train(dataset), shape, Z_test, artifacts, seed=9)
    assert np.array_equal(a.predictions, b.predictions)


def test_predict_is_repeatable_and_leaves_design_unchanged():
    """The search's predictions overwrite cascaded IV columns in a copy of
    the held-out rows, so one test design can serve every training size."""
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    assert _parents(_plan("partial", shape, artifacts, _train(dataset)[0]))
    Z = _test_rows(dataset)
    before = Z.copy()
    first = _fit("partial", _train(dataset), shape, Z, artifacts, seed=9).predictions
    assert np.array_equal(Z, before)
    assert np.array_equal(_fit("partial", _train(dataset), shape, Z, artifacts, seed=9).predictions, first)
    assert np.array_equal(Z, before)


def test_partial_boundaries_must_cover():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    uncovering = dataclasses.replace(
        artifacts, logical_boundaries={0: artifacts.logical_boundaries[0]}
    )
    with pytest.raises(ValueError, match="boundaries do not cover"):
        _fit("partial", _train(dataset), shape, _test_rows(dataset), uncovering)


def test_practical_parents_subset_of_pie():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("practical", shape, artifacts, _train(dataset)[0])
    pie_parents = {}
    for src, dst in artifacts.potential_influence_edges:
        pie_parents.setdefault(dst, set()).add(src)
    for iv, inputs in _parents(plan).items():
        [node] = _nodes(shape, [iv])
        assert set(_nodes(shape, inputs)) <= pie_parents.get(node, set())


def test_complete_parents_subset_of_true_edges():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    plan = _plan("complete", shape, artifacts, _train(dataset)[0])
    true_parents = {}
    for src, dst in artifacts.influence_edges:
        true_parents.setdefault(dst, set()).add(src)
    assert plan.level == "complete"
    for iv, inputs in _parents(plan).items():
        [node] = _nodes(shape, [iv])
        assert set(_nodes(shape, inputs)) <= true_parents.get(node, set())


def test_practical_fallback_for_parentless_iv():
    """p_w=0 leaves every IV constant zero; pruning must strip all
    candidates, and each such IV gets a forest of no inputs whose trees are
    single leaves holding the IV's value."""
    graph, artifacts, dataset = _system(p_w=0.0, seed=55)
    shape = SystemShape.from_dataset(dataset)
    Z, perf = _train(dataset)
    plan = _plan("practical", shape, artifacts, Z)
    model = _model(plan, Z, perf, enumerate_candidates(SPACE, BUDGET)[0])
    zero_ivs = [
        iv for iv in shape.ivs
        if (dataset.ivs[:20, shape.ivs.index(iv)] == 0.0).all()
    ]
    assert zero_ivs
    for iv in _columns(shape, zero_ivs):
        assert _parents(plan)[iv] == ()
        forest = model.iv_models[iv].model
        assert model.iv_models[iv].inputs == () and forest.n_features == 0
        assert np.array_equal(forest.offsets, np.arange(len(forest.offsets)))
        assert np.array_equal(forest.value, np.full(len(forest.value), Z[:, iv].mean()))


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
        "ideal", _train(dataset, 200), shape, _test_rows(dataset), seed=6
    ).predictions
    actual = dataset.perf[dataset.n_train:, 0]
    assert acc(predictions, actual) > 0.9


def test_ideal_no_signal_when_perf_ignores_ivs():
    _, _, dataset = _system()
    rng = np.random.default_rng(13)
    Z, _ = _train(dataset)
    noise = rng.normal(size=len(Z))
    shape = SystemShape.from_dataset(dataset)
    predictions = _fit("ideal", (Z, noise), shape, _test_rows(dataset), seed=7).predictions
    assert np.abs(predictions).max() <= np.abs(noise).max() + 1e-9


def test_identical_candidates_across_levels(monkeypatch):
    """Every level of a search gets the same candidates and budget, and
    scores them on the same rows: every out-of-bag prediction of the search
    is of one set of design rows under one out-of-bag mask."""
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    seen = []  # (level, rows, weights) of each model's OOB prediction
    real_predict = knowledge_models.predict_models

    def spy(models, Zs, weights=None):
        if weights is not None:
            seen.extend((m.level, Z, w) for m, Z, w in zip(models, Zs, weights))
        return real_predict(models, Zs, weights)

    monkeypatch.setattr(knowledge_models, "predict_models", spy)
    levels = knowledge_models.LEVELS
    fits = knowledge_models.make_search(3, levels, shape, artifacts, BUDGET, SPACE)(
        *_train(dataset), _test_rows(dataset)
    )
    candidates = enumerate_candidates(SPACE, BUDGET)
    for fit in fits.values():
        assert fit.search_meta["candidates"] == candidates
        assert fit.search_meta["budget"] == BUDGET.evaluations
        assert 0 < fit.search_meta["oob_rows"] < dataset.n_train
    assert sorted(level for level, _, _ in seen) == sorted(levels * len(candidates))
    _, Z0, w0 = seen[0]
    assert len(Z0) == fits["null"].search_meta["oob_rows"] == len(w0)
    assert all(np.array_equal(Z, Z0) and np.array_equal(w, w0) for _, Z, w in seen)


def test_paper_scale_space_exercises_ranges():
    from modperf.learners import forest_search_space

    _, _, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    space = forest_search_space(len(shape.options), scale="paper")
    fit = _fit(
        "null", _train(dataset, 60), shape, _test_rows(dataset), seed=12, space=space,
        budget=SearchBudget(evaluations=2, seed=3),
    )
    chosen = fit.search_meta["chosen"]
    assert 50 <= chosen["n_trees"] <= 300
    assert 4 <= chosen["max_depth"] <= 24
    assert np.isfinite(fit.predictions).all()


class _Oracle:
    """Predictor that looks each design row up among the dataset's rows and
    returns its true performance."""

    def __init__(self, dataset):
        Z, perf = design(dataset)
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
        make_factory("partial", shape, None, BUDGET, space=SPACE)
    Z_test = _test_rows(dataset)
    with pytest.raises(ValueError):
        make_factory("quantum", shape, artifacts, BUDGET, space=SPACE)(
            *_train(dataset), Z_test
        )
    factory = make_factory("complete", shape, artifacts, BUDGET, space=SPACE, seed=4)
    fit = factory(*_train(dataset, 80), Z_test)
    assert isinstance(fit, LevelFit) and fit.predictions.shape == (len(Z_test),)


def test_level_table_keys_all_fit():
    graph, artifacts, dataset = _system()
    shape = SystemShape.from_dataset(dataset)
    assert knowledge_models.LEVELS == ("null", "partial", "practical", "complete", "ideal")
    assert tuple(LEVEL_PARENTS) == knowledge_models.LEVELS
    Z = _train(dataset, 80)[0]
    for level in LEVEL_PARENTS:
        fit = _fit(level, _train(dataset, 80), shape, _test_rows(dataset), artifacts, seed=4)
        plan = _plan(level, shape, artifacts, Z, seed=4)
        assert plan.level == level
        assert np.isfinite(fit.predictions).all()
        cascade = LEVEL_PARENTS[level] is not None
        assert set(_nodes(shape, _parents(plan))) == (set(shape.ivs) if cascade else set())
        assert _nodes(shape, _perf_inputs(plan)) == (shape.options if level == "null" else shape.ivs)
    with pytest.raises(ValueError, match="unknown level"):
        make_factory("quantum", shape, artifacts, BUDGET, space=SPACE)


def test_search_constant_loss_returns_first_candidate():
    _, artifacts, dataset = _system()
    Z, _ = _train(dataset, 60)
    shape = SystemShape.from_dataset(dataset)
    budget = SearchBudget(evaluations=5, seed=0)
    for level in ("null", "partial"):
        meta = _fit(
            level, (Z, np.full(60, 42.0)), shape, _test_rows(dataset), artifacts, seed=1,
            budget=budget,
        ).search_meta
        assert meta["oob_loss"] == 0.0
        assert meta["candidates"] == enumerate_candidates(SPACE, budget)
        assert meta["chosen"] == meta["candidates"][0]


def test_search_picks_lowest_oob_loss(monkeypatch):
    """Each candidate's forest predicts its max_depth everywhere, so on
    constant perf 5 its OOB loss is (depth - 5)^2: the search must pick depth
    5, and on the tie between the two depth-5 candidates the first of them,
    whose model predicts the held-out rows."""

    monkeypatch.setattr(
        knowledge_models,
        "fit_forests",
        lambda Xs, ys, params_list: [
            _constant_forest(p.max_depth, X.shape[1], p) for X, p in zip(Xs, params_list)
        ],
    )
    _, _, dataset = _system()
    Z, _ = _train(dataset, 40)
    shape = SystemShape.from_dataset(dataset)
    space = dict(SPACE, max_depth=[2, 5, 8], min_samples_leaf=[1, 2])
    fit = _fit(
        "null", (Z, np.full(40, 5.0)), shape, _test_rows(dataset), space=space,
        budget=SearchBudget(evaluations=6),
    )
    assert np.array_equal(fit.predictions, np.full(len(_test_rows(dataset)), 5.0))
    meta = fit.search_meta
    assert [c["max_depth"] for c in meta["candidates"]] == [2, 2, 5, 5, 8, 8]
    assert meta["chosen"] == meta["candidates"][2]
    assert meta["oob_losses"] == [9.0, 9.0, 0.0, 0.0, 9.0, 9.0]
    assert meta["oob_loss"] == 0.0
    assert meta["budget"] == 6


def test_oob_loss_skips_rows_in_bag_in_every_tree_of_a_candidate(monkeypatch):
    """With a forest stand-in that predicts its training mean, every
    candidate's OOB loss is the MSE over exactly the rows that each
    candidate leaves out of some tree: a row in-bag in the one tree of the
    1-tree candidate counts for no candidate of the level, though the 8-tree
    candidate leaves it out."""
    monkeypatch.setattr(
        knowledge_models,
        "fit_forests",
        lambda Xs, ys, params_list: [
            _constant_forest(np.mean(y), X.shape[1], p) for X, y, p in zip(Xs, ys, params_list)
        ],
    )
    _, _, dataset = _system()
    Z, perf = _train(dataset, 50)
    space = dict(SPACE, n_trees=[1, 8], min_samples_leaf=[1])
    fit = _fit("ideal", (Z, perf), SystemShape.from_dataset(dataset), _test_rows(dataset),
               seed=3, space=space)
    in_bag = _in_bag(derive(3, "rows", 50), 50, 8)
    scored = ~in_bag[0]
    assert (in_bag[0] & ~in_bag.all(axis=0)).any()
    expected = mse(perf[scored], np.full(scored.sum(), perf.mean()))
    meta = fit.search_meta
    assert [c["n_trees"] for c in meta["candidates"]] == [1, 8]
    assert meta["oob_losses"] == [pytest.approx(expected, rel=1e-12)] * 2
    assert meta["oob_rows"] == scored.sum()


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


def _reference_fit_level(level, shape, parents_by_iv, order, seed, Z, perf, candidate):
    """One level's model for one candidate on design rows Z, as the search
    fitted it before it batched its forests: the IV forests in one
    `fit_forests` call, an IV without parents on no columns, the perf forest
    in its own `fit_forest` call. Every forest draws its bootstrap rows from
    derive(seed, "rows", len(Z)) and its split keys from derive(seed,
    target, min_samples_leaf, feature_subsample.hex())."""
    family = (candidate["min_samples_leaf"], float(candidate["feature_subsample"]).hex())

    def params(forest_seed):
        return ForestParams(
            n_trees=int(candidate["n_trees"]),
            max_depth=int(candidate["max_depth"]),
            min_samples_leaf=int(candidate["min_samples_leaf"]),
            feature_subsample=float(candidate["feature_subsample"]),
            bootstrap_seed=forest_seed,
            rows_seed=derive(seed, "rows", len(Z)),
        )

    forests = fit_forests(
        [Z.take(_columns(shape, parents_by_iv[iv]), axis=1) for iv in order],
        [Z[:, _columns(shape, [iv])[0]] for iv in order],
        [params(derive(seed, iv.encode(), *family)) for iv in order],
    )
    iv_models = {}
    for iv, forest in zip(order, forests):
        [column] = _columns(shape, [iv])
        iv_models[column] = IVModel(column, tuple(_columns(shape, parents_by_iv[iv])), forest)
    perf_inputs = tuple(_columns(shape, shape.options if level == "null" else shape.ivs))
    perf_model = fit_forest(
        Z.take(perf_inputs, axis=1), perf, params(derive(seed, "perf", *family))
    )
    return ModularPredictor(level, perf_model, perf_inputs, iv_models)


def _in_bag(rows_seed, n, n_trees):
    """The (trees, rows) mask of the rows each of n_trees trees on n rows
    drew from `rows_seed`."""
    in_bag = np.zeros((n_trees, n), dtype=bool)
    in_bag[np.arange(n_trees)[:, None], bootstrap_rows(rows_seed, n, n_trees)] = True
    return in_bag


def _reference_oob_predict(model, Z, in_bag):
    """A model's out-of-bag predictions of design rows Z by the definition,
    one row and one tree at a time: row r's IV estimates, in evaluation
    order, and then its perf prediction each average the predictions of the
    trees (`FittedForest.trees`) whose drawn rows omit r (`in_bag`, trees x
    rows), each tree reading the averaged estimates."""
    Z = np.array(Z, dtype=float)
    out = []
    for r, row in enumerate(Z):
        left_out = np.flatnonzero(~in_bag[:, r])

        def estimate(m, x):
            return np.mean([m.trees[t].predict(x[None, :])[0] for t in left_out if t < len(m.trees)])

        for column, iv_model in model.iv_models.items():
            row[column] = estimate(iv_model.model, row[list(iv_model.inputs)])
        out.append(estimate(model.perf_model, row[list(model.perf_inputs)]))
    return np.array(out)


def _reference_search(level, shape, artifacts, budget, space, seed, rows):
    """Every candidate's OOB loss and model on the training design rows and
    targets `rows`, one model per candidate as the search ran before it
    batched its forests, scored by the definition on the rows that every
    candidate leaves out of some tree."""
    Z, perf = rows
    parents = _reference_parents(level, shape, artifacts, Z)
    order = () if parents is None else tuple(sorted(parents))
    candidates = enumerate_candidates(space, budget)
    in_bag = _in_bag(derive(seed, "rows", len(perf)), len(perf), max(c["n_trees"] for c in candidates))
    scored = np.flatnonzero(~in_bag[: min(c["n_trees"] for c in candidates)].all(axis=0))
    models = [
        _reference_fit_level(level, shape, parents, order, seed, Z, perf, c) for c in candidates
    ]
    losses = [
        mse(perf[scored], _reference_oob_predict(m, Z[scored], in_bag[:, scored])) for m in models
    ]
    return losses, models[int(np.argmin(losses))]


SEARCH_SPACE = {
    "n_trees": [3, 6],
    "max_depth": [3, 6],
    "min_samples_leaf": [1, 3],
    "feature_subsample": [1.0, 0.5],
}
SEARCH_BUDGET = SearchBudget(evaluations=3, seed=0)
SEARCH_SEED = 5


def _search_system():
    """The design rows and targets of 61 training rows of a system whose
    pruned levels leave IVs without parents. Noise on the IVs the system
    holds constant gives those fallbacks means that are not zero."""
    _, artifacts, dataset = _system(p_w=0.2)
    Z, perf = _train(dataset, 61)
    ivs = Z[:, len(dataset.option_names):]  # a view: the noise goes into Z
    noise = np.random.default_rng(1).normal(size=ivs.shape) * (np.ptp(ivs, axis=0) == 0)
    ivs += noise
    return artifacts, dataset, (Z, perf), noise


def _search(levels, artifacts, dataset):
    shape = SystemShape.from_dataset(dataset)
    return knowledge_models.make_search(
        SEARCH_SEED, levels, shape, artifacts, SEARCH_BUDGET, SEARCH_SPACE
    )


@functools.lru_cache(maxsize=None)
def _search_references():
    """Each level's per-candidate reference OOB losses and chosen model."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    return {
        level: _reference_search(
            level, shape, artifacts, SEARCH_BUDGET, SEARCH_SPACE, SEARCH_SEED, rows
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


def _level_forests(levels, artifacts, shape, rows):
    """Each level's forests as (target, input columns) pairs, from the plan
    the search makes on the training design rows and targets `rows`."""
    Z, _ = rows
    return {
        level: {(target, inputs) for target, inputs, _ in _plan(level, shape, artifacts, Z).forests}
        for level in levels
    }


@pytest.mark.parametrize("level", knowledge_models.LEVELS)
def test_search_grows_every_forest_in_one_call(monkeypatch, level):
    """The all-level search gives each level the per-candidate reference's
    OOB losses, chosen candidate and held-out predictions, from one stream
    and one `fit_forests` call for every fit of every level, whichever level
    leads the stream. The call grows every distinct problem once: per
    candidate, the union of the levels' forests. The candidates differ in
    every forest setting, and the pruned levels leave IVs without parents
    (`_search_system`). The losses sum trees in another order than the
    reference, so they agree to rounding."""
    artifacts, dataset, rows, noise = _search_system()
    shape = SystemShape.from_dataset(dataset)
    candidates = enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET)
    assert all(len({c[k] for c in candidates}) == 2 for k in SEARCH_SPACE)
    references = _search_references()
    lead = knowledge_models.LEVELS.index(level)
    levels = knowledge_models.LEVELS[lead:] + knowledge_models.LEVELS[:lead]
    forests = _level_forests(levels, artifacts, shape, rows)
    distinct = set().union(*forests.values())
    assert len(distinct) < sum(map(len, forests.values()))

    calls = []
    real_fit = knowledge_models.fit_forests
    monkeypatch.setattr(
        knowledge_models, "fit_forests", lambda *args: calls.append(len(args[0])) or real_fit(*args)
    )
    Z, perf = rows
    Z_test = _test_rows(dataset)
    got = _search(levels, artifacts, dataset)(Z, perf, Z_test)

    assert list(got) == list(levels)
    assert calls == [len(candidates) * len(distinct)]
    for lv in levels:
        want_losses, want = references[lv]
        meta = got[lv].search_meta
        assert meta["oob_losses"] == pytest.approx(want_losses, rel=1e-12)
        assert meta["oob_loss"] == min(meta["oob_losses"])
        assert meta["chosen"] == candidates[int(np.argmin(want_losses))]
        assert np.array_equal(got[lv].predictions, _reference_predict(want, Z_test))
        if lv in ("practical", "complete"):
            parents = _parents(_plan(lv, shape, artifacts, Z))
            fallbacks = [iv for iv, inputs in parents.items() if not inputs]
            assert 0 < len(fallbacks) < len(shape.ivs)
            assert any(np.ptp(noise[:, iv - len(shape.options)]) > 0 for iv in fallbacks)


def test_one_level_search_equals_its_reference(monkeypatch):
    """`make_factory` is the one-level call of the search: one `fit_forests`
    call, and the reference's losses and held-out predictions. The
    reference finds `complete`'s parents by `NodeId` itself
    (`_reference_parents`), so this pins the search's integer level table."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    want_losses, want = _search_references()["complete"]
    calls = []
    real_fit = knowledge_models.fit_forests
    monkeypatch.setattr(
        knowledge_models, "fit_forests", lambda *args: calls.append(len(args[0])) or real_fit(*args)
    )
    factory = make_factory(
        "complete", shape, artifacts, SEARCH_BUDGET, SEARCH_SPACE, seed=SEARCH_SEED
    )
    Z_test = _test_rows(dataset)
    got = factory(*rows, Z_test)
    assert len(calls) == 1
    assert got.search_meta["oob_losses"] == pytest.approx(want_losses, rel=1e-12)
    assert np.array_equal(got.predictions, _reference_predict(want, Z_test))


def test_tiny_chunk_budget_changes_nothing(monkeypatch):
    """Cutting the stream into chunks, also inside one model's forests,
    gives the one-chunk losses and held-out predictions, and no chunk's
    forests hold more bootstrap-row x tree cells than the budget."""
    artifacts, dataset, rows, _ = _search_system()
    levels = knowledge_models.LEVELS
    Z, perf = rows
    Z_test = _test_rows(dataset)
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
    assert len(chunks) > 5
    assert max(chunks) <= budget
    for level in levels:
        assert cut[level].search_meta == whole[level].search_meta
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
    candidates (so tree counts and depths differ within a walk), forests of
    no inputs for IVs without parents, a constant stand-in, and walks cut
    small."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = rows
    Z_test = _test_rows(dataset)
    models = []
    for k, level in enumerate(knowledge_models.LEVELS):
        plan = _plan(level, shape, artifacts, Z, seed=k)
        candidates = enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET)
        models += [_model(plan, Z, perf, c) for c in candidates]
    assert any(not m.inputs for model in models for m in model.iv_models.values())
    stand_in = models[4]
    constants = {
        iv: IVModel(iv, m.inputs, _constant_forest(k, len(m.inputs), m.model.params))
        for k, (iv, m) in enumerate(stand_in.iv_models.items())
    }
    perf = _constant_forest(3.5, len(stand_in.perf_inputs), stand_in.perf_model.params)
    models.append(dataclasses.replace(stand_in, perf_model=perf, iv_models=constants))
    rows = [Z_test[k % 7 :: 1 + k % 3] for k in range(len(models))]
    want = [_reference_predict(m, Z) for m, Z in zip(models, rows)]
    for walk_entries in (forest_module._WALK_ENTRIES, 500):
        monkeypatch.setattr(forest_module, "_WALK_ENTRIES", walk_entries)
        got = knowledge_models.predict_models(models, rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_one_perf_forest_serves_the_four_iv_input_levels(monkeypatch):
    """One candidate of an all-level search grows one perf forest on the
    measured IVs, and the models of `partial`, `practical`, `complete` and
    `ideal` hold that one `FittedForest`; `null`'s perf forest reads the
    options and stays its own. Across the whole search, every candidate
    grows exactly one perf forest on the IVs."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    widths, batches = [], []
    real_fit, real_predict = knowledge_models.fit_forests, knowledge_models.predict_models

    def spy(Xs, ys, params_list):
        widths.append(
            [(X.shape[1], p.bootstrap_seed, p.n_trees, p.max_depth) for X, p in zip(Xs, params_list)]
        )
        return real_fit(Xs, ys, params_list)

    monkeypatch.setattr(knowledge_models, "fit_forests", spy)
    monkeypatch.setattr(
        knowledge_models,
        "predict_models",
        lambda ms, Zs, weights=None: batches.append(ms) or real_predict(ms, Zs, weights),
    )
    _search(knowledge_models.LEVELS, artifacts, dataset)(*rows, _test_rows(dataset))
    # the stream is one chunk; its jobs run candidate-major, then level, so
    # its first models are candidate 0's
    null, *others = batches[0][: len(knowledge_models.LEVELS)]
    assert [m.level for m in others] == ["partial", "practical", "complete", "ideal"]
    assert all(m.perf_model is others[0].perf_model for m in others)
    assert null.perf_model is not others[0].perf_model
    assert others[0].perf_model.n_features == len(shape.ivs)

    assert len(widths) == 1
    for c in enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET):
        family = (c["min_samples_leaf"], float(c["feature_subsample"]).hex())
        seed = derive(SEARCH_SEED, "perf", *family)
        perf_forests = [w for w, s, t, d in widths[0] if (s, t, d) == (seed, c["n_trees"], c["max_depth"])]
        assert sorted(perf_forests) == sorted([len(shape.options), len(shape.ivs)])


def test_problem_keys_merge_only_equal_problems():
    """Two forests of a search share a key exactly when they pose one
    problem: the same target, input columns and candidate. Inputs or family
    apart keeps them apart; candidates of one family differ only in their
    key's `n_trees` or `max_depth`, not in their seeds, and every key draws
    its rows from the one rows seed of the search. That the deduplicated
    search equals the per-problem reference is
    `test_search_grows_every_forest_in_one_call`."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, _ = rows
    space = dict(SEARCH_SPACE, n_trees=[3, 6, 12])
    candidates = enumerate_candidates(space, SearchBudget(evaluations=24))
    assert len(candidates) == 24
    plans = [_plan(level, shape, artifacts, Z) for level in knowledge_models.LEVELS]
    problems = {}  # key -> every (target, inputs, candidate) it stands for
    for plan in plans:
        for c in candidates:
            for key, (target, inputs, _) in zip(knowledge_models._keys(plan, c), plan.forests):
                problems.setdefault(key, set()).add((target, inputs, tuple(sorted(c.items()))))
                family = (c["min_samples_leaf"], float(c["feature_subsample"]).hex())
                assert key.params.bootstrap_seed == derive(SEARCH_SEED, target, *family)
                assert key.params.rows_seed == derive(SEARCH_SEED, "rows", len(Z))
    assert all(len(merged) == 1 for merged in problems.values())
    assert len(set().union(*problems.values())) == len(problems)
    assert len(problems) < sum(len(plan.forests) for plan in plans) * len(candidates)

    seeds_by_family = {}  # members of one family that one seed serves
    for key in problems:
        p = key.params
        group = (p.bootstrap_seed, key.column, key.inputs)
        seeds_by_family.setdefault(group, set()).add((p.n_trees, p.max_depth))
    assert max(map(len, seeds_by_family.values())) == 3 * 2  # n_trees x max_depth


def test_candidates_of_one_family_share_bootstrap_rows():
    """Two candidates of one family, 6 and 12 trees, get one seed for a
    problem, and the 6-tree forest's node tables equal the first 6 trees of
    the 12-tree fit: a family can be read off its largest member."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = rows
    plan = _plan("practical", shape, artifacts, Z)
    base = {"max_depth": 6, "min_samples_leaf": 1, "feature_subsample": 0.5}
    small, large = (knowledge_models._keys(plan, dict(base, n_trees=n)) for n in (6, 12))
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


def test_forests_of_one_search_share_each_trees_rows():
    """Every forest of a search, whatever its family, target or level, draws
    tree t's bootstrap rows from the one rows seed of its (unit, size), so a
    6-tree and a 12-tree forest share their first 6 trees' rows: each tree's
    root holds the mean target of those rows. Another training size draws
    other rows."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = rows
    n = len(perf)
    small = dict(n_trees=6, max_depth=3, min_samples_leaf=1, feature_subsample=1.0)
    large = dict(n_trees=12, max_depth=6, min_samples_leaf=3, feature_subsample=0.5)
    keys = [
        key
        for level in ("null", "practical")
        for c in (small, large)
        for key in knowledge_models._keys(_plan(level, shape, artifacts, Z), c)
    ]
    assert len({key.params.bootstrap_seed for key in keys}) > 2
    assert {key.params.rows_seed for key in keys} == {derive(SEARCH_SEED, "rows", n)}
    drawn = bootstrap_rows(derive(SEARCH_SEED, "rows", n), n, 12)
    assert np.array_equal(bootstrap_rows(derive(SEARCH_SEED, "rows", n), n, 6), drawn[:6])
    for key, model in zip(keys, fit_forests(*zip(*(knowledge_models._problem(k, Z, perf) for k in keys)))):
        _, y, _ = knowledge_models._problem(key, Z, perf)
        roots = model.value[model.offsets[:-1]]
        want = [y[r].mean() for r in drawn[: key.params.n_trees]]
        assert roots == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert _plan("null", shape, artifacts, Z[:40]).rows_seed != derive(SEARCH_SEED, "rows", n)


def _two_generation_model():
    """A hand-built model on 60 rows whose IV `a` (column 2) reads options 0
    and 1 and IV `b` (column 3) reads `a` and option 1, so `b` is estimated
    in the cascade's second generation; perf reads both IVs. Its forests
    draw their rows from one rows seed, 5 trees each."""
    rng = np.random.default_rng(31)
    n = 60
    options = rng.integers(0, 2, (n, 2)).astype(float)
    a = options @ [1.0, 2.0] + 0.1 * rng.normal(size=n)
    b = 0.5 * a + options[:, 1] + 0.1 * rng.normal(size=n)
    Z = np.column_stack([options, a, b])
    perf = a - 2.0 * b + 0.1 * rng.normal(size=n)
    params = [ForestParams(5, 4, bootstrap_seed=s, rows_seed=77) for s in (1, 2, 3)]
    fa, fb, fp = fit_forests([Z[:, [0, 1]], Z[:, [2, 1]], Z[:, [2, 3]]], [a, b, perf], params)
    ivs = {2: IVModel(2, (0, 1), fa), 3: IVModel(3, (2, 1), fb)}
    return ModularPredictor("complete", fp, (2, 3), ivs), Z, _in_bag(77, n, 5)


def test_oob_cascade_runs_through_the_same_trees():
    """Row r's OOB prediction of a two-generation cascade, by hand: `a`'s
    estimate averages the trees that left r out, `b`'s trees (the same
    ones) read that estimate, and the perf trees (the same ones again) read
    both; `predict_models` with the OOB mask gives that, and a row's
    estimate is not the plain forests' cascade."""
    model, Z, in_bag = _two_generation_model()
    assert model.steps == ((2,), (3,))
    covered = ~in_bag.all(axis=0)
    oob = ~in_bag[:, covered].T
    want = []
    for row, left_out in zip(Z[covered], oob):
        trees = np.flatnonzero(left_out)

        def mean_of(forest, x):
            return np.mean([forest.trees[t].predict(x[None, :])[0] for t in trees])

        a = mean_of(model.iv_models[2].model, row[[0, 1]])
        b = mean_of(model.iv_models[3].model, np.array([a, row[1]]))
        want.append(mean_of(model.perf_model, np.array([a, b])))
    [got] = knowledge_models.predict_models([model], [Z[covered]], [oob])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert not np.allclose(got, model.predict(Z[covered]))


def test_parentless_iv_estimates_average_its_trees_roots(monkeypatch):
    """The stated rule, in a real search: an IV that pruning leaves without
    parents gets a forest of no inputs, each tree one leaf holding the IV's
    mean over that tree's draws. Its out-of-bag estimate of each scored row
    is the mean of the root values of exactly the trees whose draws omit
    the row, and its held-out estimate the mean over all its trees. The
    noise `_search_system` puts on those IVs makes both differ from the
    IV's training mean."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z, perf = rows
    n = len(perf)
    Z_test = _test_rows(dataset)
    trees = sorted(c["n_trees"] for c in enumerate_candidates(SEARCH_SPACE, SEARCH_BUDGET))
    drawn = bootstrap_rows(derive(SEARCH_SEED, "rows", n), n, trees[-1])
    in_bag = _in_bag(derive(SEARCH_SEED, "rows", n), n, trees[-1])
    scored = np.flatnonzero(~in_bag[: trees[0]].all(axis=0))
    levels = ("practical", "complete")
    parentless = {
        column
        for lv in levels
        for iv, parents in _reference_parents(lv, shape, artifacts, Z).items()
        if not parents
        for column in _columns(shape, [iv])
    }
    assert parentless
    calls = []
    real_predict = knowledge_models.predict_forests

    def spy(forests, Xs, weights):
        out = real_predict(forests, Xs, weights)
        calls.append((forests, Xs, weights, out))
        return out

    monkeypatch.setattr(knowledge_models, "predict_forests", spy)
    _search(levels, artifacts, dataset)(Z, perf, Z_test)
    checked = {"oob": 0, "held": 0}
    for forests, Xs, weights, out in calls:
        for forest, X, w, got in zip(forests, Xs, weights, out):
            if forest.n_features:
                continue
            roots = forest.value[forest.offsets[:-1]]
            assert np.array_equal(forest.offsets, np.arange(len(roots) + 1))
            [iv] = [
                iv for iv in parentless
                if roots == pytest.approx([Z[d, iv].mean() for d in drawn[: len(roots)]], rel=1e-12)
            ]
            if w is None:
                assert len(X) == len(Z_test)
                assert got == pytest.approx(np.full(len(X), roots.mean()), rel=1e-12)
                checked["held"] += 1
                continue
            assert len(X) == len(scored)
            for r, estimate in zip(scored, got):
                omit = ~in_bag[: len(roots), r]
                assert omit.any()
                assert estimate == pytest.approx(roots[omit].mean(), rel=1e-12)
            assert not np.allclose(got, Z[:, iv].mean())
            checked["oob"] += 1
    assert checked["oob"] and checked["held"]


def test_make_factory_equals_its_level_of_the_all_level_search():
    """`make_factory(level, seed=s)` fits what the all-level search with seed
    s fits for that level: losses, chosen candidate and test predictions."""
    artifacts, dataset, rows, _ = _search_system()
    shape = SystemShape.from_dataset(dataset)
    Z_test = _test_rows(dataset)
    Z, perf = rows
    every = _search(knowledge_models.LEVELS, artifacts, dataset)(Z, perf, Z_test)
    for level in knowledge_models.LEVELS:
        one = make_factory(
            level, shape, artifacts, SEARCH_BUDGET, SEARCH_SPACE, seed=SEARCH_SEED
        )(Z, perf, Z_test)
        assert one.search_meta == every[level].search_meta
        assert np.array_equal(one.predictions, every[level].predictions)


def test_shape_rejects_names_out_of_canonical_order(tmp_path):
    """Design columns are evaluated in their order, so a dataset whose
    manifest lists two IV columns swapped is refused, as are options out of
    order."""
    _, _, dataset = _system()
    save_dataset(dataset, tmp_path)
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
    artifacts, dataset, rows, _ = _search_system()
    search = _search(knowledge_models.LEVELS, artifacts, dataset)
    Z, perf = rows
    Z_test = _test_rows(dataset)

    def forbidden(*args):
        raise AssertionError("NodeId hashed or compared")

    monkeypatch.setattr(NodeId, "__hash__", forbidden)
    monkeypatch.setattr(NodeId, "__eq__", forbidden)
    fits = search(Z, perf, Z_test)
    assert all(isinstance(f, LevelFit) for f in fits.values()), fits
    assert all(np.isfinite(f.predictions).all() for f in fits.values())

"""Release-gate criteria. Run with `pytest tests/test_acceptance.py -v -s`
for one pass/fail line per criterion; the heavy criteria (6-9) parallelize
across two worker processes and stay within their stated runtime budgets.
"""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_mwu_p, reference_soft_threshold
from modperf.dataset import sample_dataset
from modperf.experiment import ExperimentConfig, run_analyze, run_generate, run_model
from modperf.hardness_opportunity import CurveTable, build_matrix, hardness, opportunity, scaling_constant
from modperf.influence_graph import (
    EdgeKind,
    StructuralAspects,
    AspectRanges,
    derive_knowledge,
    generate_graph,
    sample_aspects,
    scale_aspects,
)
from modperf.knowledge_models import SystemShape, level_curves, make_search
from modperf.learners import (
    CVSpec,
    ForestParams,
    L1Params,
    SearchBudget,
    fit_forest,
    fit_l1,
    fold_indices,
    forest_search_space,
)
from modperf.metrics import acc, maape, spearman
from modperf import reporting
from modperf.seeds import derive
from modperf.semantics import synthesize_semantics
from modperf.stats import aspect_regression, cles, fisher_z_screen, mann_whitney_u, matrix_hypothesis_tests

pytestmark = pytest.mark.acceptance

SIZES = (20, 50, 100, 200, 500, 1000)
JOBS = 2


def _report(criterion: int, message: str):
    print(f"[criterion {criterion:02d}] PASS - {message}")


# --------------------------------------------------------------------------
# Criterion 1: hardness worked examples and exact scaling constant.


def test_criterion_01_hardness_worked_examples():
    hotel = CurveTable("scc", SIZES, np.array([[0.19, 0.31, 0.43, 0.55, 0.66, 0.77]]))
    selfcare = CurveTable("scc", SIZES, np.array([[0.71, 0.87, 0.96, 0.97, 0.97, 0.98]]))
    h_hotel = hardness(hotel).value[0]
    h_selfcare = hardness(selfcare).value[0]
    assert h_hotel == pytest.approx(0.718, abs=1e-3)
    assert h_selfcare == pytest.approx(0.2015, abs=2e-3)
    constant = scaling_constant(SIZES)
    assert constant == 125 / 11
    assert constant == float(1 / sum(Fraction(1, n) for n in SIZES))
    _report(1, f"hardness {h_hotel:.4f}/{h_selfcare:.4f}, C = 125/11 exactly")


# --------------------------------------------------------------------------
# Criterion 2: expected within-module edge count, 10^4 seeds, 4 SE band.


def test_criterion_02_expected_edge_count():
    aspects = StructuralAspects(
        option_count=10, p_w=0.4, mu_a=0.01, sigma_a=0.01, module_count=6
    )
    n_seeds = 10_000
    counts = np.empty(n_seeds)
    for seed in range(n_seeds):
        graph = generate_graph(aspects, seed=seed, iv_to_iv_p=0.0)
        counts[seed] = len(graph.edges_of_kind(EdgeKind.WITHIN_OI))
    n_pairs = 6 * 10 * 3
    expected = n_pairs * 0.4
    se = math.sqrt(n_pairs * 0.4 * 0.6 / n_seeds)
    assert expected == 72.0
    assert abs(counts.mean() - expected) < 4 * se
    _report(2, f"mean within-edges {counts.mean():.3f} vs 72 (4 SE = {4 * se:.3f})")


# --------------------------------------------------------------------------
# Criterion 3: metric suite examples plus monotone-transform invariance.


def test_criterion_03_metric_suite():
    assert maape([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert maape([2.0, 0.0], [1.0, 1.0]) == pytest.approx(math.pi / 4, abs=1e-12)
    assert maape([1e15], [1.0]) == pytest.approx(math.pi / 2, abs=1e-6)
    assert acc([1.0], [1.0]) == 1.0
    assert acc([2.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert acc([1e16], [1.0]) == pytest.approx(0.0, abs=1e-6)
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([3, 2, 1], [10, 20, 30]) == pytest.approx(-1.0)
    assert spearman([1, 2, 2, 4], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)
    assert spearman([5.0] * 4, [1, 2, 3, 4]) == 0.0

    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        actual = rng.normal(size=n)
        predicted = np.round(rng.uniform(-20, 20, size=n), 3)
        base = spearman(predicted, actual)
        assert spearman(2.5 * predicted + 3.0, actual) == pytest.approx(base, abs=1e-9)
        assert spearman(np.exp(predicted / 10.0), actual) == pytest.approx(base, abs=1e-9)
    _report(3, "MAAPE/Acc/Spearman examples and 100 invariance draws")


# --------------------------------------------------------------------------
# Criterion 4: statistics oracles.


def test_criterion_04_statistics_oracles():
    rng = np.random.default_rng(44)
    checked = 0
    for n_x in range(1, 8):
        for n_y in range(1, 9 - n_x):
            for _ in range(3):
                x = rng.integers(0, 4, n_x).tolist()
                y = rng.integers(0, 4, n_y).tolist()
                for alternative in ("less", "greater", "two_sided"):
                    got = mann_whitney_u(x, y, alternative=alternative)
                    assert got.method == "exact"
                    want = brute_force_mwu_p(x, y, alternative)
                    assert got.p_value == pytest.approx(want, abs=1e-12)
                    checked += 1

    # CLES against pair enumeration on random draws
    for _ in range(200):
        x = rng.integers(0, 6, int(rng.integers(1, 8))).tolist()
        y = rng.integers(0, 6, int(rng.integers(1, 8))).tolist()
        pairs = [(a, b) for a in x for b in y]
        want = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a, b in pairs) / len(pairs)
        assert cles(x, y) == pytest.approx(want, abs=1e-12)

    # Type-I calibration of the Fisher-Z screen prune_parents runs, 99%
    # binomial band around alpha
    alpha = 0.05
    trials = 1000
    fz_rng = np.random.default_rng(5005)
    rejections = sum(
        1
        for _ in range(trials)
        if fisher_z_screen(fz_rng.normal(size=(100, 1)), fz_rng.normal(size=100), alpha=alpha)[0]
    )
    rate = rejections / trials
    band = 2.576 * math.sqrt(alpha * (1 - alpha) / trials)
    assert abs(rate - alpha) < band
    _report(4, f"{checked} exact-U checks, CLES enumeration, type-I rate {rate:.3f}")


# --------------------------------------------------------------------------
# Criterion 5: learner correctness against closed forms.


def test_criterion_05_learner_correctness():
    rng = np.random.default_rng(55)
    # L1 vs soft-threshold closed form on 1-feature problems
    for target_corr, alpha in ((1.0, 0.3), (0.8, 0.2), (0.5, 0.45)):
        x = rng.normal(size=3000)
        x = (x - x.mean()) / x.std()
        noise = rng.normal(size=3000)
        noise = noise - noise.mean()
        noise = noise - (x @ noise) / (x @ x) * x
        y = target_corr * x + noise / noise.std() * math.sqrt(max(1 - target_corr**2, 0))
        model = fit_l1(x.reshape(-1, 1), y, L1Params(alpha=alpha, scale=False, tol=1e-13))
        rho = float(x @ y / len(y))
        assert model.coefs[0] == pytest.approx(reference_soft_threshold(rho, alpha), abs=1e-6)

    # forest: zero training error on noiseless binary single-feature target
    X = rng.integers(0, 2, size=(300, 1)).astype(float)
    y = 3.5 * X[:, 0]
    forest = fit_forest(X, y, ForestParams(n_trees=6, max_depth=1, bootstrap_seed=5))
    assert np.abs(forest.predict(X) - y).max() == 0.0

    # L1 path norm monotone in alpha on a fixed dataset
    Xp = rng.normal(size=(200, 5))
    yp = Xp @ np.array([1.5, -0.7, 0.3, 0.0, 0.1]) + rng.normal(size=200) * 0.1
    norms = [
        np.abs(fit_l1(Xp, yp, L1Params(alpha=float(a), scale=False, tol=1e-10)).coefs).sum()
        for a in np.logspace(-4, 1, 25)
    ]
    assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))
    _report(5, "soft-threshold match, exact binary fit, monotone L1 path")


# --------------------------------------------------------------------------
# Criterion 6: bounding-knowledge sanity over >= 50 desk systems.

_DESK_RANGES = AspectRanges(option_count=(6, 8), module_count=(5, 8))


def _criterion6_one(s: int):
    seed = derive(660001, "system", s)
    aspects = sample_aspects(seed, _DESK_RANGES)
    graph = generate_graph(aspects, seed)
    artifacts = derive_knowledge(graph)
    semantics = synthesize_semantics(graph, derive(seed, "trial", 0))
    dataset = sample_dataset(semantics, derive(seed, "trial", 0), n_train=1000, n_test=400)
    shape = SystemShape.from_dataset(dataset)
    budget = SearchBudget(evaluations=2, seed=derive(660001, "search"))
    space = {
        "n_trees": [8],
        "max_depth": [5, 8],
        "min_samples_leaf": [2],
        "feature_subsample": [1.0 / 3.0],
    }
    efficacies = {}
    for level in ("null", "ideal"):
        search = make_search(
            derive(seed, "model", level), (level,), shape, artifacts, budget, space
        )
        points = level_curves(search, dataset, ("scc",), (1000,))[level]
        efficacies[level] = points[0].efficacies["scc"]
    return efficacies["null"], efficacies["ideal"]


@pytest.mark.slow
def test_criterion_06_knowledge_level_sanity():
    n_systems = 50
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_criterion6_one, range(n_systems)))
    wins = sum(1 for null_eff, ideal_eff in results if ideal_eff >= null_eff)
    assert wins >= 0.9 * n_systems
    _report(6, f"ideal >= null at n=1000 in {wins}/{n_systems} systems")


# --------------------------------------------------------------------------
# Criterion 7: RQ1 directional reproduction.

_RQ1_GRID = [(m, o, r) for m in (5, 15, 30) for o in (6, 11, 16) for r in range(4)]


def _criterion7_one(cell):
    module_count, option_count, rep = cell
    seed = derive(770001, "rq1", module_count, option_count, rep)
    aspects = StructuralAspects(
        option_count=option_count, p_w=0.75, mu_a=0.2, sigma_a=0.1, module_count=module_count
    )
    graph = generate_graph(aspects, seed)
    artifacts = derive_knowledge(graph)
    semantics = synthesize_semantics(graph, derive(seed, "trial", 0))
    dataset = sample_dataset(semantics, derive(seed, "trial", 0), n_train=1000, n_test=400)
    shape = SystemShape.from_dataset(dataset)
    budget = SearchBudget(evaluations=2, seed=derive(770001, "search"))
    space = forest_search_space(len(shape.options), scale="desk")
    search = make_search(
        derive(seed, "model", "null"), ("null",), shape, artifacts, budget, space
    )
    points = level_curves(search, dataset, ("scc",), SIZES)["null"]
    curve = CurveTable("scc", tuple(p.n for p in points), np.array([[p.efficacies["scc"] for p in points]]))
    return module_count, hardness(curve).value[0], scale_aspects(aspects.as_feature_dict())


def _spearman_permutation_p(x, y, n_perm=10_000, seed=0) -> float:
    """One-sided (positive association) permutation test."""
    rng = np.random.default_rng(seed)
    observed = spearman(x, y)
    y = np.asarray(y, dtype=float)
    exceed = sum(1 for _ in range(n_perm) if spearman(x, rng.permutation(y)) >= observed)
    return (exceed + 1) / (n_perm + 1)


@pytest.mark.slow
def test_criterion_07_rq1_directional():
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        rows = list(pool.map(_criterion7_one, _RQ1_GRID))
    assert len(rows) >= 30
    module_counts = [r[0] for r in rows]
    hardness_values = [r[1] for r in rows]

    rho = spearman(hardness_values, module_counts)
    p = _spearman_permutation_p(hardness_values, module_counts, seed=7)
    assert rho > 0
    assert p < 0.05

    X, y = np.array([r[2] for r in rows], dtype=float), np.array([r[1] for r in rows], dtype=float)
    [(_, importance)] = aspect_regression(
        [(X, y, fold_indices(len(rows), CVSpec(folds=3, shuffle_seed=77)))],
        degrees=(1, 2),
        alphas=[float(a) for a in np.logspace(-4, 0, 20)],
    )
    top = max(importance.weights, key=importance.weights.get)
    assert top == "Module#"
    _report(
        7,
        f"spearman(hardness, Module#) = {rho:.3f} (p = {p:.4f}); "
        f"importance {dict((k, round(v, 3)) for k, v in importance.weights.items())}",
    )


# --------------------------------------------------------------------------
# Criterion 8: RQ2 directional reproduction.


def _criterion8_one(s: int):
    seed = derive(880001, "system", s)
    aspects = sample_aspects(seed, _DESK_RANGES)
    graph = generate_graph(aspects, seed)
    artifacts = derive_knowledge(graph)
    semantics = synthesize_semantics(graph, derive(seed, "trial", 0))
    dataset = sample_dataset(semantics, derive(seed, "trial", 0), n_train=1000, n_test=400)
    shape = SystemShape.from_dataset(dataset)
    budget = SearchBudget(evaluations=2, seed=derive(880001, "search"))
    space = {
        "n_trees": [6, 12],
        "max_depth": [5, 8],
        "min_samples_leaf": [2, 5],
        "feature_subsample": [1.0 / 3.0],
    }
    curves = {}
    for level in ("null", "ideal", "partial", "complete"):
        search = make_search(
            derive(seed, "model", level), (level,), shape, artifacts, budget, space
        )
        points = level_curves(search, dataset, ("scc",), SIZES)[level]
        curves[level] = CurveTable(
            "scc", tuple(p.n for p in points), np.array([[p.efficacies["scc"] for p in points]])
        )
    opp = {
        level: opportunity(curves["null"], curves["ideal"], curves[level], level).value[0]
        for level in ("partial", "complete")
    }
    null_points = dict(zip(curves["null"].sizes, curves["null"].values[0].tolist()))
    return opp["partial"], opp["complete"], null_points


@pytest.mark.slow
def test_criterion_08_rq2_directional():
    n_systems = 20
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_criterion8_one, range(n_systems)))
    partial = [r[0] for r in results]
    complete = [r[1] for r in results]
    assert np.mean(complete) >= np.mean(partial)
    test = mann_whitney_u(partial, complete, alternative="less")
    assert test.p_value < 0.05
    assert test.cles_other > 0.5  # CLES of the complete group

    # identical-sample rows behave like the paper's no-effect rows
    same = mann_whitney_u(partial, list(partial), alternative="less")
    assert same.p_value >= 0.5 and same.cles == 0.5
    flat = [("partial", h, 0.3) for h in ("low", "medium", "high") for _ in range(15)]
    flat += [("practical", h, 0.3) for h in ("low", "medium", "high") for _ in range(15)]
    flat += [("complete", h, 0.3) for h in ("low", "medium", "high") for _ in range(15)]
    for row in matrix_hypothesis_tests(build_matrix(flat, "scc")):
        assert row.p_value >= 0.5 and row.cles_g1 == 0.5 and row.cles_g2 == 0.5

    # learning-curve trend: more data helps the black-box model on average
    small = np.mean([np.mean([pts[20], pts[50]]) for _, _, pts in results])
    large = np.mean([np.mean([pts[500], pts[1000]]) for _, _, pts in results])
    assert large >= small
    _report(
        8,
        f"mean opp complete {np.mean(complete):.3f} > partial {np.mean(partial):.3f} "
        f"(p = {test.p_value:.2e}, CLES = {test.cles_other:.3f}); curve trend {small:.3f}->{large:.3f}",
    )


# --------------------------------------------------------------------------
# Criterion 9: byte-identical reruns of the full pipeline.


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.slow
def test_criterion_09_determinism(tmp_path):
    hashes = []
    for name in ("first", "second"):
        config = ExperimentConfig(
            global_seed=99001,
            n_systems=3,
            trials=1,
            train_sizes=(20, 50, 100),
            n_train=150,
            n_test=80,
            levels=("null", "partial", "ideal"),
            budget_evaluations=2,
            out_dir=str(tmp_path / name),
            jobs=1 if name == "first" else 2,  # parallelism must not matter
        )
        run_generate(config)
        run_model(config)
        run_analyze(config)
        hashes.append(_tree_hash(Path(config.out_dir)))
    assert hashes[0] == hashes[1]
    _report(9, f"two pipeline runs hash to {hashes[0][:16]}")


# --------------------------------------------------------------------------
# Criterion 10: structural outputs (matrix JSON, 27 rows, valid SVG).


def test_criterion_10_structural_outputs(tmp_path):
    rng = np.random.default_rng(10)
    observations = []
    for level, base in (("partial", 0.1), ("practical", 0.2), ("complete", 0.3)):
        for hardness_level, bump in (("low", 0.0), ("medium", 0.05), ("high", 0.1)):
            observations += [
                (level, hardness_level, float(base + bump + rng.normal(0, 0.01)))
                for _ in range(12)
            ]
    matrix = build_matrix(observations, metric="scc")

    doc = json.loads(reporting.matrix_to_json(matrix))
    assert doc["metric"] == "scc"
    assert len(doc["cells"]) == 9
    assert all(cell["n"] == 12 for cell in doc["cells"].values())

    tests = matrix_hypothesis_tests(matrix)
    assert len(tests) == 27
    assert sum(1 for t in tests if t.skipped) == 0
    csv_text = reporting.tests_to_csv(tests)
    assert len(csv_text.strip().splitlines()) == 28  # header + 27 rows

    svg_text = reporting.heatmap_svg(matrix)
    root = ET.fromstring(svg_text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 10  # 9 cells + background
    assert "http" not in svg_text.replace("http://www.w3.org/2000/svg", "")
    _report(10, "matrix JSON (9 cells), 27 hypothesis rows, standalone SVG")

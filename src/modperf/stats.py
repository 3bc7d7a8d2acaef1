"""Nonparametric tests, effect sizes, the Fisher-Z independence screen, and
importance attribution.

The Mann-Whitney U test runs an exact tie-aware permutation enumeration for
small samples and a tie-corrected normal approximation (with continuity
correction) otherwise; group sizes in the opportunity matrix live firmly in
the asymptotic regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .hardness_opportunity import (
    HARDNESS_LEVELS,
    MATRIX_LEVELS,
    HardnessMode,
    OpportunityMatrix,
    build_matrix,
    classify_hardness,
)
from .influence_graph import ASPECT_FEATURES
from .learners import (
    CVSpec,
    FittedL1,
    L1Params,
    alpha_grid,
    cross_validate_l1_many,
    fit_l1,
    fold_indices,
)
from .metrics import rankdata
from .seeds import rng_for

EXACT_MWU_LIMIT = 12
MIN_PIPELINE_RECORDS = 10  # stage 1's fewest aspect records per task
_NORMAL = NormalDist()


@dataclass(frozen=True)
class TestResult:
    p_value: float
    statistic: float
    alternative: str
    cles: float  # P(x > y) + 0.5 P(x = y), for the first group
    method: str = "normal"

    @property
    def cles_other(self) -> float:
        return 1.0 - self.cles


def _u_statistic(ranks: np.ndarray, x_index, n_x: int) -> float:
    return float(ranks[x_index].sum() - n_x * (n_x + 1) / 2.0)


def cles(x, y) -> float:
    """Common-language effect size P(x > y) + 0.5 P(x = y) over all pairs,
    as U_x / (n_x n_y) from the pooled midranks. U_x is that pair count
    exactly: both are half-integers far below 2^53, so no pair matrix is
    needed. No pipeline code calls it: `mann_whitney_u` computes the same
    value as its `cles`. It is kept as the named oracle the acceptance
    tests check that value against, and as the effect-size scale of the
    planned claim estimands (ROADMAP item 8)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty group")
    ranks = rankdata(np.concatenate([x, y]))
    return _u_statistic(ranks, np.arange(x.size), x.size) / (x.size * y.size)


def mann_whitney_u(x, y, alternative: str = "two_sided") -> TestResult:
    """Rank-sum U test for x against y.

    alternative: "greater" means x tends larger than y, "less" the reverse.
    Exact tie-aware enumeration when the pooled size is <= 12.
    """
    if alternative not in ("less", "greater", "two_sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty group")
    n_x, n_y = x.size, y.size
    pooled = np.concatenate([x, y])
    ranks = rankdata(pooled)
    u_obs = _u_statistic(ranks, np.arange(n_x), n_x)
    effect = u_obs / (n_x * n_y)  # cles(x, y)

    if n_x + n_y <= EXACT_MWU_LIMIT:
        # every split of the pooled ranks into x and y; rank sums of
        # half-integers are exact, so the order of summation does not matter
        combos = np.array(list(itertools.combinations(range(n_x + n_y), n_x)))
        u_perm = ranks[combos].sum(axis=1) - n_x * (n_x + 1) / 2.0
        p_greater = int(np.count_nonzero(u_perm >= u_obs)) / len(combos)
        p_less = int(np.count_nonzero(u_perm <= u_obs)) / len(combos)
        if alternative == "greater":
            p = p_greater
        elif alternative == "less":
            p = p_less
        else:
            p = min(1.0, 2.0 * min(p_greater, p_less))
        return TestResult(p_value=p, statistic=u_obs, alternative=alternative,
                          cles=effect, method="exact")

    n = n_x + n_y
    mean_u = n_x * n_y / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts).sum()) / (n * (n - 1)))
    var_u = n_x * n_y / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0.0:
        # Every value tied: no evidence against the null in any direction.
        return TestResult(p_value=1.0, statistic=u_obs, alternative=alternative,
                          cles=effect, method="normal")
    sd = math.sqrt(var_u)
    if alternative == "greater":
        p = 1.0 - _NORMAL.cdf((u_obs - mean_u - 0.5) / sd)
    elif alternative == "less":
        p = _NORMAL.cdf((u_obs - mean_u + 0.5) / sd)
    else:
        z = (abs(u_obs - mean_u) - 0.5) / sd
        p = min(1.0, 2.0 * (1.0 - _NORMAL.cdf(max(z, 0.0))))
    return TestResult(p_value=float(p), statistic=u_obs, alternative=alternative,
                      cles=effect, method="normal")


_Z_CAP = math.atanh(1.0 - 1e-15)


def fisher_z_statistic(X, y) -> np.ndarray:
    """Marginal Fisher-Z statistic sqrt(n - 3) |arctanh r| of each column of
    X against y, where r is the Pearson correlation of the centred vectors.

    r is clipped to +-(1 - 1e-15) and |arctanh r| capped at arctanh(1 - 1e-15),
    so perfect correlation stays finite. A constant column (or a constant y)
    has r = 0: it carries no evidence of dependence.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.shape[0] != n:
        raise ValueError(f"X has {X.shape[0]} rows, y has {n}")
    if n <= 3:
        raise ValueError(f"need more than 3 records, got {n}")
    target = y - y.mean()
    t_norm = math.sqrt(float(target @ target))
    columns = X - X.mean(axis=0)
    col_norms = np.sqrt((columns * columns).sum(axis=0))
    denom = col_norms * t_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0.0, columns.T @ target / np.where(denom == 0, 1, denom), 0.0)
    r = np.clip(r, -1.0 + 1e-15, 1.0 - 1e-15)
    return math.sqrt(n - 3) * np.minimum(np.abs(np.arctanh(r)), _Z_CAP)


def fisher_z_screen(X, y, alpha: float = 0.05) -> np.ndarray:
    """True for each column of X whose two-sided marginal Fisher-Z test
    rejects independence from y at level alpha (statistic strictly above the
    normal critical value)."""
    return fisher_z_statistic(X, y) > _NORMAL.inv_cdf(1.0 - alpha / 2.0)


@dataclass(frozen=True)
class ImportanceVector:
    """Nonnegative per-feature weights normalized to sum 1.

    `degenerate` marks the all-zero raw case, where the normalized weights
    fall back to uniform.
    """

    weights: dict[str, float]
    raw: dict[str, float] = field(compare=False, default_factory=dict)
    degenerate: bool = False

    def __post_init__(self):
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")


def _normalize(raw: dict[str, float]) -> ImportanceVector:
    floored = {k: max(v, 0.0) for k, v in raw.items()}
    total = sum(floored.values())
    if total <= 0.0:
        uniform = {k: 1.0 / len(floored) for k in floored}
        return ImportanceVector(weights=uniform, raw=raw, degenerate=True)
    return ImportanceVector(weights={k: v / total for k, v in floored.items()}, raw=raw)


def permutation_importance(
    model, X, y, loss, repeats: int = 5, seed: int = 0, feature_names=None
) -> ImportanceVector:
    """Mean loss increase from seeded within-column shuffles, per feature."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    names = list(feature_names) if feature_names is not None else [f"x{i}" for i in range(d)]
    baseline = loss(y, model.predict(X))
    rng = rng_for(seed, "perm_importance")
    raw = {}
    for j in range(d):
        increases = []
        for _ in range(repeats):
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(len(X)), j]
            increases.append(loss(y, model.predict(shuffled)) - baseline)
        raw[names[j]] = float(np.mean(increases))
    return _normalize(raw)


def shapley_importance(model, X, y, loss, feature_names=None) -> tuple[ImportanceVector, float]:
    """Exact Shapley attribution of the model's loss reduction over features.

    Features outside a coalition are imputed with their column mean. Each of
    the 2^d coalitions is scored once, by one `model.predict`, and feature
    j's raw value is the Shapley-weighted sum of its marginal loss reductions
    over the coalitions without it. Returns the importance vector plus the
    total loss reduction (loss with no features minus loss with all), which
    the raw values sum to. Stage 1's five aspect features make 32
    coalitions; more than 20 features raise ValueError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    if d > 20:
        raise ValueError(f"exact Shapley supports at most 20 features, got {d}")
    names = list(feature_names) if feature_names is not None else [f"x{i}" for i in range(d)]
    background = X.mean(axis=0)
    bits = 1 << np.arange(d)
    # losses[mask]: the loss with the features whose bits are set in `mask`
    losses = [
        loss(y, model.predict(np.where((mask & bits) != 0, X, background)))
        for mask in range(1 << d)
    ]
    weights = [math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d) for s in range(d)]
    contributions = [0.0] * d
    for mask, value in enumerate(losses):
        for j in range(d):
            if not mask >> j & 1:
                contributions[j] += weights[mask.bit_count()] * (value - losses[mask | 1 << j])
    return _normalize(dict(zip(names, contributions))), float(losses[0] - losses[-1])


ASPECT_GROUPS = {
    "Option#": ("option_count",),
    "IEWithin_p": ("p_w",),
    "IEAcross_p": ("mu_a", "sigma_a"),
    "Module#": ("module_count",),
}


def group_importance(vector: ImportanceVector) -> ImportanceVector:
    """Pool a per-feature vector into `ASPECT_GROUPS`: each group's raw value
    is the sum of its members' raw values floored at 0, then normalized."""
    return _normalize(
        {g: sum(max(vector.raw.get(f, 0.0), 0.0) for f in m) for g, m in ASPECT_GROUPS.items()}
    )


def system_folds(systems, spec: CVSpec) -> list[np.ndarray]:
    """Held-out record indices of the stage-1 folds: `fold_indices` over the
    distinct systems, in order of first appearance in `systems` (one system
    id per record), each fold expanded to every record of its systems. So no
    system has records on both sides of a split, and with one record per
    system the folds are `fold_indices(len(systems), spec)`. With fewer
    systems than `spec.folds`, each system is its own fold."""
    index: dict = {}
    codes = np.array([index.setdefault(s, len(index)) for s in systems], dtype=int)
    if len(index) < 2:
        raise ValueError(f"stage-1 folds need records of >= 2 systems, got {len(index)}")
    spec = CVSpec(folds=min(spec.folds, len(index)), shuffle_seed=spec.shuffle_seed)
    return [np.flatnonzero(np.isin(codes, fold)) for fold in fold_indices(len(index), spec)]


def aspect_regression(tasks, degrees=(1, 2, 3, 4), alphas=None) -> list[tuple[FittedL1, ImportanceVector]]:
    """Regress hardness on scaled structural aspects with a grid-searched
    lasso, then attribute coefficient mass to the aspect quadruple; one
    (model, importance) pair per task.

    A task is (X, y, folds): X holds one row of `ASPECT_FEATURES` per
    record, already scaled to [0, 1] by their value-space bounds, y the
    hardness, and folds the held-out index arrays (`fold_indices`,
    `system_folds`). Each task scores every (degree, alpha) pair by its mean
    held-out MSE, keeps the first lowest loss with degrees outer
    (`np.argmin`) and refits on all its records with `fit_l1`. Every task's
    (fold, alpha) problems of one degree go through one
    `cross_validate_l1_many` call; a task's losses do not depend on the
    other tasks, bit for bit. The refit's `cv_solves` says how its task's
    problems ended, per degree. `alphas` defaults to `alpha_grid()`, 500
    alphas.

    A mixed polynomial term splits its |coefficient| equally across the
    distinct aspects it touches (`ASPECT_GROUPS`).
    """
    data = [(np.asarray(X, dtype=float), np.asarray(y, dtype=float), folds) for X, y, folds in tasks]
    for _, y, _ in data:
        if len(y) < MIN_PIPELINE_RECORDS:
            raise ValueError(f"need >= {MIN_PIPELINE_RECORDS} records, got {len(y)}")
    alphas = alpha_grid() if alphas is None else np.asarray(alphas, dtype=float)
    cvs = [cross_validate_l1_many(data, int(d), alphas) for d in degrees]
    losses = np.array(cvs)

    names = list(ASPECT_FEATURES)
    feature_to_group = {}
    for group, members in ASPECT_GROUPS.items():
        for member in members:
            feature_to_group[member] = group
    fits = []
    for t, (X, y, _) in enumerate(data):
        d_idx, a_idx = np.unravel_index(np.argmin(losses[:, t]), losses[:, t].shape)
        degree, alpha = int(degrees[d_idx]), float(alphas[a_idx])
        model = fit_l1(X, y, L1Params(alpha=alpha, degree=degree), feature_names=names)
        model.cv_solves = {int(d): cv.solves[t] for d, cv in zip(degrees, cvs)}
        raw = {group: 0.0 for group in ASPECT_GROUPS}
        for term, coef in zip(model.expansion.term_features(), model.coefs):
            groups = sorted({feature_to_group[names[i]] for i in term})
            for group in groups:
                raw[group] += abs(float(coef)) / len(groups)
        fits.append((model, _normalize(raw)))
    return fits


@dataclass(frozen=True)
class HypothesisTest:
    family: str  # "hardness" | "knowledge" | "cross"
    hypothesis_id: str
    group1: tuple[str, str]  # (knowledge level, hardness level)
    group2: tuple[str, str]
    alternative: str
    n1: int
    n2: int
    p_value: float | None
    cles_g1: float | None
    cles_g2: float | None
    significant: bool
    skipped: bool


def _cell_pairs():
    """The 27 hypothesis rows, 9 per family: hardness effects within a fixed
    knowledge level, knowledge effects within a fixed hardness level, and
    cross comparisons of lower-hardness/higher-knowledge cells against
    higher-hardness/lower-knowledge ones."""
    rows = []
    hardness_pairs = [("low", "medium"), ("low", "high"), ("medium", "high")]
    for level in MATRIX_LEVELS:
        for h1, h2 in hardness_pairs:
            rows.append(("hardness", (level, h1), (level, h2), "less"))
    knowledge_pairs = [("partial", "practical"), ("partial", "complete"), ("practical", "complete")]
    for hardness_level in HARDNESS_LEVELS:
        for k1, k2 in knowledge_pairs:
            rows.append(("knowledge", (k1, hardness_level), (k2, hardness_level), "less"))
    cross = [
        (("practical", "low"), ("partial", "medium")),
        (("complete", "low"), ("partial", "medium")),
        (("complete", "low"), ("practical", "medium")),
        (("practical", "low"), ("partial", "high")),
        (("complete", "low"), ("partial", "high")),
        (("practical", "medium"), ("partial", "high")),
        (("complete", "medium"), ("partial", "high")),
        (("complete", "low"), ("practical", "high")),
        (("complete", "medium"), ("practical", "high")),
    ]
    for g1, g2 in cross:
        rows.append(("cross", g1, g2, "two_sided"))
    return rows


def matrix_hypothesis_tests(matrix: OpportunityMatrix, alpha: float = 0.05) -> list[HypothesisTest]:
    """Run the full 27-test battery over a populated opportunity matrix.

    Tests touching an empty cell are emitted as skipped rows, with no
    p-value and no effect sizes, rather than dropped, so the table shape
    stays constant.
    """
    results = []
    for family, g1, g2, alternative in _cell_pairs():
        cell1 = matrix.cell(*g1)
        cell2 = matrix.cell(*g2)
        skipped = cell1.empty or cell2.empty
        res = None if skipped else mann_whitney_u(cell1.samples, cell2.samples, alternative=alternative)
        results.append(
            HypothesisTest(
                family=family, hypothesis_id=f"{family}:{g1[0]},{g1[1]}-vs-{g2[0]},{g2[1]}",
                group1=g1, group2=g2, alternative=alternative, n1=cell1.count, n2=cell2.count,
                p_value=None if skipped else res.p_value,
                cles_g1=None if skipped else res.cles,
                cles_g2=None if skipped else res.cles_other,
                significant=not skipped and res.p_value < alpha, skipped=skipped,
            )
        )
    return results


@dataclass
class PipelineResult:
    model: FittedL1 | None  # None: stage 1 skipped, units classified by measured hardness
    importance: ImportanceVector | None
    hardness_by_unit: dict[str, tuple[float, str]]  # id -> (hardness used, level)
    matrix: OpportunityMatrix
    tests: list[HypothesisTest]


def two_stage_pipeline(
    tasks: dict[str, tuple],
    cv: dict[str, CVSpec],
    degrees=(1, 2, 3, 4),
    alphas=None,
    hardness_mode: HardnessMode = HardnessMode.FIXED_RANGE,
    alpha: float = 0.05,
    use_measured_hardness: bool = False,
) -> dict[str, PipelineResult]:
    """Stage 1 regresses hardness on aspects; stage 2 classifies each unit
    by its predicted hardness (or measured, for sensitivity runs), routes
    opportunity values into the matrix, and runs the test battery. One
    result per metric; every staged metric's stage 1 runs in one
    `aspect_regression` call.

    tasks: metric -> (unit ids, system ids, scaled aspect rows X, measured
    hardness, opportunity records), one entry of the first four per unit;
    an opportunity record is (unit id, knowledge level, value).
    cv: metric -> the spec of that metric's stage-1 folds (`system_folds`).

    A metric with fewer than `MIN_PIPELINE_RECORDS` units, or whose units
    all come from one system, skips stage 1: its model is None and its
    units are classified by measured hardness. Empirical mode bins against
    the population of the hardness values used, whose quartiles are
    computed once.
    """
    staged = [
        metric for metric, (_, systems, _, measured, _) in tasks.items()
        if len(measured) >= MIN_PIPELINE_RECORDS and len(set(systems)) >= 2
    ]
    stage1 = [(tasks[m][2], tasks[m][3], system_folds(tasks[m][1], cv[m])) for m in staged]
    fits = dict(zip(staged, aspect_regression(stage1, degrees, alphas))) if staged else {}
    results = {}
    for metric, (units, _, X, measured, opportunity_records) in tasks.items():
        model, importance = fits.get(metric, (None, None))
        used = measured if model is None or use_measured_hardness else model.predict(X)
        labels = classify_hardness(used, hardness_mode, used) if len(used) else []
        by_unit = {unit: (float(v), label) for unit, v, label in zip(units, used, labels)}
        observations = []
        for unit, level, value in opportunity_records:
            if unit not in by_unit:
                raise ValueError(f"opportunity record for unknown unit {unit!r}")
            observations.append((level, by_unit[unit][1], value))
        matrix = build_matrix(observations, metric=metric)
        results[metric] = PipelineResult(
            model, importance, by_unit, matrix, matrix_hypothesis_tests(matrix, alpha=alpha)
        )
    return results

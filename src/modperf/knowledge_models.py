"""The four knowledge-level performance modelers and efficacy curves.

Null fits one forest from option bits to performance. Partial chains
per-module forests (options -> own IVs) into an aggregator over all IVs.
Practical builds a structural model over the potential-influence-edge
superset with Fisher-Z pruning of irrelevant candidate parents; Complete is
the same machinery run on the exact influence edges. Ideal consumes the
measured IVs of test records directly, bounding every other level from
above.

IV regressors are trained on measured upstream values (teacher forcing) and
predict on cascaded estimates, matching how a structural causal model is
fit from observational data. For a fixed (dataset, training size) all
levels consume the identical training prefix, the identical candidate list,
and the identical search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import MeasurementRecord, SystemDataset, training_prefix
from .influence_graph import KnowledgeArtifacts, NodeId, NodeKind
from .learners import (
    CVSpec,
    ForestParams,
    SearchBudget,
    enumerate_candidates,
    fit_forest,
    fold_indices,
    forest_search_space,
    mse,
)
from .metrics import efficacy
from .seeds import derive

LEVELS = ("null", "partial", "practical", "complete", "ideal")
DEFAULT_ALPHA_CI = 0.05


@dataclass(frozen=True)
class SystemShape:
    """Canonical node orders binding record vectors to graph nodes."""

    options: tuple[NodeId, ...]
    ivs: tuple[NodeId, ...]
    perf_index: int = 0
    _option_cols: dict[NodeId, int] = field(init=False, repr=False, compare=False)
    _iv_cols: dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_option_cols", {n: i for i, n in enumerate(self.options)})
        object.__setattr__(self, "_iv_cols", {n: i for i, n in enumerate(self.ivs)})

    @staticmethod
    def from_dataset(dataset: SystemDataset, perf_index: int = 0) -> "SystemShape":
        return SystemShape(
            options=tuple(NodeId.decode(n) for n in dataset.option_names),
            ivs=tuple(NodeId.decode(n) for n in dataset.iv_names),
            perf_index=perf_index,
        )

    def option_col(self, node: NodeId) -> int:
        return self._option_cols[node]

    def iv_col(self, node: NodeId) -> int:
        return self._iv_cols[node]


class MeanModel:
    """Constant predictor, the fallback for IVs left without parents."""

    def __init__(self, value: float):
        self.value = float(value)

    def predict(self, X) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.value)


@dataclass
class IVModel:
    node: NodeId
    inputs: tuple[NodeId, ...]
    model: object
    fallback: bool = False


@dataclass
class ModularPredictor:
    level: str
    shape: SystemShape
    perf_model: object
    perf_inputs: tuple[NodeId, ...]
    iv_models: dict[NodeId, IVModel] = field(default_factory=dict)
    evaluation_order: tuple[NodeId, ...] = ()
    search_meta: dict = field(default_factory=dict)

    def _matrices(self, records: list[MeasurementRecord]) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray([r.config for r in records], dtype=float)
        ivs = np.asarray([r.iv_values for r in records], dtype=float)
        return bits, ivs

    def _gather(self, nodes, bits: np.ndarray, iv_values: dict[NodeId, np.ndarray]) -> np.ndarray:
        columns = []
        for node in nodes:
            if node.kind is NodeKind.OPTION:
                columns.append(bits[:, self.shape.option_col(node)])
            else:
                columns.append(iv_values[node])
        return np.column_stack(columns) if columns else np.empty((bits.shape[0], 0))

    def predict(self, records: list[MeasurementRecord]) -> np.ndarray:
        bits, measured_ivs = self._matrices(records)
        if self.level == "null":
            return self.perf_model.predict(bits)
        if self.level == "ideal":
            return self.perf_model.predict(measured_ivs)
        predicted: dict[NodeId, np.ndarray] = {}
        for node in self.evaluation_order:
            iv_model = self.iv_models[node]
            X = self._gather(iv_model.inputs, bits, predicted)
            predicted[node] = iv_model.model.predict(X)
        perf_in = np.column_stack([predicted[iv] for iv in self.perf_inputs])
        return self.perf_model.predict(perf_in)


def _perf_target(records: list[MeasurementRecord], perf_index: int) -> np.ndarray:
    return np.asarray([r.perf_values[perf_index] for r in records], dtype=float)


def _forest_params(candidate: dict, seed: int) -> ForestParams:
    return ForestParams(
        n_trees=int(candidate["n_trees"]),
        max_depth=int(candidate["max_depth"]),
        min_samples_leaf=int(candidate["min_samples_leaf"]),
        feature_subsample=float(candidate["feature_subsample"]),
        bootstrap_seed=seed,
    )


def _searched_fit(build_fn, records, budget, cv, space, seed) -> tuple[object, dict]:
    """Shared search loop: same candidate list and objective-call count for
    every knowledge level, per the fairness requirement.

    `build_fn(records, candidate, seed_tag)` returns a fitted predictor-like
    object exposing predict(records) -> perf vector.
    """
    candidates = enumerate_candidates(space, budget)
    best = None
    for c_idx, candidate in enumerate(candidates):
        fold_losses = []
        for f_idx, held_out in enumerate(fold_indices(len(records), cv)):
            mask = np.ones(len(records), dtype=bool)
            mask[held_out] = False
            fit_records = [records[i] for i in np.nonzero(mask)[0]]
            held_records = [records[i] for i in held_out]
            model = build_fn(fit_records, candidate, ("cv", c_idx, f_idx))
            fold_losses.append(mse(model.target(held_records), model.predict(held_records)))
        loss = float(np.mean(fold_losses))
        if best is None or loss < best[0]:
            best = (loss, c_idx, candidate)
    _, c_idx, candidate = best
    final = build_fn(records, candidate, ("final",))
    meta = {
        "candidates": candidates,
        "chosen": candidate,
        "cv_loss": best[0],
        "budget": budget.evaluations,
    }
    return final, meta


class _PipelineHandle:
    """Adapter giving _searched_fit a uniform predict/target interface."""

    def __init__(self, predictor: ModularPredictor, perf_index: int):
        self.predictor = predictor
        self.perf_index = perf_index

    def predict(self, records):
        return self.predictor.predict(records)

    def target(self, records):
        return _perf_target(records, self.perf_index)


def _min_folds_check(records, cv: CVSpec):
    if len(records) < cv.folds:
        raise ValueError(f"need at least {cv.folds} records, got {len(records)}")


def fit_null(
    records: list[MeasurementRecord],
    shape: SystemShape,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict | None = None,
    seed: int = 0,
) -> ModularPredictor:
    """Single tuned forest from option bits to the performance value."""
    _min_folds_check(records, cv)
    space = space or forest_search_space(len(shape.options))

    def build(recs, candidate, tag):
        bits = np.asarray([r.config for r in recs], dtype=float)
        y = _perf_target(recs, shape.perf_index)
        forest = fit_forest(bits, y, _forest_params(candidate, derive(seed, "null", *tag)))
        return _PipelineHandle(
            ModularPredictor(level="null", shape=shape, perf_model=forest, perf_inputs=()),
            shape.perf_index,
        )

    handle, meta = _searched_fit(build, records, budget, cv, space, seed)
    handle.predictor.search_meta = meta
    return handle.predictor


def fit_ideal(
    records: list[MeasurementRecord],
    shape: SystemShape,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict | None = None,
    seed: int = 0,
) -> ModularPredictor:
    """Tuned forest from measured IVs to performance; at evaluation time it
    consumes the test records' true IVs."""
    _min_folds_check(records, cv)
    space = space or forest_search_space(len(shape.ivs))

    def build(recs, candidate, tag):
        ivs = np.asarray([r.iv_values for r in recs], dtype=float)
        y = _perf_target(recs, shape.perf_index)
        forest = fit_forest(ivs, y, _forest_params(candidate, derive(seed, "ideal", *tag)))
        return _PipelineHandle(
            ModularPredictor(level="ideal", shape=shape, perf_model=forest, perf_inputs=()),
            shape.perf_index,
        )

    handle, meta = _searched_fit(build, records, budget, cv, space, seed)
    handle.predictor.search_meta = meta
    return handle.predictor


def _fit_hierarchy(
    level: str,
    records: list[MeasurementRecord],
    shape: SystemShape,
    parents_by_iv: dict[NodeId, tuple[NodeId, ...]],
    budget: SearchBudget,
    cv: CVSpec,
    space: dict | None,
    seed: int,
) -> ModularPredictor:
    _min_folds_check(records, cv)
    space = space or forest_search_space(max(len(shape.options), len(shape.ivs)))
    order = _cascade_order(shape, parents_by_iv)

    def build(recs, candidate, tag):
        bits = np.asarray([r.config for r in recs], dtype=float)
        measured = np.asarray([r.iv_values for r in recs], dtype=float)
        y = _perf_target(recs, shape.perf_index)
        iv_models = {}
        for iv in order:
            parents = parents_by_iv[iv]
            target = measured[:, shape.iv_col(iv)]
            node_seed = derive(seed, level, iv.encode(), *tag)
            if not parents:
                iv_models[iv] = IVModel(node=iv, inputs=(), model=MeanModel(target.mean()), fallback=True)
                continue
            columns = []
            for p in parents:
                if p.kind is NodeKind.OPTION:
                    columns.append(bits[:, shape.option_col(p)])
                else:
                    columns.append(measured[:, shape.iv_col(p)])
            X = np.column_stack(columns)
            forest = fit_forest(X, target, _forest_params(candidate, node_seed))
            iv_models[iv] = IVModel(node=iv, inputs=parents, model=forest)
        perf_forest = fit_forest(
            measured, y, _forest_params(candidate, derive(seed, level, "perf", *tag))
        )
        predictor = ModularPredictor(
            level=level,
            shape=shape,
            perf_model=perf_forest,
            perf_inputs=shape.ivs,
            iv_models=iv_models,
            evaluation_order=order,
        )
        return _PipelineHandle(predictor, shape.perf_index)

    handle, meta = _searched_fit(build, records, budget, cv, space, seed)
    handle.predictor.search_meta = meta
    return handle.predictor


def _cascade_order(shape: SystemShape, parents_by_iv: dict) -> tuple[NodeId, ...]:
    """Canonical IV order; valid because IV->IV parents always precede their
    children in the fixed total order the generator enforces."""
    for iv, parents in parents_by_iv.items():
        for p in parents:
            if p.kind is NodeKind.INTERMEDIATE and not p < iv:
                raise ValueError(f"IV parent {p} does not precede {iv}")
    return tuple(sorted(parents_by_iv, key=shape.ivs.index))


def fit_partial(
    records: list[MeasurementRecord],
    boundaries: dict[int, tuple[tuple[NodeId, ...], tuple[NodeId, ...]]],
    shape: SystemShape,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict | None = None,
    seed: int = 0,
) -> ModularPredictor:
    """Per-IV forests from the IV's own module options, aggregated by a
    forest over all IVs."""
    parents_by_iv: dict[NodeId, tuple[NodeId, ...]] = {}
    for _, (options, ivs) in sorted(boundaries.items()):
        for iv in ivs:
            parents_by_iv[iv] = tuple(options)
    missing = set(shape.ivs) - set(parents_by_iv)
    if missing:
        raise ValueError(f"boundaries do not cover IVs: {sorted(missing)}")
    return _fit_hierarchy("partial", records, shape, parents_by_iv, budget, cv, space, seed)


def prune_parents(
    records: list[MeasurementRecord],
    shape: SystemShape,
    candidates_by_iv: dict[NodeId, tuple[NodeId, ...]],
    alpha_ci: float,
) -> dict[NodeId, tuple[NodeId, ...]]:
    """Marginal Fisher-Z screen: keep a candidate parent only when the test
    rejects independence from the IV at level alpha_ci.

    Vectorized form of stats.fisher_z_test with an empty conditioning set;
    degenerate (constant) columns count as independent.
    """
    from statistics import NormalDist

    bits = np.asarray([r.config for r in records], dtype=float)
    measured = np.asarray([r.iv_values for r in records], dtype=float)
    n = len(records)
    if n <= 3:
        raise ValueError(f"need more than 3 records to prune, got {n}")
    critical = NormalDist().inv_cdf(1.0 - alpha_ci / 2.0)
    z_cap = math.atanh(1.0 - 1e-15)
    surviving: dict[NodeId, tuple[NodeId, ...]] = {}
    for iv, candidates in candidates_by_iv.items():
        if not candidates:
            surviving[iv] = ()
            continue
        target = measured[:, shape.iv_col(iv)]
        target = target - target.mean()
        t_norm = math.sqrt(float(target @ target))
        columns = np.column_stack(
            [
                bits[:, shape.option_col(p)]
                if p.kind is NodeKind.OPTION
                else measured[:, shape.iv_col(p)]
                for p in candidates
            ]
        )
        columns = columns - columns.mean(axis=0)
        col_norms = np.sqrt((columns * columns).sum(axis=0))
        denom = col_norms * t_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0.0, columns.T @ target / np.where(denom == 0, 1, denom), 0.0)
        r = np.clip(r, -1.0 + 1e-15, 1.0 - 1e-15)
        statistic = math.sqrt(n - 3) * np.minimum(np.abs(np.arctanh(r)), z_cap)
        surviving[iv] = tuple(p for p, s in zip(candidates, statistic) if s > critical)
    return surviving


def _pie_candidates(
    shape: SystemShape, edges: frozenset[tuple[NodeId, NodeId]]
) -> dict[NodeId, tuple[NodeId, ...]]:
    candidates: dict[NodeId, list[NodeId]] = {iv: [] for iv in shape.ivs}
    for src, dst in edges:
        if dst.kind is NodeKind.INTERMEDIATE:
            candidates[dst].append(src)
    return {iv: tuple(sorted(parents)) for iv, parents in candidates.items()}


def fit_practical(
    records: list[MeasurementRecord],
    pie: frozenset[tuple[NodeId, NodeId]],
    shape: SystemShape,
    alpha_ci: float = DEFAULT_ALPHA_CI,
    budget: SearchBudget = SearchBudget(evaluations=1),
    cv: CVSpec = CVSpec(),
    space: dict | None = None,
    seed: int = 0,
    level: str = "practical",
) -> ModularPredictor:
    """Structural model over the PIE superset with Fisher-Z pruning.

    Run with the exact influence edges in place of PIE (level="complete")
    this realizes the Complete knowledge level.
    """
    candidates = _pie_candidates(shape, pie)
    parents_by_iv = prune_parents(records, shape, candidates, alpha_ci)
    return _fit_hierarchy(level, records, shape, parents_by_iv, budget, cv, space, seed)


def fit_complete(
    records: list[MeasurementRecord],
    ie: frozenset[tuple[NodeId, NodeId]],
    shape: SystemShape,
    alpha_ci: float = DEFAULT_ALPHA_CI,
    budget: SearchBudget = SearchBudget(evaluations=1),
    cv: CVSpec = CVSpec(),
    space: dict | None = None,
    seed: int = 0,
) -> ModularPredictor:
    return fit_practical(
        records, ie, shape, alpha_ci=alpha_ci, budget=budget, cv=cv, space=space,
        seed=seed, level="complete",
    )


def make_factory(
    level: str,
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict | None = None,
    alpha_ci: float = DEFAULT_ALPHA_CI,
    seed: int = 0,
):
    """Bind a knowledge level to its structural inputs, leaving only the
    training records free. Used by efficacy_curve."""
    if level in ("partial", "practical", "complete") and artifacts is None:
        raise ValueError(f"level {level!r} requires knowledge artifacts")

    def factory(records):
        if level == "null":
            return fit_null(records, shape, budget, cv, space, seed)
        if level == "ideal":
            return fit_ideal(records, shape, budget, cv, space, seed)
        if level == "partial":
            return fit_partial(records, artifacts.logical_boundaries, shape, budget, cv, space, seed)
        if level == "practical":
            return fit_practical(
                records, artifacts.potential_influence_edges, shape,
                alpha_ci=alpha_ci, budget=budget, cv=cv, space=space, seed=seed,
            )
        if level == "complete":
            return fit_complete(
                records, artifacts.influence_edges, shape,
                alpha_ci=alpha_ci, budget=budget, cv=cv, space=space, seed=seed,
            )
        raise ValueError(f"unknown level {level!r}")

    return factory


@dataclass(frozen=True)
class CurvePoint:
    n: int
    efficacies: dict[str, float]
    error: str | None = None


def efficacy_curves(
    factory,
    dataset: SystemDataset,
    metrics: tuple[str, ...],
    sizes: tuple[int, ...],
    perf_index: int = 0,
) -> list[CurvePoint]:
    """Fit on each nested training prefix and score the full test set.

    A failing fit marks its point rather than aborting the curve; one fit
    serves all requested metrics so they see identical predictions.
    """
    if max(sizes) > len(dataset.train):
        raise ValueError(f"max size {max(sizes)} exceeds training set {len(dataset.train)}")
    actual = _perf_target(dataset.test, perf_index)
    points = []
    for n in sorted(sizes):
        try:
            model = factory(training_prefix(dataset, n))
            predictions = model.predict(dataset.test)
            values = {m: float(efficacy(m, predictions, actual)) for m in metrics}
            points.append(CurvePoint(n=n, efficacies=values))
        except Exception as exc:  # isolate per-point failures
            points.append(CurvePoint(n=n, efficacies={}, error=f"{type(exc).__name__}: {exc}"))
    return points


def efficacy_curve(factory, dataset: SystemDataset, metric: str, sizes, perf_index: int = 0):
    """Single-metric view of efficacy_curves: ordered (n, efficacy) pairs."""
    points = efficacy_curves(factory, dataset, tuple([metric]), tuple(sizes), perf_index)
    return [(p.n, p.efficacies.get(metric)) for p in points]

"""The five knowledge-level performance modelers and efficacy curves.

Null fits one forest from option bits to performance. Partial chains
per-module forests (options -> own IVs) into an aggregator over all IVs.
Practical builds a structural model over the potential-influence-edge
superset with Fisher-Z pruning of irrelevant candidate parents; Complete is
the same machinery run on the exact influence edges. Ideal consumes the
measured IVs of test records directly, bounding every other level from
above.

The levels differ only in the IV parent sets their knowledge yields
(`LEVEL_PARENTS`). `make_factory` fits every level the same way: it stacks
the training records into one design matrix, finds the IV parents on it once,
and scores every candidate with `learners.cross_validate_many` over the same
fold index arrays; the first candidate with the lowest mean held-out MSE
(`np.argmin`) is refitted on all rows. IV regressors are trained on
measured upstream values (teacher forcing) and predict on cascaded
estimates, matching how a structural causal model is fit from observational
data. Teacher forcing makes every forest of a search independent, so all
forests of every (candidate, fold) fit grow in one `fit_forests` call and
the refit's in a second. For a fixed (dataset, training size) all levels
consume the identical training prefix, the identical candidate list, folds
and search budget.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .dataset import MeasurementRecord, SystemDataset, training_prefix
from .influence_graph import KnowledgeArtifacts, NodeId, NodeKind
from .learners import (
    CVSpec,
    ForestParams,
    SearchBudget,
    cross_validate_many,
    enumerate_candidates,
    fit_forests,
    fold_indices,
)
from .learners import fit_forest  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 1)
from .metrics import efficacy
from .seeds import derive
from .stats import fisher_z_screen

DEFAULT_ALPHA_CI = 0.05


@dataclass(frozen=True)
class SystemShape:
    """Canonical node orders binding record vectors to graph nodes.

    A record's design row is its option bits followed by its measured IVs;
    `column` and `gather` map nodes to their positions in that row.
    """

    options: tuple[NodeId, ...]
    ivs: tuple[NodeId, ...]
    _cols: dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_cols", {n: i for i, n in enumerate(self.options + self.ivs)}
        )

    @staticmethod
    def from_dataset(dataset: SystemDataset) -> "SystemShape":
        return SystemShape(
            options=tuple(NodeId.decode(n) for n in dataset.option_names),
            ivs=tuple(NodeId.decode(n) for n in dataset.iv_names),
        )

    def column(self, node: NodeId) -> int:
        return self._cols[node]

    def gather(self, Z: np.ndarray, nodes) -> np.ndarray:
        """The columns of design rows Z holding `nodes`, as a C-ordered copy."""
        return Z.take([self._cols[n] for n in nodes], axis=1)


def design(records: list[MeasurementRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Design rows of the records, in the layout SystemShape describes, and
    their first performance value, the target every level models."""
    bits = np.asarray([r.config for r in records], dtype=float)
    ivs = np.asarray([r.iv_values for r in records], dtype=float)
    perf = np.asarray([r.perf_values[0] for r in records], dtype=float)
    return np.hstack([bits, ivs]), perf


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

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Predict from design rows. A copy of Z has each modelled IV's column
        overwritten with its cascaded estimate; IVs without a model keep their
        measured values, and Z itself is left unchanged."""
        shape = self.shape
        Z = np.array(Z, dtype=float)
        for node in self.evaluation_order:
            iv_model = self.iv_models[node]
            X = shape.gather(Z, iv_model.inputs)
            Z[:, shape.column(node)] = iv_model.model.predict(X)
        return self.perf_model.predict(shape.gather(Z, self.perf_inputs))


def _forest_params(candidate: dict, seed: int) -> ForestParams:
    return ForestParams(
        n_trees=int(candidate["n_trees"]),
        max_depth=int(candidate["max_depth"]),
        min_samples_leaf=int(candidate["min_samples_leaf"]),
        feature_subsample=float(candidate["feature_subsample"]),
        bootstrap_seed=seed,
    )


def _boundary_parents(artifacts: KnowledgeArtifacts, shape: SystemShape, Z, alpha_ci):
    """Each IV's parents are the options of its own module."""
    parents = {
        iv: tuple(options)
        for _, (options, ivs) in sorted(artifacts.logical_boundaries.items())
        for iv in ivs
    }
    missing = set(shape.ivs) - set(parents)
    if missing:
        raise ValueError(f"boundaries do not cover IVs: {sorted(missing)}")
    return parents


def _pruned_parents(edges_of):
    """Parent finder keeping the candidates from `edges_of(artifacts)` that
    pass the Fisher-Z screen on the training design rows."""

    def parents(artifacts: KnowledgeArtifacts, shape: SystemShape, Z, alpha_ci):
        candidates: dict[NodeId, list[NodeId]] = {iv: [] for iv in shape.ivs}
        for src, dst in edges_of(artifacts):
            if dst.kind is NodeKind.INTERMEDIATE:
                candidates[dst].append(src)
        candidates_by_iv = {iv: tuple(sorted(ps)) for iv, ps in candidates.items()}
        return prune_parents(Z, shape, candidates_by_iv, alpha_ci)

    return parents


# Level -> function of (artifacts, shape, design rows, alpha_ci) giving each IV's
# parents; None for levels without IV models.
LEVEL_PARENTS = {
    "null": None,
    "partial": _boundary_parents,
    "practical": _pruned_parents(operator.attrgetter("potential_influence_edges")),
    "complete": _pruned_parents(operator.attrgetter("influence_edges")),
    "ideal": None,
}
LEVELS = tuple(LEVEL_PARENTS)


def _level_problems(level, shape, parents_by_iv, order, seed, Z, perf, candidate, tag):
    """The forest problems of one level's model for one candidate on design
    rows Z, as (X, y, params) triples: the IV forests in `order`, skipping IVs
    without parents, then the perf forest.

    Seed paths: IV forest derive(seed, level, iv.encode(), *tag); perf forest
    derive(seed, level, *tag) without IV models, derive(seed, level, "perf",
    *tag) on top of a cascade.
    """
    problems = [
        (
            shape.gather(Z, parents_by_iv[iv]),
            Z[:, shape.column(iv)],
            _forest_params(candidate, derive(seed, level, iv.encode(), *tag)),
        )
        for iv in order
        if parents_by_iv[iv]
    ]
    perf_tag = tag if parents_by_iv is None else ("perf", *tag)
    params = _forest_params(candidate, derive(seed, level, *perf_tag))
    problems.append((shape.gather(Z, _perf_inputs(level, shape)), perf, params))
    return problems


def _assemble_level(level, shape, parents_by_iv, order, Z, forests):
    """One level's model on design rows Z, taking the forests fitted to its
    `_level_problems` from the iterator `forests`, in that order; an IV
    without parents falls back to its mean on Z."""
    iv_models = {
        iv: IVModel(iv, parents_by_iv[iv], next(forests))
        if parents_by_iv[iv]
        else IVModel(iv, (), MeanModel(Z[:, shape.column(iv)].mean()), fallback=True)
        for iv in order
    }
    return ModularPredictor(
        level=level,
        shape=shape,
        perf_model=next(forests),
        perf_inputs=_perf_inputs(level, shape),
        iv_models=iv_models,
        evaluation_order=order,
    )


def _perf_inputs(level, shape):
    return shape.options if level == "null" else shape.ivs


def prune_parents(
    Z: np.ndarray,
    shape: SystemShape,
    candidates_by_iv: dict[NodeId, tuple[NodeId, ...]],
    alpha_ci: float,
) -> dict[NodeId, tuple[NodeId, ...]]:
    """Keep a candidate parent only when `stats.fisher_z_screen` on design
    rows Z rejects its independence from the IV at level alpha_ci."""
    surviving = {}
    for iv, candidates in candidates_by_iv.items():
        keep = fisher_z_screen(shape.gather(Z, candidates), Z[:, shape.column(iv)], alpha_ci)
        surviving[iv] = tuple(p for p, k in zip(candidates, keep) if k)
    return surviving


def make_factory(
    level: str,
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict,
    alpha_ci: float = DEFAULT_ALPHA_CI,
    seed: int = 0,
):
    """Bind a knowledge level to its structural inputs, leaving only the
    training records free.

    The returned callable stacks its records into design rows once, finds
    the level's IV parents on them, scores every candidate with
    `cross_validate_many` over the shared fold index arrays, keeps the first
    candidate with the lowest mean held-out MSE and refits it on all rows.
    Every forest of the search grows in one `fit_forests` call, and the
    refit's in a second.
    """
    if level not in LEVEL_PARENTS:
        raise ValueError(f"unknown level {level!r}")
    find_parents = LEVEL_PARENTS[level]
    if find_parents is not None and artifacts is None:
        raise ValueError(f"level {level!r} requires knowledge artifacts")
    candidates = enumerate_candidates(space, budget)

    def factory(records: list[MeasurementRecord]) -> ModularPredictor:
        n = len(records)
        if n < cv.folds:
            raise ValueError(f"need at least {cv.folds} records, got {n}")
        Z, perf = design(records)
        parents = find_parents and find_parents(artifacts, shape, Z, alpha_ci)
        # Canonical (NodeId) order is topological: graph edges run forward in it.
        order = () if parents is None else tuple(sorted(parents))
        problems = functools.partial(_level_problems, level, shape, parents, order, seed)
        assemble = functools.partial(_assemble_level, level, shape, parents, order)

        def fit(jobs):
            """One model per (Z, perf, candidate, tag) job, all of their
            forests grown in one `fit_forests` call."""
            forests = iter(fit_forests(*zip(*(p for job in jobs for p in problems(*job)))))
            return [assemble(job[0], forests) for job in jobs]

        def fit_folds(train_sets):
            models = fit(
                [
                    (Z_train, y_train, c, ("cv", i, f))
                    for i, c in enumerate(candidates)
                    for f, (Z_train, y_train) in enumerate(train_sets)
                ]
            )
            k = len(train_sets)
            return [models[i : i + k] for i in range(0, len(models), k)]

        losses = cross_validate_many(fit_folds, Z, perf, fold_indices(n, cv))
        best = int(np.argmin(losses))
        (model,) = fit([(Z, perf, candidates[best], ("final",))])
        model.search_meta = {
            "candidates": candidates,
            "chosen": candidates[best],
            "cv_loss": losses[best],
            "budget": budget.evaluations,
        }
        return model

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
) -> list[CurvePoint]:
    """Fit on each nested training prefix and score the full test set.

    A failing fit marks its point rather than aborting the curve; one fit
    serves all requested metrics so they see identical predictions.
    """
    if max(sizes) > len(dataset.train):
        raise ValueError(f"max size {max(sizes)} exceeds training set {len(dataset.train)}")
    Z_test, actual = design(dataset.test)
    points = []
    for n in sorted(sizes):
        try:
            model = factory(training_prefix(dataset, n))
            predictions = model.predict(Z_test)
            values = {m: float(efficacy(m, predictions, actual)) for m in metrics}
            points.append(CurvePoint(n=n, efficacies=values))
        except Exception as exc:  # isolate per-point failures
            points.append(CurvePoint(n=n, efficacies={}, error=f"{type(exc).__name__}: {exc}"))
    return points

"""The five knowledge-level performance modelers and efficacy curves.

Null fits one forest from option bits to performance. Partial chains
per-module forests (options -> own IVs) into an aggregator over all IVs.
Practical builds a structural model over the potential-influence-edge
superset with Fisher-Z pruning of irrelevant candidate parents; Complete is
the same machinery run on the exact influence edges. Ideal consumes the
measured IVs of test records directly, bounding every other level from
above.

The levels differ only in the IV parent sets their knowledge yields
(`LEVEL_PARENTS`). `make_search` fits every level of one training prefix
together, the same way: it stacks the training records into one design
matrix, finds each level's IV parents on it once, and scores every (level,
candidate) pair with `learners.cross_validate_many` over the same fold index
arrays; each level's first candidate with the lowest mean held-out MSE
(`np.argmin`) is refitted on all rows. IV regressors are trained on
measured upstream values (teacher forcing) and predict on cascaded
estimates, matching how a structural causal model is fit from observational
data. Teacher forcing makes every forest of a search independent, so the
forests of every level's (candidate, fold) fits go to `fit_forests` as one
stream, cut into chunks under `_CHUNK_CELLS`; each chunk's models predict
their held-out rows and are dropped before the next chunk grows. The
winners of all levels are refitted in one more call. `predict_models`
predicts many models at once, one batched forest walk per cascade
generation and one for the perf forests. `make_factory` and
`efficacy_curves` are the one-level calls of `make_search` and
`level_curves`. For a fixed (dataset, training size) all levels consume the
identical training prefix, the identical candidate list, folds and search
budget.
"""

from __future__ import annotations

import collections
import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dataset import MeasurementRecord, SystemDataset, training_prefix
from .influence_graph import KnowledgeArtifacts, NodeId, NodeKind
from .learners import (
    CVSpec,
    FittedForest,
    ForestParams,
    SearchBudget,
    budget_chunks,
    cross_validate_many,
    enumerate_candidates,
    fit_forests,
    fold_indices,
    predict_forests,
)
from .learners import fit_forest  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 2)
from .metrics import efficacy
from .seeds import derive
from .stats import fisher_z_screen

DEFAULT_ALPHA_CI = 0.05
# Bootstrap-row x tree cells of the forests one chunk of a search's CV fits
# grows and holds until its models have predicted their held-out rows.
# Bounds a search's memory whatever its budget, folds and levels.
_CHUNK_CELLS = 1 << 19


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

    def columns(self, nodes) -> list[int]:
        return [self._cols[n] for n in nodes]

    def gather(self, Z: np.ndarray, nodes) -> np.ndarray:
        """The columns of design rows Z holding `nodes`, as a C-ordered copy."""
        return Z.take(self.columns(nodes), axis=1)


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
        measured values, and Z itself is left unchanged. The one-model call of
        `predict_models`."""
        return predict_models([self], [Z])[0]


def _generations(model: ModularPredictor) -> dict[NodeId, int]:
    """Each modelled IV's cascade generation: 0 when none of its inputs is a
    modelled IV, else one more than the latest of theirs. `evaluation_order`
    is topological, so an IV's inputs are estimated in earlier generations."""
    generation: dict[NodeId, int] = {}
    for node in model.evaluation_order:
        inputs = model.iv_models[node].inputs
        generation[node] = 1 + max((generation[p] for p in inputs if p in generation), default=-1)
    return generation


def _predict_each(models, Xs) -> list[np.ndarray]:
    """Each model's prediction on its X: every fitted forest among them in one
    `predict_forests` call, any other model (a `MeanModel` fallback or a
    stand-in) through its own `predict`."""
    forests = [k for k, m in enumerate(models) if isinstance(m, FittedForest)]
    predicted = predict_forests([models[k] for k in forests], [Xs[k] for k in forests])
    out = dict(zip(forests, predicted))
    return [out[k] if k in out else m.predict(Xs[k]) for k, m in enumerate(models)]


def predict_models(models, Zs) -> list[np.ndarray]:
    """Each model's predictions on its own design rows, equal to what
    `model.predict(Z)` returns alone.

    The IV estimates cascade generation by generation (`_generations`): every
    model's IVs of one generation read their inputs and predict in one
    batched forest walk, then every model's perf forest in one more. Any
    model that is not a `ModularPredictor` (a stand-in) predicts Z directly.
    """
    Zs = [np.array(Z, dtype=float) for Z in Zs]
    steps: list[list[tuple[int, NodeId]]] = []
    for k, model in enumerate(models):
        if isinstance(model, ModularPredictor):
            for node, g in _generations(model).items():
                steps += [[] for _ in range(g + 1 - len(steps))]
                steps[g].append((k, node))
    for step in steps:
        iv_models = [models[k].iv_models[node] for k, node in step]
        Xs = [models[k].shape.gather(Zs[k], m.inputs) for (k, _), m in zip(step, iv_models)]
        for (k, node), values in zip(step, _predict_each([m.model for m in iv_models], Xs)):
            Zs[k][:, models[k].shape.column(node)] = values
    leaves, Xs = [], []
    for model, Z in zip(models, Zs):
        cascade = isinstance(model, ModularPredictor)
        leaves.append(model.perf_model if cascade else model)
        Xs.append(model.shape.gather(Z, model.perf_inputs) if cascade else Z)
    return _predict_each(leaves, Xs)


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


def _level_problems(level, cascade, iv_columns, perf_columns, seed, Z, perf, candidate, tag):
    """The forest problems of one level's model for one candidate on design
    rows Z, as (X, y, params) triples: one IV forest per (encoded IV, input
    columns, own column) of `iv_columns`, in that order, then the perf forest
    on `perf_columns`.

    Seed paths: IV forest derive(seed, level, iv.encode(), *tag); perf forest
    derive(seed, level, *tag) without IV models, derive(seed, level, "perf",
    *tag) on top of a cascade.
    """
    problems = [
        (
            Z.take(inputs, axis=1),
            Z[:, column],
            _forest_params(candidate, derive(seed, level, name, *tag)),
        )
        for name, inputs, column in iv_columns
    ]
    perf_tag = ("perf", *tag) if cascade else tag
    params = _forest_params(candidate, derive(seed, level, *perf_tag))
    problems.append((Z.take(perf_columns, axis=1), perf, params))
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


class _Plan(NamedTuple):
    """One level's model on one training design, once its IV parents are
    found: `problems(Z, perf, candidate, tag)` gives the forest problems of a
    fit, `assemble(Z, forests)` the model from their forests."""

    problems: Callable
    assemble: Callable


def _plan(level, shape, artifacts, Z, alpha_ci, seed) -> _Plan:
    find_parents = LEVEL_PARENTS[level]
    parents = find_parents and find_parents(artifacts, shape, Z, alpha_ci)
    # Canonical (NodeId) order is topological: graph edges run forward in it.
    order = () if parents is None else tuple(sorted(parents))
    iv_columns = [
        (iv.encode(), shape.columns(parents[iv]), shape.column(iv)) for iv in order if parents[iv]
    ]
    perf_columns = shape.columns(_perf_inputs(level, shape))
    return _Plan(
        functools.partial(
            _level_problems, level, parents is not None, iv_columns, perf_columns, seed
        ),
        functools.partial(_assemble_level, level, shape, parents, order),
    )


def _fit_models(jobs) -> list[ModularPredictor]:
    """One model per (plan, Z, perf, candidate, tag) job, all of their
    forests grown in one `fit_forests` call."""
    forests = iter(fit_forests(*zip(*(p for plan, *fit in jobs for p in plan.problems(*fit)))))
    return [plan.assemble(Z, forests) for plan, Z, *_ in jobs]


def _held_out_predictions(jobs) -> list[np.ndarray]:
    """Each (plan, Z, perf, candidate, tag, Z_held) job's model's predictions
    on its held-out rows Z_held.

    Every job's forest problems go to `fit_forests` as one stream, cut into
    chunks of at most `_CHUNK_CELLS` bootstrap-row x tree cells (a forest alone
    may exceed it). Once a chunk is grown, the models it completes predict
    their held-out rows in one `predict_models` call and their forests are
    dropped, so a search holds about one chunk of forests, and their
    designs, at a time.
    """

    def stream():
        """(job, problem, whether it is the job's last) triples, made lazily."""
        for j, (plan, *fit, _) in enumerate(jobs):
            problems = plan.problems(*fit)
            for k, problem in enumerate(problems, 1):
                yield j, problem, k == len(problems)

    def cells(item):
        _, (X, y, params), _ = item
        return len(y) * params.n_trees

    grown = collections.defaultdict(list)
    predictions = [None] * len(jobs)
    for chunk in budget_chunks(stream(), cells, _CHUNK_CELLS):
        for (j, _, _), forest in zip(chunk, fit_forests(*zip(*(p for _, p, _ in chunk)))):
            grown[j].append(forest)
        done = [j for j, _, last in chunk if last]
        models = [jobs[j][0].assemble(jobs[j][1], iter(grown.pop(j))) for j in done]
        for j, values in zip(done, predict_models(models, [jobs[j][-1] for j in done])):
            predictions[j] = values
    return predictions


def _search_levels(plans, candidates, budget, Z, perf, folds) -> dict[str, ModularPredictor]:
    """Each planned level's winning model: every (level, candidate) pair's
    CV loss from one `cross_validate_many` call, then the winners' refits in
    one `fit_forests` call."""

    def predict_folds(splits):
        predictions = _held_out_predictions(
            [
                (plan, Z_train, y_train, c, ("cv", i, f), Z_held)
                for plan in plans.values()
                for i, c in enumerate(candidates)
                for f, (Z_train, y_train, Z_held) in enumerate(splits)
            ]
        )
        k = len(splits)
        return [predictions[j : j + k] for j in range(0, len(predictions), k)]

    losses = cross_validate_many(predict_folds, Z, perf, folds)
    c = len(candidates)
    by_level = {level: losses[k * c : (k + 1) * c] for k, level in enumerate(plans)}
    best = {level: int(np.argmin(level_losses)) for level, level_losses in by_level.items()}
    models = _fit_models(
        [(plans[level], Z, perf, candidates[best[level]], ("final",)) for level in plans]
    )
    for level, model in zip(plans, models):
        model.search_meta = {
            "candidates": candidates,
            "chosen": candidates[best[level]],
            "cv_loss": by_level[level][best[level]],
            "cv_losses": by_level[level],
            "budget": budget.evaluations,
        }
    return dict(zip(plans, models))


def make_search(
    seeds: dict[str, int],
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict,
    alpha_ci: float = DEFAULT_ALPHA_CI,
):
    """Bind knowledge levels to their structural inputs, leaving only the
    training records free; `seeds` maps each level to fit, in order, to the
    seed of its forests.

    The returned callable fits every level on the same records. It stacks
    them into design rows once and finds each level's IV parents on them.
    `cross_validate_many` then scores every (level, candidate) pair over the
    shared fold index arrays: all of their (candidate, fold) fits stream
    through `_held_out_predictions`. Each level keeps the first candidate
    with the lowest mean held-out MSE, and the winners are refitted on all
    rows in one more `fit_forests` call. It returns each level's model, or
    the exception its search raised: a level whose parents cannot be found
    fails alone, and a failure in the shared fits fails every level in them.
    """
    levels = tuple(seeds)
    for level in levels:
        if level not in LEVEL_PARENTS:
            raise ValueError(f"unknown level {level!r}")
        if LEVEL_PARENTS[level] is not None and artifacts is None:
            raise ValueError(f"level {level!r} requires knowledge artifacts")
    candidates = enumerate_candidates(space, budget)

    def search(records: list[MeasurementRecord]) -> dict[str, ModularPredictor | Exception]:
        n = len(records)
        if n < cv.folds:
            return dict.fromkeys(levels, ValueError(f"need at least {cv.folds} records, got {n}"))
        Z, perf = design(records)
        results: dict[str, ModularPredictor | Exception] = {}
        plans = {}
        for level in levels:
            try:
                plans[level] = _plan(level, shape, artifacts, Z, alpha_ci, seeds[level])
            except Exception as exc:  # this level's knowledge does not fit the system
                results[level] = exc
        if plans:
            try:
                folds = fold_indices(n, cv)
                results.update(_search_levels(plans, candidates, budget, Z, perf, folds))
            except Exception as exc:  # the levels share every fit
                results.update(dict.fromkeys(plans, exc))
        return {level: results[level] for level in levels}

    return search


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
    """One level's search: the one-level call of `make_search`. The returned
    callable maps training records to the level's model, or raises what its
    search raised."""
    search = make_search({level: seed}, shape, artifacts, budget, cv, space, alpha_ci)

    def factory(records: list[MeasurementRecord]) -> ModularPredictor:
        result = search(records)[level]
        if isinstance(result, Exception):
            raise result
        return result

    return factory


@dataclass(frozen=True)
class CurvePoint:
    n: int
    efficacies: dict[str, float]
    error: str | None = None


def level_curves(
    search,
    dataset: SystemDataset,
    metrics: tuple[str, ...],
    sizes: tuple[int, ...],
) -> dict[str, list[CurvePoint]]:
    """Fit every level on each nested training prefix and score the full
    test set.

    `search(records)` maps training records to each level's model or the
    exception its fit raised (`make_search`). Every fitted level predicts the
    test set in one `predict_models` call, and one prediction serves all
    requested metrics. A failing fit marks only its level's point; a failing
    prediction marks the points of every level in it.
    """
    if max(sizes) > len(dataset.train):
        raise ValueError(f"max size {max(sizes)} exceeds training set {len(dataset.train)}")
    Z_test, actual = design(dataset.test)
    curves: dict[str, list[CurvePoint]] = {}
    for n in sorted(sizes):
        outcome = search(training_prefix(dataset, n))
        fitted = [level for level, m in outcome.items() if not isinstance(m, Exception)]
        try:
            models = [outcome[level] for level in fitted]
            outcome.update(zip(fitted, predict_models(models, [Z_test] * len(fitted))))
        except Exception as exc:  # the fitted levels share the prediction walk
            outcome.update(dict.fromkeys(fitted, exc))
        for level, predictions in outcome.items():
            try:
                if isinstance(predictions, Exception):
                    raise predictions
                values = {m: float(efficacy(m, predictions, actual)) for m in metrics}
                point = CurvePoint(n=n, efficacies=values)
            except Exception as exc:  # isolate per-point failures
                point = CurvePoint(n=n, efficacies={}, error=f"{type(exc).__name__}: {exc}")
            curves.setdefault(level, []).append(point)
    return curves


def efficacy_curves(
    factory,
    dataset: SystemDataset,
    metrics: tuple[str, ...],
    sizes: tuple[int, ...],
) -> list[CurvePoint]:
    """One model's curve: the one-level call of `level_curves`, for a
    `factory(records)` that returns a model or raises."""

    def search(records):
        try:
            return {"": factory(records)}
        except Exception as exc:  # isolate per-point failures
            return {"": exc}

    return level_curves(search, dataset, metrics, sizes)[""]

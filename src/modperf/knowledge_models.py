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
data. Teacher forcing makes every forest of a search independent, and its
seed names its problem, not its level (`_keys`): the unit's model seed, the
target, the rows and the candidate's family. So a problem several levels
pose is grown once and shared: the perf forest on the measured IVs serves
`partial`, `practical`, `complete` and `ideal`, and so does an IV forest
whose pruned parents coincide. The distinct forests of every level's
(candidate, fold) fits go to `fit_forests` as one stream, cut into chunks
under `_CHUNK_CELLS`; each chunk's completed models predict their held-out
rows, and a forest is dropped once every model holding it has predicted.
The winners of all levels are refitted in one more call. `predict_models`
predicts many models at once, one batched forest walk per cascade
generation and one for the perf forests, reading and writing design columns
by each plan's integer `_Layout`. `make_factory` and
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


class _Layout(NamedTuple):
    """A model's cascade as design-row column indices, so that prediction
    reads and writes columns without looking node ids up: `steps[g]` holds the
    positions in the evaluation order of the IVs of cascade generation g,
    `inputs[k]` and `outputs[k]` the input columns and the own column of the
    IV at position k, and `perf` the perf model's input columns."""

    steps: tuple[tuple[int, ...], ...]
    inputs: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    perf: tuple[int, ...]


def _layout(shape: SystemShape, order, inputs, perf_inputs) -> _Layout:
    """The layout of a cascade over the IVs of `order`, the one at position k
    reading the nodes `inputs[k]`. An IV's generation is 0 when none of its
    inputs is an IV of the cascade, else one more than the latest of theirs;
    `order` is topological, so an IV's inputs are estimated in earlier
    generations."""
    columns = tuple(tuple(shape.columns(nodes)) for nodes in inputs)
    outputs = tuple(shape.columns(order))
    generation: dict[int, int] = {}  # by own column
    steps: list[list[int]] = []
    for k, (cols, own) in enumerate(zip(columns, outputs)):
        g = 1 + max((generation[c] for c in cols if c in generation), default=-1)
        generation[own] = g
        steps += [[] for _ in range(g + 1 - len(steps))]
        steps[g].append(k)
    return _Layout(tuple(map(tuple, steps)), columns, outputs, tuple(shape.columns(perf_inputs)))


@dataclass
class ModularPredictor:
    """A level's model. `iv_models` holds one IV model per IV of
    `evaluation_order`, in that order. `layout` is derived from the shape,
    the evaluation order, the IV models' inputs and the perf inputs; a search
    builds it once per plan and shares it among the plan's models, and it is
    built here when not given."""

    level: str
    shape: SystemShape
    perf_model: object
    perf_inputs: tuple[NodeId, ...]
    iv_models: dict[NodeId, IVModel] = field(default_factory=dict)
    evaluation_order: tuple[NodeId, ...] = ()
    search_meta: dict = field(default_factory=dict)
    layout: _Layout | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.iv_models) != self.evaluation_order:
            raise ValueError("iv_models must hold the IVs of evaluation_order, in that order")
        if self.layout is None:
            inputs = [m.inputs for m in self.iv_models.values()]
            self.layout = _layout(self.shape, self.evaluation_order, inputs, self.perf_inputs)

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Predict from design rows. A copy of Z has each modelled IV's column
        overwritten with its cascaded estimate; IVs without a model keep their
        measured values, and Z itself is left unchanged. The one-model call of
        `predict_models`."""
        return predict_models([self], [Z])[0]


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

    The IV estimates cascade generation by generation (`_Layout.steps`):
    every model's IVs of one generation read their input columns and predict
    in one batched forest walk, then every model's perf forest in one more.
    Columns are read and written by the models' layouts, never by node id.
    Any model that is not a `ModularPredictor` (a stand-in) predicts Z
    directly.
    """
    Zs = [np.array(Z, dtype=float) for Z in Zs]
    cascades = [
        (Zs[k], model.layout, tuple(model.iv_models.values()))
        for k, model in enumerate(models)
        if isinstance(model, ModularPredictor)
    ]
    for g in range(max((len(layout.steps) for _, layout, _ in cascades), default=0)):
        step = [
            (Z, layout, ivs[p].model, p)
            for Z, layout, ivs in cascades
            if g < len(layout.steps)
            for p in layout.steps[g]
        ]
        Xs = [Z.take(layout.inputs[p], axis=1) for Z, layout, _, p in step]
        for (Z, layout, _, p), values in zip(step, _predict_each([m for _, _, m, _ in step], Xs)):
            Z[:, layout.outputs[p]] = values
    leaves, Xs = [], []
    for model, Z in zip(models, Zs):
        cascade = isinstance(model, ModularPredictor)
        leaves.append(model.perf_model if cascade else model)
        Xs.append(Z.take(model.layout.perf, axis=1) if cascade else Z)
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


def _assemble_level(level, shape, order, parents, layout, Z, forests):
    """One level's model on design rows Z, the IV at position k of `order`
    reading `parents[k]`, taking the forests of its plan's `forests` from the
    iterator `forests`, in that order; an IV without parents falls back to
    its mean on Z."""
    iv_models = {
        iv: IVModel(iv, inputs, next(forests))
        if inputs
        else IVModel(iv, (), MeanModel(Z[:, own].mean()), fallback=True)
        for iv, inputs, own in zip(order, parents, layout.outputs)
    }
    return ModularPredictor(
        level=level,
        shape=shape,
        perf_model=next(forests),
        perf_inputs=_perf_inputs(level, shape),
        iv_models=iv_models,
        evaluation_order=order,
        layout=layout,
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
    found: `seed` is the unit's model seed, `forests` holds one (target, input
    columns, target column) triple per forest a fit grows, the IVs with
    parents in evaluation order and then the perf forest (target "perf",
    column None), and `assemble(Z, forests)` builds the model from them."""

    seed: int
    forests: tuple[tuple[str, tuple[int, ...], int | None], ...]
    assemble: Callable


def _plan(level, shape, artifacts, Z, alpha_ci, seed) -> _Plan:
    find_parents = LEVEL_PARENTS[level]
    parents = find_parents and find_parents(artifacts, shape, Z, alpha_ci)
    # Canonical (NodeId) order is topological: graph edges run forward in it.
    order = () if parents is None else tuple(sorted(parents))
    inputs = [parents[iv] for iv in order]
    layout = _layout(shape, order, inputs, _perf_inputs(level, shape))
    forests = tuple(
        (iv.encode(), columns, own)
        for iv, nodes, columns, own in zip(order, inputs, layout.inputs, layout.outputs)
        if nodes
    ) + (("perf", layout.perf, None),)
    return _Plan(
        seed, forests, functools.partial(_assemble_level, level, shape, order, inputs, layout)
    )


class _Key(NamedTuple):
    """One forest problem of a search: its params, seed included, its target
    column (None for perf), its input columns and its rows tag."""

    params: ForestParams
    column: int | None
    inputs: tuple[int, ...]
    tag: tuple


def _keys(plan: _Plan, candidate: dict, tag: tuple) -> list[_Key]:
    """The problems of `plan`'s forests for one candidate on the rows `tag`
    names, in `plan.forests` order.

    Seed path: derive(plan.seed, target, *tag, min_samples_leaf,
    feature_subsample.hex()), where target is an IV's code or "perf" and tag
    is ("cv", fold) or ("final",). The seed names the problem and the
    candidate's family, never the level or the candidate's index, so levels
    that grow one problem get one key, and candidates of one family draw the
    same bootstrap rows.
    """
    family = (int(candidate["min_samples_leaf"]), float(candidate["feature_subsample"]).hex())
    return [
        _Key(
            _forest_params(candidate, derive(plan.seed, target, *tag, *family)), column, inputs, tag
        )
        for target, inputs, column in plan.forests
    ]


def _problem(key: _Key, Z, perf):
    """The (X, y, params) triple of `key` on design rows Z and targets perf."""
    y = perf if key.column is None else Z[:, key.column]
    return Z.take(key.inputs, axis=1), y, key.params


def _distinct_problems(jobs):
    """Each (plan, Z, perf, candidate, tag, ...) job's problem keys, and each
    distinct key's first job, in job order. Jobs that share a tag share their
    rows Z and perf, so equal keys pose one problem."""
    keys = [_keys(plan, candidate, tag) for plan, _, _, candidate, tag, *_ in jobs]
    first = {}
    for j, job_keys in enumerate(keys):
        for key in job_keys:
            first.setdefault(key, j)
    return keys, first


def _fit_models(jobs) -> list[ModularPredictor]:
    """One model per (plan, Z, perf, candidate, tag) job, every distinct
    problem among their forests grown once, all in one `fit_forests` call."""
    keys, first = _distinct_problems(jobs)
    problems = (_problem(key, *jobs[j][1:3]) for key, j in first.items())
    forests = dict(zip(first, fit_forests(*zip(*problems))))
    return [
        plan.assemble(Z, map(forests.__getitem__, job_keys))
        for (plan, Z, *_), job_keys in zip(jobs, keys)
    ]


def _held_out_predictions(jobs) -> list[np.ndarray]:
    """Each (plan, Z, perf, candidate, tag, Z_held) job's model's predictions
    on its held-out rows Z_held.

    Each distinct problem among the jobs' forests (`_distinct_problems`) goes
    to `fit_forests` once, in the order of the first job that needs it, as
    one stream cut into chunks of at most `_CHUNK_CELLS` bootstrap-row x tree
    cells (a forest alone may exceed it). Once a chunk is grown, the models
    it completes predict their held-out rows in one `predict_models` call,
    and a forest is dropped once every model that holds it has predicted.
    Jobs that share problems come next to each other, so a search holds
    about one chunk of forests, and their designs, at a time.
    """
    keys, first = _distinct_problems(jobs)
    position = {key: k for k, key in enumerate(first)}
    # a job is complete once the last of its problems in the stream is grown
    ready = [max(position[key] for key in job_keys) for job_keys in keys]
    uses = collections.Counter(key for job_keys in keys for key in job_keys)

    def cells(item):
        key, j = item
        return len(jobs[j][1]) * key.params.n_trees

    grown = {}
    predictions = [None] * len(jobs)
    pending, streamed = range(len(jobs)), 0
    for chunk in budget_chunks(first.items(), cells, _CHUNK_CELLS):
        problems = [_problem(key, *jobs[j][1:3]) for key, j in chunk]
        grown.update(zip((key for key, _ in chunk), fit_forests(*zip(*problems))))
        streamed += len(chunk)
        done = [j for j in pending if ready[j] < streamed]
        pending = [j for j in pending if ready[j] >= streamed]
        models = [jobs[j][0].assemble(jobs[j][1], map(grown.__getitem__, keys[j])) for j in done]
        for j, values in zip(done, predict_models(models, [jobs[j][-1] for j in done])):
            predictions[j] = values
        for key in (key for j in done for key in keys[j]):
            uses[key] -= 1
            if not uses[key]:
                del grown[key]
    return predictions


def _search_levels(plans, candidates, budget, Z, perf, folds) -> dict[str, ModularPredictor]:
    """Each planned level's winning model: every (level, candidate) pair's
    CV loss from one `cross_validate_many` call, then the winners' refits in
    one `fit_forests` call."""

    def predict_folds(splits):
        # candidate-major, then fold, then level, so that the levels' jobs
        # of one (candidate, fold), which share problems, come together
        predictions = _held_out_predictions(
            [
                (plan, Z_train, y_train, c, ("cv", f), Z_held)
                for c in candidates
                for f, (Z_train, y_train, Z_held) in enumerate(splits)
                for plan in plans.values()
            ]
        )
        n_levels, n_folds = len(plans), len(splits)
        return [
            [predictions[(i * n_folds + f) * n_levels + k] for f in range(n_folds)]
            for k in range(n_levels)
            for i in range(len(candidates))
        ]

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
    seed: int,
    levels,
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
    cv: CVSpec,
    space: dict,
    alpha_ci: float = DEFAULT_ALPHA_CI,
):
    """Bind knowledge levels to their structural inputs, leaving only the
    training records free; `levels` are fitted in their order, and `seed`,
    the unit's model seed, seeds every forest by its problem (`_keys`).

    The returned callable fits every level on the same records. It stacks
    them into design rows once and finds each level's IV parents on them.
    `cross_validate_many` then scores every (level, candidate) pair over the
    shared fold index arrays: all of their (candidate, fold) fits stream
    through `_held_out_predictions`, and a problem several levels share,
    such as the perf forest on the measured IVs, is grown once for all of
    them. Each level keeps the first candidate with the lowest mean held-out
    MSE, and the winners are refitted on all rows in one more `fit_forests`
    call. It returns each level's model, or the exception its search raised:
    a level whose parents cannot be found fails alone, and a failure in the
    shared fits fails every level in them.
    """
    levels = tuple(levels)
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
                plans[level] = _plan(level, shape, artifacts, Z, alpha_ci, seed)
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
    search = make_search(seed, (level,), shape, artifacts, budget, cv, space, alpha_ci)

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

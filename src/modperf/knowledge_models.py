"""The five knowledge-level performance modelers and efficacy curves.

Null fits one forest from option bits to performance. Partial chains
per-module forests (options -> own IVs) into an aggregator over all IVs.
Practical builds a structural model over the potential-influence-edge
superset with Fisher-Z pruning of irrelevant candidate parents; Complete is
the same machinery run on the exact influence edges. Ideal consumes the
measured IVs of test records directly, bounding every other level from
above.

The levels differ only in the IV parent sets their knowledge yields
(`LEVEL_PARENTS`). `make_search` turns each level's candidate parents into
design-column indices once per unit; past that point models, pruning and
prediction work on columns, and `NodeId`s appear only where documents are
read and the shape is built. The search fits every level of one training
prefix together, the same way: it stacks the training records into one
design matrix, prunes each level's candidates on it once, and scores every
(level, candidate) pair with `learners.cross_validate_many` over the same
fold index arrays; each level's first candidate with the lowest mean
held-out MSE (`np.argmin`) is refitted on all rows. IV regressors are
trained on measured upstream values (teacher forcing) and predict on
cascaded estimates, matching how a structural causal model is fit from
observational data. Teacher forcing makes every forest of a search
independent, and its seed names its problem, not its level (`_keys`): the
unit's model seed, the target, the rows and the candidate's family. So a
problem several levels pose is grown once and shared: the perf forest on
the measured IVs serves `partial`, `practical`, `complete` and `ideal`, and
so does an IV forest whose pruned parents coincide. The distinct forests of
every level's (candidate, fold) fits go to `fit_forests` as one stream, cut
into chunks under `_CHUNK_CELLS`; each chunk's completed models predict
their held-out rows, and a forest is dropped once every model holding it
has predicted. The winners of all levels are refitted in one more call.
`predict_models` predicts many models at once, one batched forest walk per
cascade generation (`ModularPredictor.steps`) and one for the perf forests.
`level_curves` scores every level of a search on the test set. For a fixed
(dataset, training size) all levels consume the identical training prefix,
the identical candidate list, folds and search budget.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import NamedTuple

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

    A record's design row is its option bits followed by its measured IVs:
    option j sits in column j and IV k in column `len(options) + k`. Both
    orders must be canonical (`NodeId` order), which is topological, so
    that evaluating IVs in column order cascades forward.
    """

    options: tuple[NodeId, ...]
    ivs: tuple[NodeId, ...]

    def __post_init__(self):
        for name, nodes in (("option", self.options), ("IV", self.ivs)):
            if any(a >= b for a, b in zip(nodes, nodes[1:])):
                raise ValueError(f"{name} names are not in canonical NodeId order")

    @staticmethod
    def from_dataset(dataset: SystemDataset) -> "SystemShape":
        return SystemShape(
            options=tuple(NodeId.decode(n) for n in dataset.option_names),
            ivs=tuple(NodeId.decode(n) for n in dataset.iv_names),
        )


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
    """The model of the IV in design column `column`, reading the design
    columns `inputs`."""

    column: int
    inputs: tuple[int, ...]
    model: object
    fallback: bool = False


@dataclass
class ModularPredictor:
    """A level's model over design columns. `iv_models` maps each modelled
    IV's column to its model, in evaluation order, and `perf_inputs` are the
    perf model's input columns. `steps[g]` holds the IV columns of cascade
    generation g: an IV's generation is 0 when none of its inputs is a
    modelled IV, else one more than the latest of theirs; the evaluation
    order is topological, so an IV's inputs are estimated in earlier
    generations."""

    level: str
    perf_model: object
    perf_inputs: tuple[int, ...]
    iv_models: dict[int, IVModel] = field(default_factory=dict)
    search_meta: dict = field(default_factory=dict)
    steps: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        generation: dict[int, int] = {}  # by IV column
        steps: list[list[int]] = []
        for column, iv_model in self.iv_models.items():
            g = 1 + max((generation[c] for c in iv_model.inputs if c in generation), default=-1)
            generation[column] = g
            steps += [[] for _ in range(g + 1 - len(steps))]
            steps[g].append(column)
        self.steps = tuple(map(tuple, steps))

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

    The IV estimates cascade generation by generation (`steps`): every
    model's IVs of one generation read their input columns and predict in
    one batched forest walk, then every model's perf forest in one more.
    Any model that is not a `ModularPredictor` (a stand-in) predicts Z
    directly.
    """
    Zs = [np.array(Z, dtype=float) for Z in Zs]
    cascades = [(Z, m) for Z, m in zip(Zs, models) if isinstance(m, ModularPredictor)]
    for g in range(max((len(m.steps) for _, m in cascades), default=0)):
        step = [
            (Z, m.iv_models[iv]) for Z, m in cascades if g < len(m.steps) for iv in m.steps[g]
        ]
        Xs = [Z.take(iv_model.inputs, axis=1) for Z, iv_model in step]
        for (Z, iv_model), values in zip(step, _predict_each([m.model for _, m in step], Xs)):
            Z[:, iv_model.column] = values
    leaves, Xs = [], []
    for model, Z in zip(models, Zs):
        cascade = isinstance(model, ModularPredictor)
        leaves.append(model.perf_model if cascade else model)
        Xs.append(Z.take(model.perf_inputs, axis=1) if cascade else Z)
    return _predict_each(leaves, Xs)


def _forest_params(candidate: dict, seed: int) -> ForestParams:
    return ForestParams(
        n_trees=int(candidate["n_trees"]),
        max_depth=int(candidate["max_depth"]),
        min_samples_leaf=int(candidate["min_samples_leaf"]),
        feature_subsample=float(candidate["feature_subsample"]),
        bootstrap_seed=seed,
    )


def _boundary_parents(artifacts: KnowledgeArtifacts, shape: SystemShape):
    """Each IV's candidate parents are the options of its own module."""
    parents = {
        iv: tuple(options)
        for _, (options, ivs) in sorted(artifacts.logical_boundaries.items())
        for iv in ivs
    }
    missing = set(shape.ivs) - set(parents)
    if missing:
        raise ValueError(f"boundaries do not cover IVs: {sorted(missing)}")
    return parents


def _edge_parents(edges, shape: SystemShape):
    """Each IV's candidate parents are the sources of its incoming `edges`,
    in canonical order."""
    parents: dict[NodeId, list[NodeId]] = {iv: [] for iv in shape.ivs}
    for src, dst in edges:
        if dst.kind is NodeKind.INTERMEDIATE:
            parents[dst].append(src)
    return {iv: tuple(sorted(ps)) for iv, ps in parents.items()}


# Level -> None for levels without IV models, else (function of (artifacts,
# shape) giving each IV's candidate parents, whether the Fisher-Z screen
# prunes them on each training design).
LEVEL_PARENTS = {
    "null": None,
    "partial": (_boundary_parents, False),
    "practical": (lambda a, shape: _edge_parents(a.potential_influence_edges, shape), True),
    "complete": (lambda a, shape: _edge_parents(a.influence_edges, shape), True),
    "ideal": None,
}
LEVELS = tuple(LEVEL_PARENTS)


class _Knowledge(NamedTuple):
    """One level's structure on a unit's design columns: `candidates` maps
    each IV column, in evaluation order, to its candidate parent columns
    (empty for levels without IV models), `prunes` says whether the Fisher-Z
    screen prunes them, and `perf_inputs` are the perf forest's inputs."""

    candidates: dict[int, tuple[int, ...]]
    prunes: bool
    perf_inputs: tuple[int, ...]


def _level_knowledge(level, shape: SystemShape, artifacts) -> _Knowledge:
    """`level`'s structure on the unit `shape` describes. Candidates keep
    their finder's `NodeId` order, where IV parents come before options."""
    n = len(shape.options)
    perf_inputs = tuple(range(n)) if level == "null" else tuple(range(n, n + len(shape.ivs)))
    if LEVEL_PARENTS[level] is None:
        return _Knowledge({}, False, perf_inputs)
    find_parents, prunes = LEVEL_PARENTS[level]
    column = {node: c for c, node in enumerate(shape.options + shape.ivs)}
    candidates = {
        column[iv]: tuple(column[p] for p in parents)
        for iv, parents in sorted(find_parents(artifacts, shape).items())
    }
    return _Knowledge(candidates, prunes, perf_inputs)


def prune_parents(
    Z: np.ndarray, candidates_by_iv: dict[int, tuple[int, ...]], alpha_ci: float
) -> dict[int, tuple[int, ...]]:
    """Keep a candidate parent column only when `stats.fisher_z_screen` on
    design rows Z rejects its independence from the IV's column at level
    alpha_ci."""
    surviving = {}
    for iv, candidates in candidates_by_iv.items():
        keep = fisher_z_screen(Z.take(candidates, axis=1), Z[:, iv], alpha_ci)
        surviving[iv] = tuple(c for c, k in zip(candidates, keep) if k)
    return surviving


class _Plan(NamedTuple):
    """One level's model on one training design, once its IV parents are
    found: `seed` is the unit's model seed, `parents` maps each modelled IV's
    column to its input columns, in evaluation order, and `forests` holds one
    (target, input columns, target column) triple per forest a fit grows, the
    IVs with parents in evaluation order and then the perf forest (target
    "perf", column None)."""

    level: str
    seed: int
    parents: dict[int, tuple[int, ...]]
    forests: tuple[tuple[str, tuple[int, ...], int | None], ...]


def _plan(seed, level, knowledge: _Knowledge, codes, Z, alpha_ci) -> _Plan:
    """`level`'s plan on design rows Z; `codes[c]` is the node code of
    design column c, which names the IV forests' seeds."""
    parents = knowledge.candidates
    if knowledge.prunes:
        parents = prune_parents(Z, candidates_by_iv=parents, alpha_ci=alpha_ci)
    forests = tuple((codes[iv], inputs, iv) for iv, inputs in parents.items() if inputs)
    return _Plan(level, seed, parents, forests + (("perf", knowledge.perf_inputs, None),))


def _assemble(plan: _Plan, Z, forests) -> ModularPredictor:
    """The model of `plan` on design rows Z, taking the forests of
    `plan.forests` from the iterator `forests`, in that order; an IV without
    parents falls back to its mean on Z."""
    iv_models = {
        iv: IVModel(iv, inputs, next(forests))
        if inputs
        else IVModel(iv, (), MeanModel(Z[:, iv].mean()), fallback=True)
        for iv, inputs in plan.parents.items()
    }
    return ModularPredictor(plan.level, next(forests), plan.forests[-1][1], iv_models)


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
        _assemble(plan, Z, map(forests.__getitem__, job_keys))
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
        models = [_assemble(*jobs[j][:2], map(grown.__getitem__, keys[j])) for j in done]
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

    Each level's candidate parent columns are found here, once per unit
    (`_level_knowledge`); a level whose knowledge does not fit the system
    fails alone, with one error returned at every training size. The
    returned callable fits every level on the same records. It stacks them
    into design rows once and prunes each level's candidates on them.
    `cross_validate_many` then scores every (level, candidate) pair over the
    shared fold index arrays: all of their (candidate, fold) fits stream
    through `_held_out_predictions`, and a problem several levels share,
    such as the perf forest on the measured IVs, is grown once for all of
    them. Each level keeps the first candidate with the lowest mean held-out
    MSE, and the winners are refitted on all rows in one more `fit_forests`
    call. It returns each level's model, or the exception its search raised;
    a failure in the shared fits fails every level in them.
    """
    levels = tuple(levels)
    for level in levels:
        if level not in LEVEL_PARENTS:
            raise ValueError(f"unknown level {level!r}")
        if LEVEL_PARENTS[level] is not None and artifacts is None:
            raise ValueError(f"level {level!r} requires knowledge artifacts")
    candidates = enumerate_candidates(space, budget)
    codes = tuple(node.encode() for node in shape.options + shape.ivs)
    knowledge: dict[str, _Knowledge] = {}
    failed: dict[str, Exception] = {}
    for level in levels:
        try:
            knowledge[level] = _level_knowledge(level, shape, artifacts)
        except Exception as exc:  # this level's knowledge does not fit the system
            failed[level] = exc

    def search(records: list[MeasurementRecord]) -> dict[str, ModularPredictor | Exception]:
        n = len(records)
        if n < cv.folds:
            return dict.fromkeys(levels, ValueError(f"need at least {cv.folds} records, got {n}"))
        Z, perf = design(records)
        results: dict[str, ModularPredictor | Exception] = dict(failed)
        plans = {}
        for level, known in knowledge.items():
            try:
                plans[level] = _plan(seed, level, known, codes, Z, alpha_ci)
            except Exception as exc:  # this level's pruning failed on these records
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
    search raised. The pipeline calls `make_search`; this stays because
    perfbench/tracer.py looks it up on `experiment`."""
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

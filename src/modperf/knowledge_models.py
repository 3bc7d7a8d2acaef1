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
read and the shape is built. The search maps a training prefix's design
rows, and the rows to predict, to every level's predictions of them; the
fitted models serve nothing else. Every fit, CV and final alike, is a job
of one fit-and-predict stream (`_held_out_predictions`). Each (level,
candidate) pair's CV loss is its mean held-out MSE over shared fold index
arrays, and each level's first candidate with the lowest loss (`np.argmin`)
is refitted on all rows by a second stream whose held-out rows are the
rows to predict. IV regressors are trained on measured upstream values (teacher
forcing) and predict on cascaded estimates, matching how a structural
causal model is fit from observational data. Teacher forcing makes every
forest of a search independent, and its seed names its problem, not its
level (`_keys`), so a problem several levels pose is grown once and shared:
the perf forest on the measured IVs serves `partial`, `practical`,
`complete` and `ideal`. For a fixed (dataset, training size) all levels
consume the identical training prefix, candidate list, folds and search
budget.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import SystemDataset
from .influence_graph import KnowledgeArtifacts, NodeId, NodeKind
from .learners import (
    CVSpec,
    FittedForest,
    ForestParams,
    SearchBudget,
    budget_chunks,
    enumerate_candidates,
    fit_forests,
    fold_indices,
    mse,
    predict_forests,
)
from .learners import fit_forest  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 2)
from .metrics import efficacy
from .seeds import derive
from .stats import fisher_z_screen

DEFAULT_ALPHA_CI = 0.05
# Bootstrap-row x tree cells of the forests one chunk of a search's stream
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


def design(records) -> tuple[np.ndarray, np.ndarray]:
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
        """The one-model call of `predict_models`. Only the search's stream
        predicts; perfbench/tracer.py looks this name up, which is its only
        reason to exist."""
        return predict_models([self], [Z])[0]


def _predict_each(models, Xs) -> list[np.ndarray]:
    """Each model's prediction on its X: every fitted forest among them in one
    `predict_forests` call, any other model (a `MeanModel` fallback) through
    its own `predict`."""
    forests = [k for k, m in enumerate(models) if isinstance(m, FittedForest)]
    predicted = predict_forests([models[k] for k in forests], [Xs[k] for k in forests])
    out = dict(zip(forests, predicted))
    return [out[k] if k in out else m.predict(Xs[k]) for k, m in enumerate(models)]


def predict_models(models, Zs) -> list[np.ndarray]:
    """Each `ModularPredictor`'s predictions on its own design rows, equal to
    what the model alone predicts. A copy of each Z has every modelled IV's
    column overwritten with its cascaded estimate; IVs without a model keep
    their measured values, and Z itself is left unchanged.

    The IV estimates cascade generation by generation (`steps`): every
    model's IVs of one generation read their input columns and predict in
    one batched forest walk, then every model's perf forest in one more.
    """
    Zs = [np.array(Z, dtype=float) for Z in Zs]
    for g in range(max((len(m.steps) for m in models), default=0)):
        step = [
            (Z, m.iv_models[iv])
            for Z, m in zip(Zs, models)
            if g < len(m.steps)
            for iv in m.steps[g]
        ]
        Xs = [Z.take(iv_model.inputs, axis=1) for Z, iv_model in step]
        for (Z, iv_model), values in zip(step, _predict_each([m.model for _, m in step], Xs)):
            Z[:, iv_model.column] = values
    Xs = [Z.take(m.perf_inputs, axis=1) for Z, m in zip(Zs, models)]
    return _predict_each([m.perf_model for m in models], Xs)


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


def _held_out_predictions(jobs) -> list[np.ndarray]:
    """What each (plan, Z, perf, candidate, tag, Z_held) job's model, fitted
    on design rows Z and targets perf, predicts for its held-out rows Z_held:
    the one way the search fits and predicts.

    Jobs that share a tag share their rows Z and perf, so equal problem keys
    (`_keys`) pose one problem. Each distinct problem goes to `fit_forests`
    once, in the order of the first job that needs it, as one stream cut
    into chunks of at most `_CHUNK_CELLS` bootstrap-row x tree cells (a
    forest alone may exceed it). Once a chunk is grown, the models it
    completes predict their held-out rows in one `predict_models` call, and
    a forest is dropped once every model that holds it has predicted. Jobs
    that share problems come next to each other, so a search holds about one
    chunk of forests, and their designs, at a time.
    """
    keys = [_keys(plan, candidate, tag) for plan, _, _, candidate, tag, _ in jobs]
    first = {}  # each distinct problem's first job, in stream order
    for j, job_keys in enumerate(keys):
        for key in job_keys:
            first.setdefault(key, j)
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


class LevelFit(NamedTuple):
    """One level's search on one training prefix: its winner's predictions
    of the held-out rows, and `search_meta`, the candidates, the chosen one,
    every candidate's CV loss and the budget."""

    predictions: np.ndarray
    search_meta: dict


def _search_levels(plans, candidates, budget, Z, perf, folds, Z_held) -> dict[str, LevelFit]:
    """Each planned level's `LevelFit`: every (level, candidate) pair's CV
    loss from one stream of (candidate, fold) jobs, then the winners' refits
    on all rows, predicting Z_held, in a second stream."""
    splits = []  # per fold: training rows, their targets, held-out rows
    for held_out in folds:
        train = np.ones(len(perf), dtype=bool)
        train[held_out] = False
        splits.append((Z[train], perf[train], Z[held_out]))
    # candidate-major, then fold, then level, so that the levels' jobs of
    # one (candidate, fold), which share problems, come together
    fits = list(itertools.product(range(len(candidates)), range(len(folds)), plans))
    predictions = _held_out_predictions(
        [
            (plans[level], *splits[f][:2], candidates[i], ("cv", f), splits[f][2])
            for i, f, level in fits
        ]
    )
    fold_losses = collections.defaultdict(list)  # (level, candidate) -> MSEs in fold order
    for (i, f, level), p in zip(fits, predictions):
        fold_losses[level, i].append(mse(perf[folds[f]], p))
    losses = {
        level: [float(np.mean(fold_losses[level, i])) for i in range(len(candidates))]
        for level in plans
    }
    best = {level: int(np.argmin(level_losses)) for level, level_losses in losses.items()}
    finals = _held_out_predictions(
        [(plans[level], Z, perf, candidates[best[level]], ("final",), Z_held) for level in plans]
    )
    return {
        level: LevelFit(
            final,
            {
                "candidates": candidates,
                "chosen": candidates[best[level]],
                "cv_loss": losses[level][best[level]],
                "cv_losses": losses[level],
                "budget": budget.evaluations,
            },
        )
        for level, final in zip(plans, finals)
    }


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
    training rows free; `levels` are fitted in their order, and `seed`, the
    unit's model seed, seeds every forest by its problem (`_keys`).

    Each level's candidate parent columns are found here, once per unit
    (`_level_knowledge`); a level whose knowledge does not fit the system
    fails alone, with one error returned at every training size. The
    returned callable, `search(Z, perf, Z_held)`, fits every level on the
    same training design rows Z and targets perf and prunes each level's
    candidates on them. All (level, candidate, fold) fits stream through
    `_held_out_predictions`, and a problem several levels share, such as the
    perf forest on the measured IVs, is grown once for all of them. Each
    level keeps the first candidate with the lowest mean held-out MSE, and
    the winners' refits on all rows stream through it once more, predicting
    the rows Z_held. It returns each level's `LevelFit`, or the exception
    its search raised; a failure in either stream fails every level in it.
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

    def search(Z, perf, Z_held) -> dict[str, LevelFit | Exception]:
        n = len(Z)
        if n < cv.folds:
            return dict.fromkeys(levels, ValueError(f"need at least {cv.folds} records, got {n}"))
        results: dict[str, LevelFit | Exception] = dict(failed)
        plans = {}
        for level, known in knowledge.items():
            try:
                plans[level] = _plan(seed, level, known, codes, Z, alpha_ci)
            except Exception as exc:  # this level's pruning failed on these records
                results[level] = exc
        if plans:
            try:
                folds = fold_indices(n, cv)
                results.update(_search_levels(plans, candidates, budget, Z, perf, folds, Z_held))
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
    callable maps (Z, perf, Z_held) to the level's `LevelFit`, or raises
    what its search raised. The pipeline calls `make_search`;
    perfbench/tracer.py looks this name up on `experiment`, which is its
    only reason to exist."""
    search = make_search(seed, (level,), shape, artifacts, budget, cv, space, alpha_ci)

    def factory(Z, perf, Z_held) -> LevelFit:
        result = search(Z, perf, Z_held)[level]
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
    """Fit every level on each nested training prefix and score its
    predictions of the full test set.

    `search(Z, perf, Z_held)` maps training design rows and targets, and the
    rows to predict, to each level's `LevelFit` or the exception its search
    raised (`make_search`). The training and test designs are built once; a
    prefix is a row slice. One prediction serves all requested metrics. A
    failing search marks only its level's point.
    """
    if max(sizes) > len(dataset.train):
        raise ValueError(f"max size {max(sizes)} exceeds training set {len(dataset.train)}")
    Z, perf = design(dataset.train)
    Z_test, actual = design(dataset.test)
    curves: dict[str, list[CurvePoint]] = {}
    for n in sorted(sizes):
        for level, fit in search(Z[:n], perf[:n], Z_test).items():
            try:
                if isinstance(fit, Exception):
                    raise fit
                values = {m: float(efficacy(m, fit.predictions, actual)) for m in metrics}
                point = CurvePoint(n=n, efficacies=values)
            except Exception as exc:  # isolate per-point failures
                point = CurvePoint(n=n, efficacies={}, error=f"{type(exc).__name__}: {exc}")
            curves.setdefault(level, []).append(point)
    return curves

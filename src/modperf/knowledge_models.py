"""The five knowledge-level performance modelers and efficacy curves.

Null fits one forest from option bits to performance. Partial chains
per-module forests (options -> own IVs) into an aggregator over all IVs.
Practical builds a structural model over the potential-influence-edge
superset with Fisher-Z pruning of irrelevant candidate parents; Complete is
the same machinery run on the exact influence edges. Ideal consumes the
measured IVs of test rows directly, bounding every other level from
above.

The levels differ only in the IV parent sets their knowledge yields
(`LEVEL_PARENTS`). `make_search` turns each level's candidate parents into
design-column indices once per unit; past that point models, pruning and
prediction work on columns, and `NodeId`s appear only where documents are
read and the shape is built. `design(dataset)` builds the design rows of all
of a dataset's rows once, and a training prefix and the test rows are row
slices of them. The search maps a training prefix's design rows, and the
rows to predict, to every level's predictions of them; the fitted models
serve nothing else.

Candidates are chosen by their out-of-bag (OOB) loss (Breiman, "Random
Forests", 2001), this package's reading of a method the paper does not
state. Every (candidate, level) model is fitted once, on all training rows,
in one stream (`_stream`). Tree t of every forest of a search draws the same
bootstrap rows, so a model's OOB prediction of a row cascades its IV
estimates and averages its perf forest through the same trees, the ones
that left the row out (`predict_models` with the OOB mask as tree weights).
Each level keeps its first candidate with the lowest loss (`_search_levels`).

IV regressors are trained on measured upstream values (teacher forcing) and
predict on cascaded estimates, matching how a structural causal model is
fit from observational data. Teacher forcing makes every forest of a search
independent, and its seed names its problem, not its level (`_keys`), so a
problem several levels pose is grown once and shared: the perf forest on
the measured IVs serves `partial`, `practical`, `complete` and `ideal`. For
a fixed (dataset, training size) all levels consume the identical training
prefix, candidate list, bootstrap rows and search budget.
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
    FittedForest,
    ForestParams,
    SearchBudget,
    bootstrap_rows,
    budget_chunks,
    enumerate_candidates,
    fit_forests,
    mse,
    predict_forests,
)
from .learners import fit_forest  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 2)
from .metrics import efficacy
from .seeds import derive
from .stats import fisher_z_screen

DEFAULT_ALPHA_CI = 0.05
# Bootstrap-row x tree cells of the forests one chunk of a search's stream
# grows and holds until its models have been scored. Bounds a search's
# memory whatever its budget and levels.
_CHUNK_CELLS = 1 << 19


@dataclass(frozen=True)
class SystemShape:
    """Canonical node orders binding dataset columns to graph nodes.

    A dataset row's design row is its option bits followed by its measured IVs:
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


def design(dataset: SystemDataset) -> tuple[np.ndarray, np.ndarray]:
    """Design rows of all the dataset's rows, in the layout SystemShape
    describes, and their first performance value, the target every level
    models. Training rows come first: a training prefix of n rows is `[:n]`
    of both, and the test rows are `[dataset.n_train:]`."""
    return np.hstack([dataset.bits, dataset.ivs], dtype=float), dataset.perf[:, 0]


class MeanModel:
    """Constant predictor, the fallback for IVs left without parents. It
    holds no trees, so its out-of-bag estimate of every row is its value,
    the IV's mean over all training rows (`predict_models`)."""

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


def _predict_each(models, Xs, weights) -> list[np.ndarray]:
    """Each model's prediction on its X: every fitted forest among them in one
    `predict_forests` call, with its tree weights (or None), any other model
    (a `MeanModel` fallback) through its own `predict`, unweighted."""
    forests = [k for k, m in enumerate(models) if isinstance(m, FittedForest)]
    predicted = predict_forests(
        [models[k] for k in forests], [Xs[k] for k in forests], [weights[k] for k in forests]
    )
    out = dict(zip(forests, predicted))
    return [out[k] if k in out else m.predict(Xs[k]) for k, m in enumerate(models)]


def predict_models(models, Zs, weights=None) -> list[np.ndarray]:
    """Each `ModularPredictor`'s predictions on its own design rows, equal to
    what the model alone predicts. A copy of each Z has every modelled IV's
    column overwritten with its cascaded estimate; IVs without a model keep
    their measured values, and Z itself is left unchanged.

    `weights`, if given, holds per model None or a (rows, trees) array of
    tree weights that all its forests average by (`predict_forests`), such
    as an out-of-bag mask; a `MeanModel` fallback predicts its value.

    The IV estimates cascade generation by generation (`steps`): every
    model's IVs of one generation read their input columns and predict in
    one batched forest walk, then every model's perf forest in one more.
    """
    Zs = [np.array(Z, dtype=float) for Z in Zs]
    weights = [None] * len(models) if weights is None else weights
    for g in range(max((len(m.steps) for m in models), default=0)):
        step = [
            (Z, w, m.iv_models[iv])
            for Z, w, m in zip(Zs, weights, models)
            if g < len(m.steps)
            for iv in m.steps[g]
        ]
        Xs = [Z.take(iv_model.inputs, axis=1) for Z, _, iv_model in step]
        ivs = _predict_each([m.model for *_, m in step], Xs, [w for _, w, _ in step])
        for (Z, _, iv_model), values in zip(step, ivs):
            Z[:, iv_model.column] = values
    Xs = [Z.take(m.perf_inputs, axis=1) for Z, m in zip(Zs, models)]
    return _predict_each([m.perf_model for m in models], Xs, weights)


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
    found: `seed` is the unit's model seed, `rows_seed` = derive(seed,
    "rows", len(Z)) seeds the bootstrap rows of every forest of the search,
    `parents` maps each modelled IV's column to its input columns, in
    evaluation order, and
    `forests` holds one (target, input columns, target column) triple per
    forest a fit grows, the IVs with parents in evaluation order and then
    the perf forest (target "perf", column None)."""

    level: str
    seed: int
    rows_seed: int
    parents: dict[int, tuple[int, ...]]
    forests: tuple[tuple[str, tuple[int, ...], int | None], ...]


def _plan(seed, level, knowledge: _Knowledge, codes, Z, alpha_ci) -> _Plan:
    """`level`'s plan on design rows Z; `codes[c]` is the node code of
    design column c, which names the IV forests' seeds."""
    parents = knowledge.candidates
    if knowledge.prunes:
        parents = prune_parents(Z, candidates_by_iv=parents, alpha_ci=alpha_ci)
    forests = tuple((codes[iv], inputs, iv) for iv, inputs in parents.items() if inputs)
    perf = ("perf", knowledge.perf_inputs, None)
    return _Plan(level, seed, derive(seed, "rows", len(Z)), parents, forests + (perf,))


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
    """One forest problem of a search: its params, seeds included, its
    target column (None for perf) and its input columns."""

    params: ForestParams
    column: int | None
    inputs: tuple[int, ...]


def _keys(plan: _Plan, candidate: dict) -> list[_Key]:
    """The problems of `plan`'s forests for one candidate, in `plan.forests`
    order.

    Seed paths: every forest draws its bootstrap rows from `plan.rows_seed`;
    its split keys come from derive(plan.seed, target, min_samples_leaf,
    feature_subsample.hex()), where target is an IV's code or "perf". The
    seeds name the problem and the candidate's family, never the level or
    the candidate's index, so levels that grow one problem get one key, and
    candidates of one family differ only in `n_trees` and `max_depth`.
    """
    family = (int(candidate["min_samples_leaf"]), float(candidate["feature_subsample"]).hex())
    return [
        _Key(
            ForestParams(
                **candidate,
                bootstrap_seed=derive(plan.seed, target, *family),
                rows_seed=plan.rows_seed,
            ),
            column,
            inputs,
        )
        for target, inputs, column in plan.forests
    ]


def _problem(key: _Key, Z, perf):
    """The (X, y, params) triple of `key` on design rows Z and targets perf."""
    y = perf if key.column is None else Z[:, key.column]
    return Z.take(key.inputs, axis=1), y, key.params


def _stream(jobs, Z, perf):
    """Fit each (plan, candidate) job's model on design rows Z and targets
    perf, and yield the finished ones as lists of (job index, model): the
    one way the search fits.

    Equal problem keys (`_keys`) pose one problem. Each distinct problem
    goes to `fit_forests` once, in the order of the first job that needs it,
    as one stream cut into chunks of at most `_CHUNK_CELLS` bootstrap-row x
    tree cells (a forest alone may exceed it). Once a chunk is grown, the
    jobs it completes are yielded in job order, and when the consumer asks
    for more, a forest is dropped once every job that holds it has been
    yielded. Jobs that share problems come next to each other, so a search
    holds about one chunk of forests at a time.
    """
    keys = [_keys(plan, candidate) for plan, candidate in jobs]
    first = {}  # each distinct problem's first job, in stream order
    for j, job_keys in enumerate(keys):
        for key in job_keys:
            first.setdefault(key, j)
    position = {key: k for k, key in enumerate(first)}
    # a job is complete once the last of its problems in the stream is grown
    ready = [max(position[key] for key in job_keys) for job_keys in keys]
    uses = collections.Counter(key for job_keys in keys for key in job_keys)
    grown = {}
    pending, streamed = range(len(jobs)), 0
    for chunk in budget_chunks(first, lambda key: len(Z) * key.params.n_trees, _CHUNK_CELLS):
        grown.update(zip(chunk, fit_forests(*zip(*(_problem(key, Z, perf) for key in chunk)))))
        streamed += len(chunk)
        done = [j for j in pending if ready[j] < streamed]
        pending = [j for j in pending if ready[j] >= streamed]
        if done:
            yield [(j, _assemble(jobs[j][0], Z, map(grown.__getitem__, keys[j]))) for j in done]
        for key in (key for j in done for key in keys[j]):
            uses[key] -= 1
            if not uses[key]:
                del grown[key]


class LevelFit(NamedTuple):
    """One level's search on one training prefix: its winner's predictions
    of the held-out rows, and `search_meta`, the candidates, the chosen one,
    every candidate's OOB loss, the number of rows they are scored on and
    the budget."""

    predictions: np.ndarray
    search_meta: dict


def _out_of_bag(rows_seed, n, candidates) -> tuple[np.ndarray, np.ndarray]:
    """The rows a search on n rows scores, those every candidate leaves out
    of some tree, and their (rows, trees) out-of-bag mask. The fewest-tree
    candidate's trees are a prefix of every other's, so its trees decide."""
    trees = [int(c["n_trees"]) for c in candidates]
    in_bag = np.zeros((max(trees), n), dtype=bool)
    in_bag[np.arange(max(trees))[:, None], bootstrap_rows(rows_seed, n, max(trees))] = True
    scored = np.flatnonzero(~in_bag[: min(trees)].all(axis=0))
    if not len(scored):
        raise ValueError(f"no row of {n} is out of bag in a tree of every candidate")
    return scored, ~in_bag[:, scored].T


def _search_levels(plans, candidates, budget, Z, perf, Z_held) -> dict[str, LevelFit]:
    """Each planned level's `LevelFit` from one stream of (candidate, level)
    jobs on all rows. A job's loss is the MSE of its model's out-of-bag
    predictions of the scored rows (`_out_of_bag`); a model that beats its
    level's best so far predicts Z_held before its forests are dropped."""
    rows_seed = next(iter(plans.values())).rows_seed
    scored, oob = _out_of_bag(rows_seed, len(perf), candidates)
    # candidate-major: the levels' jobs of one candidate share problems
    fits = list(itertools.product(range(len(candidates)), plans))
    losses = {level: [] for level in plans}
    best = {}  # level -> (candidate index, predictions of Z_held)
    for done in _stream([(plans[level], candidates[i]) for i, level in fits], Z, perf):
        weights = [oob[:, : int(candidates[fits[j][0]]["n_trees"])] for j, _ in done]
        predicted = predict_models([m for _, m in done], [Z[scored]] * len(done), weights)
        records = {}  # level -> (candidate index, model) of its new best
        for (j, model), p in zip(done, predicted):
            i, level = fits[j]
            loss = mse(perf[scored], p)
            if not losses[level] or loss < min(losses[level]):
                records[level] = (i, model)
            losses[level].append(loss)
        held = predict_models([model for _, model in records.values()], [Z_held] * len(records))
        best.update((level, (i, p)) for (level, (i, _)), p in zip(records.items(), held))
    meta = {"candidates": candidates, "oob_rows": len(scored), "budget": budget.evaluations}
    return {
        level: LevelFit(
            p, meta | {"chosen": candidates[i], "oob_loss": losses[level][i], "oob_losses": losses[level]}
        )
        for level, (i, p) in best.items()
    }


def make_search(
    seed: int,
    levels,
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
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
    candidates on them. Every (candidate, level) model is fitted once, on
    all rows, in one stream (`_search_levels`), and a problem several levels
    share, such as the perf forest on the measured IVs, is grown once for
    all of them. Each level keeps the first candidate with the lowest
    out-of-bag loss, whose model predicts the rows Z_held. It returns each
    level's `LevelFit`, or the exception its search raised; a failure in
    the stream fails every level in it.
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
        results: dict[str, LevelFit | Exception] = dict(failed)
        plans = {}
        for level, known in knowledge.items():
            try:
                plans[level] = _plan(seed, level, known, codes, Z, alpha_ci)
            except Exception as exc:  # this level's pruning failed on these records
                results[level] = exc
        if plans:
            try:
                results.update(_search_levels(plans, candidates, budget, Z, perf, Z_held))
            except Exception as exc:  # the levels share every fit
                results.update(dict.fromkeys(plans, exc))
        return {level: results[level] for level in levels}

    return search


def make_factory(
    level: str,
    shape: SystemShape,
    artifacts: KnowledgeArtifacts | None,
    budget: SearchBudget,
    space: dict,
    alpha_ci: float = DEFAULT_ALPHA_CI,
    seed: int = 0,
):
    """One level's search: the one-level call of `make_search`. The returned
    callable maps (Z, perf, Z_held) to the level's `LevelFit`, or raises
    what its search raised. The pipeline calls `make_search`;
    perfbench/tracer.py looks this name up on `experiment`, which is its
    only reason to exist."""
    search = make_search(seed, (level,), shape, artifacts, budget, space, alpha_ci)

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
    raised (`make_search`). The design is built once; a training prefix and
    the test rows are row slices of it. One prediction serves all requested
    metrics. A failing search marks only its level's point.
    """
    if min(sizes) < 1 or max(sizes) > dataset.n_train:
        raise ValueError(f"training sizes must lie in 1..{dataset.n_train}, got {sizes}")
    Z, perf = design(dataset)
    Z_test, actual = Z[dataset.n_train:], perf[dataset.n_train:]
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

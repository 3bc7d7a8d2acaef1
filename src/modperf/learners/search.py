"""Seeded k-fold cross-validation and budgeted hyperparameter candidates.

Every model search in the package runs over the same split: `fold_indices`
gives the held-out index arrays, each candidate's loss is its mean held-out
loss over them, and the search keeps the first candidate with the lowest
loss (`np.argmin`). `cross_validate_many` scores every (level, candidate)
pair of a knowledge-model search from one call that predicts every fold's
held-out rows for all of them.
The stage-1 lasso scores all alphas of a degree at once with
`lasso.cross_validate_l1_many`, over `lasso.alpha_grid`, on `fold_indices`
drawn over systems (`stats.system_folds`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..seeds import rng_for


@dataclass(frozen=True)
class CVSpec:
    folds: int = 5
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class SearchBudget:
    evaluations: int
    seed: int = 0

    def __post_init__(self):
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


def mse(actual, predicted) -> float:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    return float(np.mean((actual - predicted) ** 2))


def fold_indices(n: int, spec: CVSpec) -> list[np.ndarray]:
    if spec.folds > n:
        raise ValueError(f"folds {spec.folds} exceeds sample count {n}")
    order = rng_for(spec.shuffle_seed, "cv").permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, spec.folds)]


def cross_validate_many(predict_fn, X, y, folds: list[np.ndarray], loss=mse) -> list[float]:
    """Each candidate's mean held-out loss over the folds, index arrays from
    `fold_indices`.

    `predict_fn(splits)` gets one (X_train, y_train, X_held_out) triple per
    fold, the rows outside it and the rows in it, and returns one list per
    candidate holding its predictions of each fold's held-out rows from a
    fit on that fold's training rows. So one call fits and predicts every
    candidate on every fold.
    """
    splits = []
    for held_out in folds:
        train = np.ones(len(y), dtype=bool)
        train[held_out] = False
        splits.append((X[train], y[train], X[held_out]))
    return [
        float(np.mean([loss(y[h], p) for p, h in zip(predictions, folds)]))
        for predictions in predict_fn(splits)
    ]


def _grid_size(space: dict) -> int | None:
    size = 1
    for values in space.values():
        if not isinstance(values, list):
            return None
        size *= len(values)
    return size


def enumerate_candidates(space: dict, budget: SearchBudget) -> list[dict]:
    """Candidate parameter draws: the full grid when it fits the budget,
    otherwise exactly `budget.evaluations` seeded random draws."""
    if not space:
        raise ValueError("empty search space")
    grid_size = _grid_size(space)
    if grid_size is not None and grid_size <= budget.evaluations:
        keys = list(space)
        return [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]
    rng = rng_for(budget.seed, "hyperparams")
    candidates = []
    for _ in range(budget.evaluations):
        cand = {}
        for key, values in space.items():
            if isinstance(values, list):
                cand[key] = values[int(rng.integers(len(values)))]
            else:
                tag, lo, hi = values
                if tag != "int":
                    raise ValueError(f"unsupported range spec {values!r} for {key}")
                cand[key] = int(rng.integers(lo, hi + 1))
        candidates.append(cand)
    return candidates

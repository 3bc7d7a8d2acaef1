"""In-repo regression engines: bagged CART forest, coordinate-descent lasso
over polynomial features, k-fold cross-validation, and budgeted search."""

from .forest import (
    FittedForest,
    ForestParams,
    budget_chunks,
    fit_forest,
    fit_forests,
    forest_search_space,
    predict_forests,
)
from .lasso import (
    FittedL1,
    L1Params,
    alpha_grid,
    cross_validate_l1_many,
    fit_l1,
    soft_threshold,
)
from .polynomial import PolynomialExpansion
from .search import (
    CVSpec,
    SearchBudget,
    enumerate_candidates,
    fold_indices,
    mse,
)

__all__ = [
    "CVSpec",
    "FittedForest",
    "FittedL1",
    "ForestParams",
    "L1Params",
    "PolynomialExpansion",
    "SearchBudget",
    "alpha_grid",
    "budget_chunks",
    "cross_validate_l1_many",
    "enumerate_candidates",
    "fit_forest",
    "fit_forests",
    "fit_l1",
    "fold_indices",
    "forest_search_space",
    "mse",
    "predict_forests",
    "soft_threshold",
]

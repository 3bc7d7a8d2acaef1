"""In-repo regression engines: bagged CART forest, coordinate-descent lasso
over polynomial features, k-fold cross-validation (stage 1), and budgeted
candidate search."""

from .forest import (
    FittedForest,
    ForestParams,
    bootstrap_rows,
    budget_chunks,
    fit_forest,
    fit_forests,
    forest_search_space,
    predict_forests,
)
from .lasso import (
    CVLosses,
    FittedL1,
    L1Params,
    alpha_grid,
    cross_validate_l1_many,
    fit_l1,
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
    "CVLosses",
    "CVSpec",
    "FittedForest",
    "FittedL1",
    "ForestParams",
    "L1Params",
    "PolynomialExpansion",
    "SearchBudget",
    "alpha_grid",
    "bootstrap_rows",
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
]

"""L1-regularized linear regression by cyclic coordinate descent.

Objective: (1/2n) * ||y - Zb - intercept||^2 + alpha * ||b||_1 with an
unpenalized intercept; coordinate updates use the soft-threshold operator.
Inputs are expanded to polynomial features and (by default) min-max scaled
to [0, 1] before fitting.

Coordinate descent runs in Gram (covariance-update) form on the centred
design (Friedman, Hastie and Tibshirani, J. Stat. Softw. 2010): a design Z
enters only through G = Zc'Zc/n with Zc = Z - zbar, c = Z'(y - ybar)/n and
the column means zbar. Centring profiles the intercept out: for any b the
best intercept is ybar - zbar.b, and the residual y - ybar - Zc b does not
depend on it. So the objective and its optimum are those of the uncentred
problem, but the coefficients need not drag the intercept along, which on
min-max scaled, strongly collinear polynomial columns takes hundreds of
sweeps. The solver keeps rho = q + diag(G) b current, where
q = Zc'r/n and r is the residual, with one rank-1 update per coordinate step
(column j of G without its diagonal entry times the step), so a sweep costs
O(d^2) whatever n is. The iterates are those of the residual-form loop on
Zc up to rounding: coefficients are visited in column order and
soft-thresholded, a dead column (constant, or of zero centred norm) is never
updated, each sweep ends with one intercept shift
ybar - intercept - zbar.b, and a problem stops after the first sweep in
which no coefficient and not the shift moved by `tol` or more, or after
`max_iter` sweeps. That rule bounds steps, not the distance to the optimum.

One solver call runs many independent problems together, each a (design,
alpha) pair, with one numpy operation per coordinate step for all of them.
A problem that stops leaves the batch, so it stops at the sweep it would stop
at alone, and its result does not depend on the other problems in the batch,
bit for bit. `fit_l1` is the single-problem call; `cross_validate_l1_many`
solves every (task, fold, alpha) problem of one polynomial degree in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polynomial import PolynomialExpansion


@dataclass(frozen=True)
class L1Params:
    alpha: float
    degree: int = 1
    max_iter: int = 1000
    tol: float = 1e-8
    scale: bool = True

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 1 <= self.degree <= 4:
            raise ValueError(f"degree must be in [1, 4], got {self.degree}")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class SolveCounts:
    """How a set of solver problems ended."""

    problems: int
    unconverged: int  # stopped at `max_iter`
    max_sweeps: int


@dataclass
class FittedL1:
    params: L1Params
    expansion: PolynomialExpansion
    scale_min: np.ndarray
    scale_range: np.ndarray
    coefs: np.ndarray
    intercept: float
    converged: bool
    n_sweeps: int
    objective_history: list[float] = field(default_factory=list, repr=False)
    # for a fit chosen by cross-validation, how that search's (fold, alpha)
    # problems ended, per degree (`stats.aspect_regression`)
    cv_solves: dict[int, SolveCounts] = field(default_factory=dict, repr=False)

    def _design(self, X) -> np.ndarray:
        Z = self.expansion.transform(np.asarray(X, dtype=float))
        return (Z - self.scale_min) / self.scale_range

    def predict(self, X) -> np.ndarray:
        return self._design(X) @ self.coefs + self.intercept

    def coefficient_map(self) -> dict[str, float]:
        return dict(zip(self.expansion.term_names(), self.coefs.tolist()))


def _check_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
        raise ValueError("X must be 2-D with one row per y entry and at least one row")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    return X, y


def _design(X, degree: int, scale: bool, feature_names=None):
    """Polynomial expansion fitted on X, the scaling of its columns, and the scaled design."""
    expansion = PolynomialExpansion(degree=degree).fit(X, feature_names)
    Z = expansion.transform(X)
    if scale:
        mn = Z.min(axis=0)
        rng = Z.max(axis=0) - mn
        rng[rng == 0.0] = 1.0
    else:
        mn = np.zeros(Z.shape[1])
        rng = np.ones(Z.shape[1])
    return expansion, mn, rng, (Z - mn) / rng


@dataclass
class _Gram:
    """Gram quantities of M designs padded to d columns; a padded column is all zero."""

    G: np.ndarray  # (M, d, d) Zc'Zc/n, with Zc = Z - zbar
    c: np.ndarray  # (M, d) Z'(y - ybar)/n = Zc'(y - ybar)/n
    zbar: np.ndarray  # (M, d)
    ybar: np.ndarray  # (M,)
    yvar: np.ndarray  # (M,) mean of (y - ybar)^2

    @staticmethod
    def of(designs: list[tuple[np.ndarray, np.ndarray]]) -> "_Gram":
        d = max(Z.shape[1] for Z, _ in designs)
        m = len(designs)
        gram = _Gram(np.zeros((m, d, d)), np.zeros((m, d)), np.zeros((m, d)), np.zeros(m), np.zeros(m))
        for i, (Z, y) in enumerate(designs):
            n, k = Z.shape
            ybar = y.mean()
            yc = y - ybar
            zbar = Z.mean(axis=0)
            Zc = Z - zbar
            G = Zc.T @ Zc / n
            # A constant column is dead: the intercept absorbs it. Its values
            # need not centre to exact zeros (n copies of 0.1 do not), so it
            # is found by its values as well as by its centred norm; zeroing
            # its row and column keeps it at 0.
            dead = (Z == Z[0]).all(axis=0) | (np.diag(G) == 0.0)
            G[dead, :] = 0.0
            G[:, dead] = 0.0
            gram.G[i, :k, :k] = G
            gram.c[i, :k] = np.where(dead, 0.0, Z.T @ yc / n)
            gram.zbar[i, :k] = np.where(dead, 0.0, zbar)
            gram.ybar[i] = ybar
            gram.yvar[i] = yc @ yc / n
        return gram


# `_solve` copies one d x d Gram matrix per problem; `cross_validate_l1_many`
# keeps a call's copies within this many cells (16 MiB), one alpha at least.
_SOLVE_CELLS = 1 << 21


@dataclass
class _Solution:
    coefs: np.ndarray  # (K, d)
    intercept: np.ndarray  # (K,)
    n_sweeps: np.ndarray  # (K,)
    converged: np.ndarray  # (K,)
    objective_history: list[float] | None  # problem 0 only, when recorded


def _solve(
    gram: _Gram,
    which: np.ndarray,
    alpha: np.ndarray,
    max_iter: int,
    tol: float,
    record_objective: bool = False,
) -> _Solution:
    """Coordinate descent on K problems at once: problem k is design which[k] at alpha[k].

    With `record_objective` the objective of problem 0 is kept after every
    sweep (and before the first) in O(d), from the identity
    ||r||^2/n = yvar - b.(c + q), which holds once the intercept shift has
    set the intercept to ybar - zbar.b.
    """
    K = len(which)
    d = gram.G.shape[1]
    # Problems run along the last axis: Gk[j] holds column j of every
    # problem's G without its diagonal entry, so a coordinate step is a
    # handful of row operations.
    Gk = np.ascontiguousarray(gram.G.transpose(1, 2, 0)[:, :, which])  # (d, d, K)
    gjj = np.diagonal(Gk, axis1=0, axis2=1).T.copy()  # (d, K)
    Gk[np.arange(d), np.arange(d)] = 0.0
    gjj_safe = np.where(gjj == 0.0, 1.0, gjj)  # a zero column's update is 0 / 1
    out = _Solution(
        coefs=np.zeros((K, d)),
        intercept=gram.ybar[which].copy(),  # the answer for max_iter = 0
        n_sweeps=np.zeros(K, dtype=int),
        converged=np.zeros(K, dtype=bool),
        objective_history=None,
    )
    active = np.arange(K)
    a = np.asarray(alpha, dtype=float)
    neg_a = -a
    b = np.zeros((d, K))
    rho = np.ascontiguousarray(gram.c[which].T)  # q + diag(G) b, with q = Zc'r/n
    zbar = np.ascontiguousarray(gram.zbar[which].T)
    ybar = gram.ybar[which]
    intercept = ybar.copy()
    if record_objective:
        out.objective_history = [float(gram.yvar[which[0]] / 2.0)]

    for sweep in range(1, max_iter + 1):
        b_before = b.copy()
        for j in range(d):
            # soft threshold sign(rho) * max(|rho| - a, 0): rho - a, rho + a or exactly 0.0
            new = rho[j] - np.minimum(np.maximum(rho[j], neg_a), a)
            new /= gjj_safe[j]
            delta = new - b[j]
            b[j] = new
            rho -= Gk[j] * delta
        # accumulate sums in column order for any K, so a problem's bits do
        # not depend on the batch it runs in
        shift = ybar - intercept - np.add.accumulate(zbar * b)[-1]
        intercept += shift
        if record_objective and active[0] == 0:
            q0 = rho[:, 0] - gjj[:, 0] * b[:, 0]
            rss = gram.yvar[which[0]] - b[:, 0] @ (gram.c[which[0]] + q0)
            out.objective_history.append(float(rss / 2.0 + a[0] * np.abs(b[:, 0]).sum()))

        # each coefficient moved once this sweep, so its move is b - b_before
        done = np.maximum(np.abs(b - b_before).max(axis=0), np.abs(shift)) < tol
        stop = done if sweep < max_iter else np.ones(len(active), dtype=bool)
        if not stop.any():
            continue
        ids = active[stop]
        out.coefs[ids] = b[:, stop].T
        out.intercept[ids] = intercept[stop]
        out.n_sweeps[ids] = sweep
        out.converged[ids] = done[stop]
        keep = ~stop
        if not keep.any():
            break
        active, a, neg_a, intercept, ybar = active[keep], a[keep], neg_a[keep], intercept[keep], ybar[keep]
        Gk, gjj, gjj_safe = Gk[:, :, keep], gjj[:, keep], gjj_safe[:, keep]
        b, rho, zbar = b[:, keep], rho[:, keep], zbar[:, keep]
    return out


def fit_l1(X, y, params: L1Params, feature_names: list[str] | None = None) -> FittedL1:
    X, y = _check_inputs(X, y)
    expansion, mn, rng, Z = _design(X, params.degree, params.scale, feature_names)
    sol = _solve(
        _Gram.of([(Z, y)]),
        np.zeros(1, dtype=int),
        np.array([params.alpha]),
        params.max_iter,
        params.tol,
        record_objective=True,
    )
    return FittedL1(
        params=params,
        expansion=expansion,
        scale_min=mn,
        scale_range=rng,
        coefs=sol.coefs[0],
        intercept=float(sol.intercept[0]),
        converged=bool(sol.converged[0]),
        n_sweeps=int(sol.n_sweeps[0]),
        objective_history=sol.objective_history,
    )


class CVLosses(list):
    """`cross_validate_l1_many`'s result: one loss array per task, and in
    `solves` one `SolveCounts` per task over its (fold, alpha) problems."""

    def __init__(self, losses, solves: list[SolveCounts]):
        super().__init__(losses)
        self.solves = solves


def cross_validate_l1_many(tasks, degree: int, alphas) -> CVLosses:
    """Mean held-out MSE per alpha of each (X, y, folds) task, for
    `L1Params` defaults at `degree`; folds are held-out index arrays, as
    from `fold_indices`. Entry i of a task's losses equals the mean held-out
    MSE of `fit_l1(..., L1Params(alpha=alphas[i], degree=degree))` over its
    folds, up to rounding. The result's `solves` says how each task's
    (fold, alpha) problems ended.

    Each fold's expansion and scaling are fitted on its training rows, as
    `fit_l1` does, and every (task, fold, alpha) problem is solved in one
    solver call, or in runs of alphas when their Gram copies would exceed
    `_SOLVE_CELLS` (degree 4 with many alphas). The solver keeps each
    problem's result independent of its batch, so a task's losses are the
    bits it gets alone.
    """
    base = L1Params(alpha=0.0, degree=degree)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or (alphas < 0).any():
        raise ValueError("alphas must be a 1-D sequence of values >= 0")
    train_designs, held_out, bounds = [], [], [0]
    for X, y, folds in tasks:
        X, y = _check_inputs(X, y)
        for rows in folds:
            mask = np.ones(len(y), dtype=bool)
            mask[rows] = False
            expansion, mn, rng, Z = _design(X[mask], degree, base.scale)
            train_designs.append((Z, y[mask]))
            held_out.append(((expansion.transform(X[rows]) - mn) / rng, y[rows]))
        bounds.append(len(held_out))

    gram = _Gram.of(train_designs)
    F, A, d = len(train_designs), len(alphas), gram.G.shape[1]
    coefs, intercepts = np.empty((F, A, d)), np.empty((F, A))
    sweeps, converged = np.empty((F, A), dtype=int), np.empty((F, A), dtype=bool)
    per_call = max(1, _SOLVE_CELLS // (F * d * d))
    for lo in range(0, A, per_call):
        part = alphas[lo : lo + per_call]
        sol = _solve(gram, np.repeat(np.arange(F), len(part)), np.tile(part, F), base.max_iter, base.tol)
        coefs[:, lo : lo + len(part)] = sol.coefs.reshape(F, len(part), d)
        intercepts[:, lo : lo + len(part)] = sol.intercept.reshape(F, len(part))
        sweeps[:, lo : lo + len(part)] = sol.n_sweeps.reshape(F, len(part))
        converged[:, lo : lo + len(part)] = sol.converged.reshape(F, len(part))
    losses = np.empty((F, A))
    for f, (Z, y_held) in enumerate(held_out):
        predicted = Z @ coefs[f, :, : Z.shape[1]].T + intercepts[f]
        losses[f] = np.mean((y_held[:, None] - predicted) ** 2, axis=0)
    spans = list(zip(bounds, bounds[1:]))
    return CVLosses(
        [losses[lo:hi].mean(axis=0) for lo, hi in spans],
        [
            SolveCounts(
                problems=(hi - lo) * A,
                unconverged=int((~converged[lo:hi]).sum()),
                max_sweeps=int(sweeps[lo:hi].max(initial=0)),
            )
            for lo, hi in spans
        ],
    )


def alpha_grid(steps: int = 500) -> np.ndarray:
    """The stage-1 alpha grid: `steps` log-spaced alphas in [1e-4, 10]."""
    return np.logspace(np.log10(1e-4), np.log10(10.0), steps)

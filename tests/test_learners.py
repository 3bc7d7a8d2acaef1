import hashlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_soft_threshold
from modperf.learners import (
    CVSpec,
    ForestParams,
    L1Params,
    PolynomialExpansion,
    SearchBudget,
    cross_validate_l1_many,
    enumerate_candidates,
    fit_forest,
    fit_forests,
    fit_l1,
    fold_indices,
    mse,
)
from modperf.learners import forest, lasso
from modperf.seeds import rng_for


def _rng(seed=0):
    return np.random.default_rng(seed)


def cross_validate(fit_fn, X, y, folds, loss=mse) -> float:
    """Reference: mean held-out loss over the folds of one candidate, in
    fold order, whose `fit_fn(X_train, y_train, fold)` gets the rows outside
    fold number `fold`."""
    losses = []
    for f, held_out in enumerate(folds):
        train = np.ones(len(y), dtype=bool)
        train[held_out] = False
        losses.append(loss(y[held_out], fit_fn(X[train], y[train], f).predict(X[held_out])))
    return float(np.mean(losses))


def cross_validate_l1(X, y, degree: int, alphas, spec: CVSpec) -> np.ndarray:
    """Reference: mean held-out MSE per alpha over the `fold_indices` folds
    of `spec`; the one-task call of `cross_validate_l1_many`."""
    return cross_validate_l1_many([(X, y, fold_indices(len(y), spec))], degree, alphas)[0]


# ----------------------------------------------------------------- forest


def test_forest_constant_target():
    X = _rng().random((80, 5))
    model = fit_forest(X, np.full(80, 2.5), ForestParams(n_trees=4, max_depth=4))
    assert np.allclose(model.predict(X), 2.5)


def test_forest_exact_on_binary_single_feature():
    X = _rng(1).integers(0, 2, size=(150, 1)).astype(float)
    y = X[:, 0].copy()
    model = fit_forest(X, y, ForestParams(n_trees=8, max_depth=1, bootstrap_seed=3))
    assert np.array_equal(model.predict(X), y)


def test_forest_predictions_within_target_range():
    rng = _rng(2)
    X = rng.random((120, 6))
    y = rng.normal(size=120)
    model = fit_forest(X, y, ForestParams(n_trees=10, max_depth=6, bootstrap_seed=5))
    preds = model.predict(rng.random((500, 6)))
    assert preds.min() >= y.min() - 1e-12
    assert preds.max() <= y.max() + 1e-12


def test_forest_deterministic_in_seed():
    rng = _rng(3)
    X, y = rng.random((100, 4)), rng.normal(size=100)
    p = ForestParams(n_trees=6, max_depth=5, bootstrap_seed=11)
    a = fit_forest(X, y, p).predict(X)
    b = fit_forest(X, y, p).predict(X)
    assert np.array_equal(a, b)
    c = fit_forest(X, y, ForestParams(n_trees=6, max_depth=5, bootstrap_seed=12)).predict(X)
    assert not np.array_equal(a, c)


def _bootstrap_rows(params: ForestParams, n: int) -> np.ndarray:
    """The (n_trees, n) bootstrap row indices fit_forest draws."""
    return rng_for(params.bootstrap_seed, "bootstrap").integers(0, n, size=(params.n_trees, n))


def _leaf_of(tree, X) -> np.ndarray:
    leaves = []
    for row in X:
        idx = 0
        while tree.feature[idx] >= 0:
            go_left = row[tree.feature[idx]] <= tree.threshold[idx]
            idx = tree.left[idx] if go_left else tree.right[idx]
        leaves.append(idx)
    return np.asarray(leaves, dtype=int)


def _assert_leaves_hold(model, X, min_rows):
    """Every leaf of every tree holds at least min_rows of its bootstrap rows."""
    for tree, rows in zip(model.trees, _bootstrap_rows(model.params, len(X))):
        counts = np.bincount(_leaf_of(tree, X[rows]), minlength=len(tree.value))
        assert counts[tree.feature < 0].min() >= min_rows


def test_forest_min_samples_leaf_respected():
    rng = _rng(4)
    X, y = rng.random((60, 3)), rng.normal(size=60)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=12, min_samples_leaf=7))
    assert all((tree.feature >= 0).any() for tree in model.trees)
    _assert_leaves_hold(model, X, 7)


def test_leaf_rules_count_draws_not_distinct_rows():
    """A tree grows on its distinct rows weighted by their draw counts, and
    every leaf rule counts draws: a root holding 4 draws of 2 distinct rows
    meets 2 * min_samples_leaf = 4 and splits into two leaves of 2 draws."""
    n = 4

    def draws(seed):
        return _bootstrap_rows(ForestParams(1, 1, bootstrap_seed=seed), n)[0]

    # a seed whose one tree draws 2 distinct rows twice each
    seed = next(s for s in range(1000) if sorted(np.bincount(draws(s), minlength=n)) == [0, 0, 2, 2])
    drawn = np.unique(draws(seed))
    y = np.array([0.0, 1.0, 2.0, 3.0])
    binary = np.zeros((n, 1))
    binary[drawn[1]] = 1.0
    for X in (binary, np.arange(n, dtype=float)[:, None] / n):
        model = fit_forest(X, y, ForestParams(1, 3, min_samples_leaf=2, bootstrap_seed=seed))
        assert model.feature.tolist() == [0, -1, -1]
        assert model.value[1:].tolist() == y[drawn].tolist()
        _assert_leaves_hold(model, X, 2)
        # 4 draws are fewer than 2 * 3: the root stays a leaf
        model = fit_forest(X, y, ForestParams(1, 3, min_samples_leaf=3, bootstrap_seed=seed))
        assert model.feature.tolist() == [-1]


def _sse(targets) -> Fraction:
    return sum(Fraction(t) ** 2 for t in targets) - Fraction(sum(targets)) ** 2 / len(targets)


def _oracle_tree(X, y, rows, depth, max_depth, min_leaf):
    """Exhaustive CART search at every node, with exact rational SSE.

    Returns a leaf value or (feature, threshold, left, right); ties go to
    fewer rows on the left, then to the lower feature index.
    """
    targets = [int(y[i]) for i in rows]
    value = sum(targets) / len(targets)
    if depth == max_depth or len(rows) < 2 * min_leaf or min(targets) == max(targets):
        return value
    best = None
    for f in range(X.shape[1]):
        values = sorted({X[i, f] for i in rows})
        for lo, hi in zip(values, values[1:]):
            threshold = 0.5 * (lo + hi)
            left = [i for i in rows if X[i, f] <= threshold]
            right = [i for i in rows if X[i, f] > threshold]
            if min(len(left), len(right)) < min_leaf:
                continue
            sse = _sse([int(y[i]) for i in left]) + _sse([int(y[i]) for i in right])
            key = (sse, len(left), f)
            if best is None or key < best[0]:
                best = (key, f, threshold, left, right)
    if best is None:
        return value
    _, f, threshold, left, right = best
    children = [_oracle_tree(X, y, part, depth + 1, max_depth, min_leaf) for part in (left, right)]
    return (f, threshold, *children)


def _oracle_predict(spec, row) -> float:
    while isinstance(spec, tuple):
        f, threshold, left, right = spec
        spec = left if row[f] <= threshold else right
    return spec


def _assert_same_tree(tree, node, spec):
    if not isinstance(spec, tuple):
        assert tree.feature[node] == -1 and tree.value[node] == spec
        return
    f, threshold, left, right = spec
    assert (tree.feature[node], tree.threshold[node]) == (f, threshold)
    _assert_same_tree(tree, tree.left[node], left)
    _assert_same_tree(tree, tree.right[node], right)


ORACLE_KINDS = ("binary", "multi", "mixed")


def _oracle_inputs(kind: str, rng) -> np.ndarray:
    n, d = int(rng.integers(10, 36)), int(rng.integers(1, 5))
    binary = rng.integers(0, 2, size=(n, d)).astype(float)
    multi = rng.integers(0, 5, size=(n, d)) * 0.7
    if kind == "binary":
        return binary
    if kind == "multi":
        return multi
    mixed = np.round(rng.random((n, d)), 1)
    mixed[:, 0] = binary[:, 0]
    if d > 1:
        mixed[:, 1] = multi[:, 1]
    return mixed


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
def test_forest_matches_brute_force_cart(kind, min_leaf):
    # small-integer targets make every SSE exact, so ties are real ties
    rng = _rng(100 + 10 * min_leaf + ORACLE_KINDS.index(kind))
    for max_depth in range(1, 7):
        for _ in range(3):
            X = _oracle_inputs(kind, rng)
            y = rng.integers(-3, 4, size=len(X)).astype(float)
            params = ForestParams(
                n_trees=4,
                max_depth=max_depth,
                min_samples_leaf=min_leaf,
                bootstrap_seed=int(rng.integers(1 << 30)),
            )
            model = fit_forest(X, y, params)
            for tree, rows in zip(model.trees, _bootstrap_rows(params, len(X))):
                spec = _oracle_tree(X, y, list(rows), 0, max_depth, min_leaf)
                _assert_same_tree(tree, 0, spec)
                assert tree.predict(X).tolist() == [_oracle_predict(spec, row) for row in X]
            _assert_leaves_hold(model, X, min_leaf)


def _integer_target_problems():
    """About 40 problems with small-integer targets, so every sum the
    engine forms is exact and the trees do not depend on summation order:
    n 20-600 on binary, real, mixed and heavily tied designs, with
    min_samples_leaf 1-5, feature subsets of 1/3, sqrt and all columns, and
    depths up to 12."""
    rng = _rng(34)
    kinds = ("binary", "real", "mixed", "tied")
    Xs, ys, params = [], [], []
    for j in range(40):
        kind = kinds[j % 4]
        n, d = int(rng.integers(20, 601)), int(rng.integers(1, 13))
        if kind == "binary":
            X = rng.integers(0, 2, size=(n, d)).astype(float)
        elif kind == "real":
            X = rng.random((n, d))
        elif kind == "mixed":
            X = rng.random((n, d))
            X[:, ::2] = rng.integers(0, 2, size=(n, (d + 1) // 2))
        else:
            # three values per column, and affine copies of columns
            base = rng.integers(0, 3, size=(n, d)) * 0.5
            X = np.where(np.arange(d) % 3 == 2, 2.0 * np.roll(base, 1, axis=1) - 1.0, base)
        Xs.append(X)
        ys.append(rng.integers(-4, 5, size=n).astype(float))
        params.append(
            ForestParams(
                n_trees=int(rng.integers(2, 7)),
                max_depth=(1, 3, 6, 9, 12)[j % 5],
                min_samples_leaf=1 + (j // 5) % 5,
                feature_subsample=(1 / 3, np.sqrt(d) / d, 1.0)[j % 3],
                bootstrap_seed=1000 + j,
            )
        )
    return Xs, ys, params


def _node_table_digest(forests) -> str:
    digest = hashlib.sha256()
    for f in forests:
        for name in FOREST_TABLE:
            array = getattr(f, name)
            digest.update(np.ascontiguousarray(array, dtype="<f8" if array.dtype.kind == "f" else "<i8"))
    return digest.hexdigest()


# node tables of `_integer_target_problems`: the same whether a tree grows a
# row drawn twice as two cells or as one cell of weight 2
INTEGER_TARGET_TABLES_SHA = "f68207d86ce7b45a214db68bdd5f231e3e9bd437e7b2d67e133dff78a0810c81"


def test_integer_target_trees_are_pinned():
    """On small-integer targets every sum is exact, so the engine's trees do
    not depend on how it orders or groups its sums: the node tables of about
    40 problems, larger than the brute-force oracle reaches, equal a pinned
    digest, fitted in one call and one by one."""
    Xs, ys, params = _integer_target_problems()
    batched = fit_forests(Xs, ys, params)
    assert max(max(map(_depth, f.trees)) for f in batched) == 12
    assert _node_table_digest(batched) == INTEGER_TARGET_TABLES_SHA
    alone = [fit_forest(X, y, p) for X, y, p in zip(Xs, ys, params)]
    assert _node_table_digest(alone) == INTEGER_TARGET_TABLES_SHA


def _assert_top_levels_equal(shallow, deep, a, b, depth, levels):
    """Nodes of `shallow` down to depth `levels` equal those of `deep`."""
    assert shallow.value[a] == deep.value[b]
    if shallow.feature[a] < 0:
        assert depth == levels or deep.feature[b] < 0
        return
    assert (shallow.feature[a], shallow.threshold[a]) == (deep.feature[b], deep.threshold[b])
    for child in ("left", "right"):
        next_a, next_b = getattr(shallow, child)[a], getattr(deep, child)[b]
        _assert_top_levels_equal(shallow, deep, next_a, next_b, depth + 1, levels)


def test_forest_feature_subsets_do_not_depend_on_other_subtrees():
    rng = _rng(15)
    X, y = rng.random((80, 9)), rng.normal(size=80)
    for k in (1, 2, 3, 4):
        grown = [
            fit_forest(X, y, ForestParams(6, depth, feature_subsample=1 / 3, bootstrap_seed=7))
            for depth in (k, k + 2)
        ]
        for shallow, deep in zip(grown[0].trees, grown[1].trees):
            _assert_top_levels_equal(shallow, deep, 0, 0, 0, k)


FOREST_TABLE = ("offsets", "feature", "threshold", "left", "right", "value")


def _batch_problems(rng, n, widths):
    """Real-valued targets on binary or integer-valued designs; affine copies
    of a column give the same partitions, so exact ties are common and only
    the order of summation decides them."""
    Xs, ys = [], []
    for j, d in enumerate(widths):
        if j % 3 == 0:
            X = rng.integers(0, 2, size=(n, d)).astype(float)
        else:
            base = rng.integers(0, 4, size=(n, d)).astype(float)
            X = np.where(np.arange(d) % 2 == 0, base, 2.0 * np.roll(base, 1, axis=1) + 1.0)
        Xs.append(X)
        ys.append(rng.normal(size=n))
    return Xs, ys


def _same_forest(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in FOREST_TABLE)


def test_tree_grouping_does_not_change_trees(monkeypatch):
    """A tree depends only on its own rows: how `fit_forests` cuts trees
    into blocks and passes, and which problems share a pass, changes no
    forest. Real-valued designs and targets give many near-tied splits,
    which a prefix sum running on across trees decides by its rounding;
    with one sum per (problem, tree block), 47 of the 150 forests below
    changed with one-tree blocks."""
    rng = _rng(0)
    n, d = 40, 9
    Xs, ys, params = [], [], []
    for i in range(150):
        Xs.append(rng.random((n, d)))
        ys.append(rng.normal(size=n))
        params.append(ForestParams(12, 8, 1, 1.0, bootstrap_seed=i))
    # unrelated problems of the same row count: binary, integer-valued and
    # real-valued designs, some with feature subsets
    rng = _rng(16)
    other_Xs, other_ys = _batch_problems(rng, n, (9, 9, 5, 12, 9, 3))
    other_Xs += [rng.random((n, w)) for w in (5, 9, 12)]
    other_ys += [rng.normal(size=n) for _ in range(3)]
    for j in range(len(other_Xs)):
        params.append(ForestParams(7, 6, 1 + j % 2, (0.6, 1.0, 1 / 3)[j % 3], 200 + j))
    problems = list(zip(Xs + other_Xs, ys + other_ys, params))

    def fit(ids):
        return dict(zip(ids, fit_forests(*zip(*(problems[k] for k in ids)))))

    want = fit(range(150)) | fit(range(150, len(problems)))
    # the others sit between the 150 in one call, so they share passes
    mixed = [k for i in range(150) for k in ([i] if i % 17 else [150 + i // 17, i])]
    groupings = {
        "default": {},
        "one-tree blocks": {"_BLOCK_CELLS": n * d},
        # 4-tree blocks in 8-tree passes: every other pass holds two problems
        "small passes": {
            "_BLOCK_CELLS": 4 * n * d,
            "_BATCH_CELLS": 8 * n * d * forest._REAL_CELL_COST,
        },
    }
    differing = {}
    for name, settings in groupings.items():
        with monkeypatch.context() as patch:
            for setting, value in settings.items():
                patch.setattr(forest, setting, value)
            got = fit(mixed)
        differing[name] = sum(not _same_forest(got[k], want[k]) for k in range(len(problems)))
    assert differing == {name: 0 for name in groupings}


@pytest.mark.parametrize("blocks", [False, True])
def test_fit_forests_equals_separate_fits(monkeypatch, blocks):
    """Each batched forest is bit-identical to its separate fit: every
    tree's prefix sums cover only its own cells."""
    rng = _rng(18)
    n, widths = 40, (3, 9, 6, 1, 12, 5, 8, 4)
    params = [
        ForestParams(9, 8, 1, (1.0, 1 / 3, 0.5, 0.7)[j % 4], bootstrap_seed=100 + j)
        for j in range(len(widths))
    ]
    if blocks:
        monkeypatch.setattr(forest, "_BLOCK_CELLS", 4 * n * 6)  # blocks of 2-8 trees at widths 3-12
        monkeypatch.setattr(forest, "_BATCH_CELLS", 9 * n * 12)  # several passes per path
    for _ in range(4):
        Xs, ys = _batch_problems(rng, n, widths)
        batched = fit_forests(Xs, ys, params)
        assert len(batched) == len(Xs)
        for X, y, p, got in zip(Xs, ys, params, batched):
            alone = fit_forest(X, y, p)
            assert got.n_features == X.shape[1] and got.params == p
            for name in FOREST_TABLE:
                assert np.array_equal(getattr(got, name), getattr(alone, name)), name
            assert np.array_equal(got.predict(X), alone.predict(X))


def test_fit_forests_mixes_problem_shapes(monkeypatch):
    """One call holds problems of any row count, n_trees, max_depth,
    min_samples_leaf and split path; each forest equals its separate fit,
    whether a shape's problems share a pass or not."""
    rng = _rng(19)
    X, y = rng.random((20, 3)), rng.normal(size=20)
    assert fit_forests([], [], []) == []
    with pytest.raises(ValueError):
        fit_forests([X], [y, y], [ForestParams(3, 2)])
    shapes = [(n, t, d, m) for n in (15, 16, 41) for t in (3, 7) for d in (2, 6) for m in (1, 3)]
    Xs, ys, params = [], [], []
    for j, (n, n_trees, depth, leaf) in enumerate(shapes):
        # binary, integer-valued and mixed designs, so both split paths run
        X = rng.integers(0, 2 if j % 3 == 0 else 4, size=(n, 1 + j % 7)).astype(float)
        if j % 3 == 2:
            X[:, 0] = X[:, 0] > 1
        Xs.append(X)
        ys.append(rng.normal(size=n))
        params.append(ForestParams(n_trees, depth, leaf, (1.0, 0.5)[j % 2], bootstrap_seed=j))
    alone = [fit_forest(X, y, p) for X, y, p in zip(Xs, ys, params)]
    for batch_cells in (forest._BATCH_CELLS, 3 * 41 * 7):
        monkeypatch.setattr(forest, "_BATCH_CELLS", batch_cells)
        for got, want, X, p in zip(fit_forests(Xs, ys, params), alone, Xs, params):
            assert got.n_features == X.shape[1] and got.params == p
            for name in FOREST_TABLE:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_fit_forests_mixes_0_column_problems_with_both_split_paths(monkeypatch):
    """A 0-column problem in one call with binary and real-valued ones, of
    the same and other row counts, returns exactly its separate fit: each
    tree is its root alone, holding sum(w * y) / sum(w) over the tree's
    draws, w each row's draw count."""
    rng = _rng(25)
    Xs, ys, params = [], [], []
    for j, (n, width) in enumerate([(30, 0), (30, 4), (30, 3), (30, 0), (17, 0), (17, 2)]):
        X = rng.integers(0, 2, (n, width)).astype(float) if j % 2 else rng.random((n, width))
        Xs.append(X)
        ys.append(rng.normal(size=n) if j % 3 else rng.integers(-3, 4, n).astype(float))
        params.append(ForestParams(3 + j, 4, 1 + j % 2, (1.0, 0.5)[j % 2], bootstrap_seed=40 + j))
    empty = [j for j, X in enumerate(Xs) if X.shape[1] == 0]
    assert len(empty) == 3 and {forest._all_0_1(X) for X in Xs} == {True, False}
    alone = [fit_forest(X, y, p) for X, y, p in zip(Xs, ys, params)]
    for batch_cells in (forest._BATCH_CELLS, 2 * 30 * 4):
        monkeypatch.setattr(forest, "_BATCH_CELLS", batch_cells)
        batched = fit_forests(Xs, ys, params)
        for got, want in zip(batched, alone):
            _assert_equal_forests(got, want)
    for j in empty:
        got, y, p = batched[j], ys[j], params[j]
        assert got.n_features == 0
        assert np.array_equal(got.offsets, np.arange(p.n_trees + 1))
        assert (got.feature == -1).all() and (got.left == -1).all() and (got.right == -1).all()
        w = np.array([np.bincount(rows, minlength=len(y)) for rows in _bootstrap_rows(p, len(y))])
        assert got.value == pytest.approx((w * y).sum(axis=1) / w.sum(axis=1), rel=1e-12, abs=1e-12)


def _assert_equal_forests(got, want):
    for name in FOREST_TABLE:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _depth(tree, node=0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def test_fit_forests_mixes_depths_and_leaf_sizes_in_one_pass(monkeypatch):
    """Problems that share the row count grow in one pass per split path,
    whatever their max_depth and min_samples_leaf; each tree stops at its
    own depth limit and keeps its own leaf minimum, so every forest equals
    its separate fit."""
    rng = _rng(21)
    n, widths = 30, [3 + j % 7 for j in range(27)]
    Xs, ys = _batch_problems(rng, n, widths)
    shapes = [(depth, leaf) for depth in (2, 5, 8) for leaf in (1, 2, 5)]
    # _batch_problems makes every third design all-0/1 and the others integer-valued
    binary = [j for j in range(len(widths)) if j % 3 == 0]
    real = [j for j in range(len(widths)) if j % 3][: len(shapes)]
    picked, params = [], []
    for path in (binary, real):
        for k, ((depth, leaf), j) in enumerate(zip(shapes, path)):
            picked.append(j)
            params.append(ForestParams(4, depth, leaf, (1.0, 0.5)[k % 2], bootstrap_seed=j))
    Xs, ys = [Xs[j] for j in picked], [ys[j] for j in picked]
    alone = [fit_forest(X, y, p) for X, y, p in zip(Xs, ys, params)]
    passes = []
    grow = forest._grow

    def counted(problems, segments, binary):
        passes.append(binary)
        return grow(problems, segments, binary)

    monkeypatch.setattr(forest, "_grow", counted)
    batched = fit_forests(Xs, ys, params)
    assert sorted(passes) == [False, True]
    for got, want in zip(batched, alone):
        _assert_equal_forests(got, want)
    # on each path, the deepest trees outgrow the others' depth limits
    for lo in (0, len(shapes)):
        deepest = [max(map(_depth, f.trees)) for f in batched[lo : lo + len(shapes)]]
        assert max(deepest[:3]) == 2 and max(deepest[3:6]) == 5 and max(deepest[6:]) > 5


def test_problems_sharing_a_seed_draw_bootstrap_rows_once(monkeypatch):
    """Problems with the same bootstrap seed, row count and n_trees share one
    draw of bootstrap rows, whatever their inputs; a problem with the same
    seed but other n_trees draws its own. Every forest equals its separate
    fit."""
    rng = _rng(22)
    n = 30
    Xs = [rng.random((n, 3)), rng.integers(0, 2, (n, 5)).astype(float), rng.random((n, 1))]
    y = rng.normal(size=n)
    shapes = ((3, 1, 0.5), (5, 2, 1.0), (2, 1, 1.0))
    same = [ForestParams(4, d, m, f, bootstrap_seed=5) for d, m, f in shapes]
    other = ForestParams(6, 3, 1, 0.5, bootstrap_seed=5)
    draws = []
    rng_for_ = forest.rng_for

    def counted(seed, *labels):
        if labels == ("bootstrap",):
            draws.append(seed)
        return rng_for_(seed, *labels)

    monkeypatch.setattr(forest, "rng_for", counted)
    cases = [(list(zip(Xs, same)), 1), ([(Xs[0], same[0]), (Xs[0], other)], 2)]
    for problems, n_draws in cases:
        draws.clear()
        inputs, params = zip(*problems)
        batched = fit_forests(inputs, [y] * len(problems), params)
        assert draws == [5] * n_draws
        for got, (X, p) in zip(batched, problems):
            _assert_equal_forests(got, fit_forest(X, y, p))


def _reference_forest_predict(model, X, weights=None) -> np.ndarray:
    """A forest's prediction as the one-forest walk made it: each row's leaf
    in every tree, found one row at a time, averaged over the (rows, trees)
    leaf values row by row, or weighted by the (rows, trees) `weights`."""
    X = np.asarray(X, dtype=float)
    leaves = np.column_stack(
        [_leaf_of(tree, X) + lo for tree, lo in zip(model.trees, model.offsets[:-1].tolist())]
    )
    if weights is None:
        return model.value[leaves].sum(axis=1) / len(model.trees)
    return (model.value[leaves] * weights).sum(axis=1) / np.sum(weights, axis=1)


def test_predict_forests_equals_one_forest_walks(monkeypatch):
    """One batched walk over forests of mixed tree counts, depths, widths and
    row counts, each on its own rows, equals each forest's own walk bit for
    bit, also when the walk is cut into pieces. An unweighted forest on
    all-0/1 rows of at most 64 columns (a 0-column X among them) walks each
    distinct row once; wider 0/1 rows walk every row, and weighted forests,
    the 0-column one under an out-of-bag mask among them, every entry of
    nonzero weight."""
    rng = _rng(20)
    forests, Xs = [], []
    shapes = [(1, 1, 1), (7, 9, 5), (3, 2, 12), (12, 6, 3), (2, 14, 8), (4, 3, 0), (5, 8, 70)]
    for j, (n_trees, depth, width) in enumerate(shapes):
        X = rng.random((60, width)) if j % 2 else rng.integers(0, 2, (60, width)).astype(float)
        y = rng.normal(size=60)
        forests.append(fit_forest(X, y, ForestParams(n_trees, depth, bootstrap_seed=j)))
        Xs.append(rng.random((5 + 7 * j, width)))
    Xs[0] = np.zeros((0, 1))  # a forest with no rows to predict
    # many repeated 0/1 rows: at most 2^5 and 2^3 distinct rows
    Xs[1] = rng.integers(0, 2, (300, 5)).astype(float)
    Xs[3] = rng.integers(0, 2, (90, 3)).astype(float)
    # 0/1 rows wider than the packed key, each repeated
    Xs[6] = rng.integers(0, 2, (12, 70)).astype(float)[rng.integers(0, 12, 50)]
    # the same forests again, weighted; weight 0 entries are not walked
    weights = [None] * len(forests)
    for j in (1, 3, 4):
        forests.append(forests[j])
        Xs.append(Xs[j])
        w = rng.integers(0, 3, (len(Xs[j]), shapes[j][0])).astype(float)
        w[:, 0] += 1  # every row needs a weight
        weights.append(w)
    # the 0-column forest under its out-of-bag mask: its training rows that
    # some tree left out, each weighting only those trees
    in_bag = np.zeros((shapes[5][0], 60), dtype=bool)
    in_bag[np.arange(shapes[5][0])[:, None], forest.bootstrap_rows(5, 60, shapes[5][0])] = True
    covered = ~in_bag.all(axis=0)
    assert 0 < covered.sum() < 60 and (~in_bag[:, covered]).sum() < covered.sum() * shapes[5][0]
    forests.append(forests[5])
    Xs.append(np.zeros((covered.sum(), 0)))
    weights.append((~in_bag[:, covered].T).astype(float))
    want = [_reference_forest_predict(f, X, w) for f, X, w in zip(forests, Xs, weights)]
    distinct = [len(np.unique(X, axis=0)) if X.shape[1] <= 64 else len(X) for X in Xs]
    want_walked = sum(
        distinct[k] * len(f.trees) if w is None else np.count_nonzero(w)
        for k, (f, w) in enumerate(zip(forests, weights))
    )
    assert distinct[1] <= 32 and distinct[3] <= 8 and distinct[5] == 1
    assert forest.predict_forests([], []) == []
    with pytest.raises(ValueError):
        forest.predict_forests(forests[:2], [Xs[1], Xs[1]])
    leaves = forest._leaves
    walked = []

    def counted(X, base, *args):
        walked.append(len(base))
        return leaves(X, base, *args)

    monkeypatch.setattr(forest, "_leaves", counted)
    for walk_entries in (forest._WALK_ENTRIES, 40):
        monkeypatch.setattr(forest, "_WALK_ENTRIES", walk_entries)
        walked.clear()
        got = forest.predict_forests(forests, Xs, weights)
        assert sum(walked) == want_walked
        assert len(got) == len(want)
        for g, w, f, X, weight in zip(got, want, forests, Xs, weights):
            assert np.array_equal(g, w)
            if weight is None:
                assert np.array_equal(f.predict(X), w)
            else:
                assert np.array_equal(forest.predict_forests([f], [X], [weight])[0], w)


def test_bootstrap_rows_are_prefix_stable_and_seeded_by_rows_seed():
    """Tree t's rows are the same for every tree count above t, and a forest
    draws them from its `rows_seed` when set, else from its bootstrap seed:
    each tree's root holds the mean target of its drawn rows."""
    assert np.array_equal(forest.bootstrap_rows(9, 40, 6), forest.bootstrap_rows(9, 40, 12)[:6])
    rng = _rng(23)
    X, y = rng.random((40, 3)), rng.normal(size=40)
    for params, seed in ((ForestParams(5, 3, bootstrap_seed=1), 1),
                         (ForestParams(5, 3, bootstrap_seed=1, rows_seed=9), 9)):
        model = fit_forest(X, y, params)
        rows = forest.bootstrap_rows(seed, 40, 5)
        roots = model.value[model.offsets[:-1]]
        assert roots == pytest.approx([y[r].mean() for r in rows], rel=1e-12, abs=1e-12)


def test_oob_prediction_averages_the_trees_that_left_a_row_out(monkeypatch):
    """With an out-of-bag mask as tree weights, a forest's prediction of row
    r is the mean of its trees' predictions (`FittedForest.trees`) over
    exactly the trees whose drawn rows omit r; all-ones weights give the
    plain mean, an unweighted forest in the same walk predicts as alone,
    and cutting the walk changes nothing."""
    rng = _rng(24)
    n, n_trees = 50, 4
    X, y = rng.random((n, 4)), rng.normal(size=n)
    model = fit_forest(X, y, ForestParams(n_trees, 5, bootstrap_seed=3, rows_seed=11))
    in_bag = np.zeros((n_trees, n), dtype=bool)
    in_bag[np.arange(n_trees)[:, None], forest.bootstrap_rows(11, n, n_trees)] = True
    covered = ~in_bag.all(axis=0)
    assert 0 < covered.sum() < n
    oob = ~in_bag[:, covered].T
    per_tree = np.column_stack([tree.predict(X[covered]) for tree in model.trees])
    want = np.array([row[mask].mean() for row, mask in zip(per_tree, oob)])
    for walk_entries in (forest._WALK_ENTRIES, 30):
        monkeypatch.setattr(forest, "_WALK_ENTRIES", walk_entries)
        [got, ones, plain] = forest.predict_forests(
            [model] * 3, [X[covered], X, X], [oob, np.ones((n, n_trees)), None]
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert ones == pytest.approx(model.predict(X), rel=1e-12, abs=1e-12)
        assert np.array_equal(plain, model.predict(X))
    with pytest.raises(ValueError, match="weights"):
        forest.predict_forests([model], [X], [oob])


def test_forest_trees_are_views_of_one_node_table():
    rng = _rng(17)
    X, y = rng.random((30, 3)), rng.normal(size=30)
    model = fit_forest(X, y, ForestParams(n_trees=5, max_depth=4, bootstrap_seed=1))
    assert len(model.trees) == 5
    assert sum(len(t.feature) for t in model.trees) == len(model.feature)
    for tree in model.trees:
        assert np.shares_memory(tree.value, model.value)
    mean = np.mean([tree.predict(X) for tree in model.trees], axis=0)
    assert np.allclose(model.predict(X), mean, rtol=0, atol=1e-12)


def test_more_trees_do_not_hurt_training_mse():
    # statistical property over 50 seeds
    rng = _rng(5)
    deltas = []
    for seed in range(50):
        X = rng.integers(0, 2, size=(60, 4)).astype(float)
        y = X @ np.array([1.0, 0.5, 0.25, 0.1]) + rng.normal(size=60) * 0.1
        single = fit_forest(X, y, ForestParams(n_trees=1, max_depth=4, bootstrap_seed=seed))
        many = fit_forest(X, y, ForestParams(n_trees=64, max_depth=4, bootstrap_seed=seed))
        deltas.append(mse(y, single.predict(X)) - mse(y, many.predict(X)))
    assert np.mean(deltas) > -1e-6


def test_forest_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_forest(np.empty((0, 3)), np.empty(0), ForestParams(n_trees=1, max_depth=2))
    with pytest.raises(ValueError):
        ForestParams(n_trees=0, max_depth=2)
    with pytest.raises(ValueError):
        ForestParams(n_trees=1, max_depth=2, feature_subsample=0.0)


# ------------------------------------------------------------------ lasso


def test_soft_threshold_closed_form():
    n = 2000
    rng = _rng(7)
    x = rng.normal(size=n)
    x = (x - x.mean()) / x.std()
    model = fit_l1(x.reshape(-1, 1), x.copy(), L1Params(alpha=0.3, scale=False, tol=1e-12))
    assert model.coefs[0] == pytest.approx(reference_soft_threshold(1.0, 0.3), abs=1e-6)


def test_unregularized_recovers_exact_linear():
    rng = _rng(8)
    x = rng.normal(size=500)
    model = fit_l1(x.reshape(-1, 1), 2.0 * x, L1Params(alpha=1e-12, scale=False, tol=1e-12))
    assert model.coefs[0] == pytest.approx(2.0, abs=1e-6)
    assert model.intercept == pytest.approx(0.0, abs=1e-6)


def test_full_shrinkage_leaves_intercept_mean():
    rng = _rng(9)
    x = rng.normal(size=300)
    y = 2.0 * x + 5.0
    model = fit_l1(x.reshape(-1, 1), y, L1Params(alpha=1e3, scale=False))
    assert np.all(model.coefs == 0.0)
    assert model.intercept == pytest.approx(y.mean(), abs=1e-9)


def test_lasso_objective_monotone_per_sweep():
    rng = _rng(10)
    X = rng.normal(size=(200, 8))
    y = X @ rng.random(8) + rng.normal(size=200) * 0.3
    model = fit_l1(X, y, L1Params(alpha=0.05, scale=False, tol=1e-10))
    hist = np.array(model.objective_history)
    assert np.all(np.diff(hist) <= 1e-10)


def test_l1_path_norm_monotone_in_alpha():
    rng = _rng(11)
    X = rng.normal(size=(150, 6))
    y = X @ np.array([2.0, -1.0, 0.5, 0.0, 0.0, 0.25]) + rng.normal(size=150) * 0.2
    norms = []
    for alpha in np.logspace(-4, 1, 30):
        model = fit_l1(X, y, L1Params(alpha=float(alpha), scale=False, tol=1e-9))
        norms.append(np.abs(model.coefs).sum())
    assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))


def test_nonconvergence_flagged_not_fatal():
    rng = _rng(12)
    X = rng.normal(size=(100, 5))
    y = rng.normal(size=100)
    model = fit_l1(X, y, L1Params(alpha=1e-9, max_iter=1, tol=1e-14, scale=False))
    assert model.converged is False
    assert np.isfinite(model.predict(X)).all()


def test_lasso_scaled_pipeline_predicts():
    rng = _rng(13)
    X = rng.uniform(1.0, 9.0, size=(120, 2))
    y = 3.0 * X[:, 0] + rng.normal(size=120) * 0.05
    model = fit_l1(X, y, L1Params(alpha=1e-4, degree=2))
    assert mse(y, model.predict(X)) < 0.2 * y.var()
    names = model.expansion.term_names()
    assert "x0" in names and "x0*x1" in names and "x0^2" in names


def test_polynomial_expansion_binary_dedup():
    X = np.array([[0.0, 1.5], [1.0, 2.0], [0.0, 3.0], [1.0, 4.0]])
    exp = PolynomialExpansion(degree=3).fit(X, ["b", "r"])
    names = exp.term_names()
    assert "b" in names and "b^2" not in names and "b^3" not in names
    assert "r^2" in names and "r^3" in names
    assert "b*r" in names and "b*r^2" in names
    Z = exp.transform(X)
    assert Z.shape == (4, len(names))


# Reference: residual-form coordinate descent with conftest's scalar soft
# threshold, the oracle for the Gram-form solver. `_reference_fit_l1` runs on the
# centred design, as the solver does; `_reference_fit_l1_uncentred` is the
# loop the solver first replaced, which drags the intercept along and so
# converges far more slowly on collinear columns, to the same optimum.
def _reference_lasso_objective(X, y, coefs, intercept, alpha):
    r = y - X @ coefs - intercept
    n = len(y)
    return float(r @ r / (2.0 * n) + alpha * np.abs(coefs).sum())


def _reference_design(X, params):
    X = np.asarray(X, dtype=float)
    expansion = PolynomialExpansion(degree=params.degree).fit(X)
    Z = expansion.transform(X)
    if params.scale:
        mn = Z.min(axis=0)
        rng = Z.max(axis=0) - mn
        rng[rng == 0.0] = 1.0
    else:
        mn = np.zeros(Z.shape[1])
        rng = np.ones(Z.shape[1])
    return (Z - mn) / rng


def _reference_fit_l1(X, y, params):
    """Coordinate descent on the centred columns Zc = Z - zbar, with the
    intercept profiled out: the residual is y - ybar - Zc b, and each sweep
    ends with one shift of the intercept to ybar - zbar.b. A constant column
    is dead and stays at 0."""
    y = np.asarray(y, dtype=float)
    Z = _reference_design(X, params)
    n, d = Z.shape
    zbar = Z.mean(axis=0)
    Zc = Z - zbar
    col_norm = (Zc * Zc).sum(axis=0) / n
    dead = (Z == Z[0]).all(axis=0) | (col_norm == 0.0)
    coefs = np.zeros(d)
    ybar = float(y.mean())
    intercept = ybar
    residual = y - ybar
    history = [_reference_lasso_objective(Z, y, coefs, intercept, params.alpha)]
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if dead[j]:
                continue
            rho = Zc[:, j] @ residual / n + col_norm[j] * coefs[j]
            new = reference_soft_threshold(rho, params.alpha) / col_norm[j]
            delta = new - coefs[j]
            if delta != 0.0:
                residual -= Zc[:, j] * delta
                coefs[j] = new
                max_delta = max(max_delta, abs(delta))
        shift = ybar - intercept - float(zbar @ coefs)  # a dead column's coefficient is 0
        if shift != 0.0:
            intercept += shift
            max_delta = max(max_delta, abs(shift))
        history.append(_reference_lasso_objective(Z, y, coefs, intercept, params.alpha))
        if max_delta < params.tol:
            converged = True
            break
    return coefs, intercept, sweeps, converged, history


def _reference_fit_l1_uncentred(X, y, params):
    y = np.asarray(y, dtype=float)
    Z = _reference_design(X, params)
    n, d = Z.shape
    col_norm = (Z * Z).sum(axis=0) / n
    coefs = np.zeros(d)
    intercept = float(y.mean())
    residual = y - intercept
    history = [_reference_lasso_objective(Z, y, coefs, intercept, params.alpha)]
    converged = False
    sweeps = 0
    for sweeps in range(1, params.max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if col_norm[j] == 0.0:
                continue
            rho = Z[:, j] @ residual / n + col_norm[j] * coefs[j]
            new = reference_soft_threshold(rho, params.alpha) / col_norm[j]
            delta = new - coefs[j]
            if delta != 0.0:
                residual -= Z[:, j] * delta
                coefs[j] = new
                max_delta = max(max_delta, abs(delta))
        shift = float(residual.mean())
        if shift != 0.0:
            intercept += shift
            residual -= shift
            max_delta = max(max_delta, abs(shift))
        history.append(_reference_lasso_objective(Z, y, coefs, intercept, params.alpha))
        if max_delta < params.tol:
            converged = True
            break
    return coefs, intercept, sweeps, converged, history


# Gram-form and residual-form sums round differently; 1e-10 is ~10^6 ulps
# of the O(1) coefficients these problems have.
_ORACLE_ATOL = 1e-10


def _lasso_cases():
    rng = _rng(21)
    cases = []
    for k in range(4):
        X = rng.normal(size=(50 + 10 * k, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=len(X)) * 0.3
        for alpha in (1e-4, 0.01, 0.1, 0.5):
            cases.append((f"raw{k}-{alpha}", X, y, L1Params(alpha=alpha, scale=False, tol=1e-9)))
    for degree in (2, 3):
        X = rng.uniform(0.0, 3.0, size=(80, 3))
        y = X[:, 0] * X[:, 1] - X[:, 2] ** 2 + rng.normal(size=80) * 0.1
        for alpha in (1e-3, 0.05):
            cases.append((f"deg{degree}-{alpha}", X, y, L1Params(alpha=alpha, degree=degree)))
    X = rng.normal(size=(40, 4))
    X[:, 1] = 2.5  # constant: scaled to an all-zero column
    cases.append(("constant-col", X, X[:, 0] - X[:, 3], L1Params(alpha=0.01, tol=1e-10)))
    X = rng.normal(size=(40, 3))
    X[:, 2] = 0.0
    cases.append(("zero-col", X, X[:, 0] + 1.0, L1Params(alpha=0.01, scale=False)))
    X = rng.normal(size=(40, 3))
    X[:, 2] = 1e-170 * rng.normal(size=40)  # nonzero, but its squared norm underflows to 0
    cases.append(("tiny-col", X, X[:, 0] + 1.0, L1Params(alpha=0.0, scale=False)))
    X = rng.normal(loc=2.0, size=(50, 3))  # uncentred: the last sweeps move only the intercept
    y = X @ rng.normal(size=3) + rng.normal(size=50)
    cases.append(("offset", X, y, L1Params(alpha=0.01, scale=False, tol=1e-9)))
    X = rng.normal(size=(60, 6))
    X[:, 5] = X[:, 4] + 1e-3 * rng.normal(size=60)  # near-collinear: slow to converge
    y = X[:, 4] + rng.normal(size=60) * 0.1
    cases.append(("max-iter", X, y, L1Params(alpha=1e-6, max_iter=7, tol=1e-14, scale=False)))
    return cases


@pytest.mark.parametrize("case", _lasso_cases(), ids=lambda c: c[0])
def test_lasso_matches_residual_form_reference(case):
    _, X, y, params = case
    coefs, intercept, sweeps, converged, history = _reference_fit_l1(X, y, params)
    model = fit_l1(X, y, params)
    np.testing.assert_allclose(model.coefs, coefs, rtol=0, atol=_ORACLE_ATOL)
    assert model.intercept == pytest.approx(intercept, rel=0, abs=_ORACLE_ATOL)
    assert (model.n_sweeps, model.converged) == (sweeps, converged)
    np.testing.assert_allclose(model.objective_history, history, rtol=0, atol=_ORACLE_ATOL)
    if case[0] == "max-iter":
        assert (sweeps, converged) == (7, False)
    if case[0].endswith("-col"):
        assert model.coefs[1 if case[0] == "constant-col" else 2] == 0.0
        assert coefs[1 if case[0] == "constant-col" else 2] == 0.0


@pytest.mark.parametrize("case", _lasso_cases(), ids=lambda c: c[0])
def test_lasso_reaches_the_uncentred_optimum(case):
    """Centring changes the path, not the optimum: wherever both loops
    converge, they stop at the same objective, to 1e-12 of the objective at
    b = 0 (an exact fit's objective is ~0, so relative to the start)."""
    _, X, y, params = case
    *_, converged, history = _reference_fit_l1(X, y, params)
    *_, converged_uncentred, history_uncentred = _reference_fit_l1_uncentred(X, y, params)
    if converged and converged_uncentred:
        assert abs(history[-1] - history_uncentred[-1]) <= 1e-12 * history[0]


def test_lasso_constant_column_without_scaling_stays_zero():
    """n copies of 0.1 do not centre to exact zeros; the column is still
    dead, so even at alpha 0 it gets no coefficient."""
    rng = _rng(27)
    X = rng.normal(size=(40, 3))
    X[:, 1] = 0.1
    y = X[:, 0] - 2.0 * X[:, 2] + 0.5
    model = fit_l1(X, y, L1Params(alpha=0.0, scale=False))
    assert model.coefs[1] == 0.0
    predicted = model.predict(X)
    assert np.isfinite(predicted).all()
    np.testing.assert_allclose(predicted, y, rtol=0, atol=1e-6)


def test_lasso_converges_on_collinear_aspect_design():
    """A stage-1-like design: five aspects in [0, 1], two of them integer
    counts min-max scaled, expanded to degree 2. The scaled polynomial
    columns are strongly collinear; the fit converges within the default
    `max_iter` at an objective no higher than the uncentred loop reaches
    in 100,000 sweeps."""
    rng = _rng(28)
    n = 80
    X = rng.uniform(size=(n, 5))
    X[:, 0] = rng.integers(5, 41, size=n)
    X[:, 1] = rng.integers(2, 17, size=n)
    X[:, :2] = (X[:, :2] - X[:, :2].min(axis=0)) / np.ptp(X[:, :2], axis=0)
    y = 0.5 * X[:, 0] + 0.3 * X[:, 0] * X[:, 1] - 0.2 * X[:, 2] ** 2 + rng.normal(size=n) * 0.05
    params = L1Params(alpha=1e-4, degree=2)
    model = fit_l1(X, y, params)
    assert model.converged and model.n_sweeps < params.max_iter
    coefs, intercept, _, converged, _ = _reference_fit_l1_uncentred(
        X, y, L1Params(alpha=1e-4, degree=2, max_iter=100_000)
    )
    Z = _reference_design(X, params)
    got = _reference_lasso_objective(Z, y, model.coefs, model.intercept, params.alpha)
    assert got <= _reference_lasso_objective(Z, y, coefs, intercept, params.alpha)


def test_lasso_batch_equals_one_problem_at_a_time():
    rng = _rng(22)
    designs = []
    for _ in range(3):
        Z = rng.uniform(size=(45, 12))
        designs.append((Z, Z @ rng.normal(size=12) + rng.normal(size=45) * 0.2))
    gram = lasso._Gram.of(designs)
    which = np.repeat(np.arange(3), 5)
    alpha = np.tile(np.logspace(-4, 0, 5), 3)
    together = lasso._solve(gram, which, alpha, max_iter=1000, tol=1e-9)
    # problems stop at different sweeps, so the batch shrinks several times
    assert len(set(together.n_sweeps.tolist())) > 3
    for k in range(len(which)):
        alone = lasso._solve(lasso._Gram.of([designs[which[k]]]), np.zeros(1, dtype=int),
                             alpha[k : k + 1], max_iter=1000, tol=1e-9)
        assert np.array_equal(alone.coefs[0], together.coefs[k])
        assert alone.intercept[0] == together.intercept[k]
        assert alone.n_sweeps[0] == together.n_sweeps[k]
        assert alone.converged[0] == together.converged[k]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cross_validate_l1_matches_cross_validate_of_fit_l1(degree):
    rng = _rng(23)
    X = rng.uniform(size=(57, 3))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(size=57) * 0.05
    alphas = [1e-4, 3e-3, 0.05, 1.0]
    spec = CVSpec(folds=4, shuffle_seed=5)
    got = cross_validate_l1(X, y, degree, alphas, spec)
    for alpha, loss in zip(alphas, got):
        params = L1Params(alpha=alpha, degree=degree)
        expected = cross_validate(
            lambda Xt, yt, fold: fit_l1(Xt, yt, params), X, y, fold_indices(len(y), spec)
        )
        assert loss == pytest.approx(expected, rel=0, abs=1e-12)


def test_cross_validate_l1_alpha_runs_do_not_change_losses(monkeypatch):
    rng = _rng(24)
    X = rng.uniform(size=(40, 3))
    y = X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + rng.normal(size=40) * 0.1
    alphas = np.logspace(-4, 0, 7)
    spec = CVSpec(folds=3, shuffle_seed=1)
    whole = cross_validate_l1(X, y, 2, alphas, spec)
    monkeypatch.setattr(lasso, "_SOLVE_CELLS", 1)  # one alpha per solver call
    assert np.array_equal(cross_validate_l1(X, y, 2, alphas, spec), whole)


def test_cross_validate_l1_many_equals_one_call_per_task():
    """Tasks solved together get the losses each gets alone, bit for bit,
    also when their designs have different widths (a binary column's
    square is dropped) and their fold counts differ."""
    rng = _rng(25)
    tasks = []
    for n, folds, binary in ((40, 3, False), (33, 5, True), (52, 4, False)):
        X = rng.uniform(size=(n, 3))
        if binary:
            X[:, 1] = rng.integers(0, 2, size=n)
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=n) * 0.1
        tasks.append((X, y, CVSpec(folds=folds, shuffle_seed=n)))
    alphas = np.logspace(-4, 0, 6)
    for degree in (1, 2, 3):
        together = cross_validate_l1_many(
            [(X, y, fold_indices(len(y), spec)) for X, y, spec in tasks], degree, alphas
        )
        for (X, y, spec), losses in zip(tasks, together):
            assert np.array_equal(losses, cross_validate_l1(X, y, degree, alphas, spec))


def test_cross_validate_l1_many_counts_how_each_tasks_problems_end():
    """`solves` counts each task's (fold, alpha) problems, those that stop
    at `max_iter`, and the most sweeps any took: the figures `fit_l1` gives
    on each fold's training rows."""
    rng = _rng(29)
    alphas = [1e-4, 1e-2, 1.0]
    tasks = []
    for n, folds in ((14, 3), (40, 4)):  # 14 rows at degree 3: fewer than columns
        X = rng.uniform(size=(n, 3))
        y = X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=n) * 0.1
        tasks.append((X, y, fold_indices(n, CVSpec(folds=folds, shuffle_seed=n))))
    result = cross_validate_l1_many(tasks, 3, alphas)
    assert len(result.solves) == len(tasks)
    for (X, y, folds), counts in zip(tasks, result.solves):
        fits = []
        for held_out in folds:
            train = np.setdiff1d(np.arange(len(y)), held_out)
            fits += [fit_l1(X[train], y[train], L1Params(alpha=a, degree=3)) for a in alphas]
        assert counts == lasso.SolveCounts(
            problems=len(folds) * len(alphas),
            unconverged=sum(not f.converged for f in fits),
            max_sweeps=max(f.n_sweeps for f in fits),
        )
    assert result.solves[0].unconverged > 0


def test_invalid_l1_params():
    with pytest.raises(ValueError):
        L1Params(alpha=-1.0)
    with pytest.raises(ValueError):
        L1Params(alpha=0.1, degree=5)
    with pytest.raises(ValueError):
        fit_l1(np.array([[np.inf]]), np.array([1.0]), L1Params(alpha=0.1))


# --------------------------------------------------------- cv and search


class _MeanModel:
    def __init__(self, X, y, fold):
        self.value = float(np.mean(y))

    def predict(self, X):
        return np.full(len(X), self.value)


def test_cross_validate_matches_manual_two_fold():
    X = np.arange(4, dtype=float).reshape(-1, 1)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    spec = CVSpec(folds=2, shuffle_seed=123)
    folds = fold_indices(4, spec)
    seen = []

    def fit_fn(X_train, y_train, fold):
        seen.append((fold, len(y_train)))
        return _MeanModel(X_train, y_train, fold)

    got = cross_validate(fit_fn, X, y, folds)
    expected = []
    for f, held in enumerate(folds):
        mask = np.ones(4, dtype=bool)
        mask[held] = False
        model = _MeanModel(X[mask], y[mask], f)
        expected.append(mse(y[held], model.predict(X[held])))
    assert got == pytest.approx(np.mean(expected), abs=1e-15)
    assert seen == [(0, 4 - len(folds[0])), (1, 4 - len(folds[1]))]


def test_cross_validate_zero_loss_cases():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.full(10, 7.0)
    assert cross_validate(_MeanModel, X, y, fold_indices(10, CVSpec(folds=5, shuffle_seed=1))) == 0.0

    class Perfect:
        def __init__(self, X, y, fold):
            pass

        def predict(self, X):
            return X[:, 0] * 2.0

    folds = fold_indices(10, CVSpec(folds=5, shuffle_seed=2))
    assert cross_validate(Perfect, X, X[:, 0] * 2.0, folds) == 0.0


def test_cross_validate_rejects_too_many_folds():
    with pytest.raises(ValueError):
        cross_validate(_MeanModel, np.zeros((3, 1)), np.zeros(3), fold_indices(3, CVSpec(folds=4)))


def test_search_exhausts_grid_when_budget_allows():
    space = {"a": [1, 2, 3], "b": [10, 20]}
    candidates = enumerate_candidates(space, SearchBudget(evaluations=10, seed=0))
    assert len(candidates) == 6
    assert candidates == [{"a": a, "b": b} for a in (1, 2, 3) for b in (10, 20)]
    assert candidates == enumerate_candidates(space, SearchBudget(evaluations=6, seed=5))


def test_search_budget_respected_and_deterministic():
    space = {"a": ("int", 0, 1000), "b": [1, 2, 3]}
    budget = SearchBudget(evaluations=7, seed=42)
    candidates = enumerate_candidates(space, budget)
    assert len(candidates) == 7
    assert all(0 <= c["a"] <= 1000 and c["b"] in (1, 2, 3) for c in candidates)
    assert enumerate_candidates(space, budget) == candidates
    assert enumerate_candidates(space, SearchBudget(evaluations=7, seed=43)) != candidates
    grid = {"a": [1, 2, 3], "b": [10, 20]}
    assert len(enumerate_candidates(grid, SearchBudget(evaluations=5, seed=0))) == 5


def test_fold_indices_partition():
    folds = fold_indices(17, CVSpec(folds=4, shuffle_seed=9))
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.arange(17))

"""Bagged CART regression forests, grown level-wise and in batches.

All bootstrap trees of one pass grow together, one depth level at a time: a
level is a fixed number of vectorised numpy calls, whatever the nodes'
sizes. `fit_forests` takes any list of regression problems and groups them
into passes by what a pass must share: the split path and the row count.
Problems that differ in ``n_trees``, ``max_depth``, ``min_samples_leaf``,
``feature_subsample``, width or seed share a pass; each tree stops at its
own depth limit and keeps its own leaf minimum. A group's problems are
sorted by width before they are cut into passes, and a pass's designs are
stacked as row blocks of one design padded to its widest problem; padded
columns are never usable at any node. Each problem keeps its own bootstrap
rows, split keys, target shift, column count and ``n_sub``. A level first
picks the nodes that can split; only those get subset keys and a split
search, over the columns of their widest tree. To keep a pass's transient
memory small, an all-0/1 design is stacked as uint8 and the rows' sort
orders are int32. `fit_forest` is the one-problem call.

A tree grows on its distinct bootstrap rows, about 0.632 n of its n draws,
each weighted by its draw count w (as scikit-learn passes draw counts as
sample weights; Louppe 2014, arXiv:1407.7502). Every target sum is a sum of
w * y, and every rule about rows counts draws: a node's size, the
``2 * min_samples_leaf`` rule, each side's ``min_samples_leaf`` and the
tie rule's rows on the left. So a tree has exactly the semantics of its
duplicated rows; only the order of its float sums differs, and on targets
whose sums are exact (small integers) it is the same tree bit for bit.
Splits are exact CART variance-reduction splits, found in one of two ways
chosen from each problem's ``X`` alone (the split path):

* real or mixed columns: every column keeps the level's rows sorted by
  (node, value), so cumulative sums of w * y and of w give the squared
  error of every (node, split position, feature); the threshold is the
  midpoint between the two adjacent distinct values;
* all-0/1 columns: per-(node, feature) draw counts and target sums of the
  ones give every split at the fixed threshold 0.5.

Split rule (`_choose`): lowest SSE, then fewest draws on the left, then
lowest column index. SSE is compared through the score S_left^2 / n_left +
S_right^2 / n_right, with S the sum of w * y and n the draws (the node's
weighted sum of squares minus SSE); scores within a relative ``_TIE_RTOL``
of each other count as tied. Rounding can still decide between candidates
that tie (two features giving a small node the same partition) or nearly
tie: the cumulative sum runs over all cells of a tree's level, so a run's
prefix sums carry the rounding of the runs before it in that tree, which can
exceed the tolerance. Each tree of a pass sums its own cells alone, in the
same order whatever else the pass holds, so a tree depends only on its own
rows: how trees are cut into blocks and passes changes no tree, and every
batched forest is bit-identical to a separate fit. A node stays a leaf at
``max_depth``, when it holds fewer than ``2 * min_samples_leaf`` draws, when
its target is constant, or when no split leaves ``min_samples_leaf`` draws
on each side. A leaf's value is the mean target of its draws, sum(w * y) /
sum(w).

A forest's bootstrap rows are `bootstrap_rows(rows_seed, n, n_trees)`,
``rows_seed`` defaulting to ``bootstrap_seed``; one draw serves all problems
of a call that share it, ``n`` and ``n_trees``. The draw is prefix-stable:
tree t's rows are the same for every ``n_trees`` > t, so forests that share
``rows_seed`` and ``n`` share each tree's rows. Each node considers exactly
``n_sub`` features, the ones with the smallest splitmix64 keys
``derive(derive(bootstrap_seed, "split"), tree, feature, heap id)``, so no
node's subset depends on traversal order or on other subtrees. Trees are
stored in one tree-major node table per forest. `predict_forests` walks the
(row, tree) entries of many forests, each on its own rows, down one stacked
node table at once, and each forest averages its trees' outputs, or, given
per-row tree weights, their weighted mean (an out-of-bag mask averages only
the trees that left a row out). An unweighted forest on all-0/1 rows of
at most ``_KEY_BITS`` columns walks each distinct row once, rows keyed by
their packed bits, and an inverse index gives every row its distinct row's
leaf values before the per-row mean, so the prediction is the same bit
for bit. `FittedForest.predict` is its one-forest call.
`FittedForest.trees` are one-tree forests over views of the node table,
predicted by the same walk. Everything is deterministic in the seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..seeds import derive, derive_array, rng_for

_TIE_RTOL = 1e-13
# (bootstrap row, feature) cells of one problem's trees grown in one block;
# bounds the memory of a pass that holds a large problem.
_BLOCK_CELLS = 1 << 20
# Padded (bootstrap row, feature) cells of one batched pass. Batching pays
# for small problems, where per-call overhead dominates; at about this many
# cells a pass is as fast as growing its problems one at a time.
_BATCH_CELLS = 1 << 17
# A real-valued cell holds a float value and a row of every feature's sort
# order, an all-0/1 cell one byte, so real-valued passes hold fewer cells.
_REAL_CELL_COST = 4
# (row, tree) entries of one prediction walk.
_WALK_ENTRIES = 1 << 16
# All-0/1 rows of at most this many columns are packed into one uint64 key.
_KEY_BITS = 64
_NO_KEY = np.uint64(np.iinfo(np.uint64).max)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int
    max_depth: int
    min_samples_leaf: int = 1
    feature_subsample: float = 1.0
    bootstrap_seed: int = 0
    rows_seed: int | None = None  # seeds the bootstrap rows; None: bootstrap_seed

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError("n_trees, max_depth and min_samples_leaf must be >= 1")
        if not 0.0 < self.feature_subsample <= 1.0:
            raise ValueError(f"feature_subsample must be in (0, 1], got {self.feature_subsample}")


def _leaves(X, base, feature, threshold, left, right, node) -> np.ndarray:
    """Walk every entry down to its leaf, one step per depth: entry i starts
    at `node[i]` and reads feature f of its row at ``X[base[i] + f]`` (X is
    flat). While most entries are inside their trees, all of them step;
    after that, only those not yet at a leaf."""
    node = node.copy()
    f = feature[node]
    internal = f >= 0
    while np.count_nonzero(internal) > len(node) // 2:
        go_left = X[base + np.maximum(f, 0)] <= threshold[node]
        node = np.where(internal, np.where(go_left, left[node], right[node]), node)
        f = feature[node]
        internal = f >= 0
    active = np.flatnonzero(internal)
    while len(active):
        at = node[active]
        go_left = X[base[active] + feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
        node[active] = at
        active = active[feature[at] >= 0]
    return node


@dataclass(eq=False)
class FittedForest:
    """Tree-major node table: tree t owns nodes offsets[t]:offsets[t+1],
    in breadth-first order, with child indices local to its tree."""

    params: ForestParams
    n_features: int
    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @functools.cached_property
    def trees(self) -> list[FittedForest]:
        """Each tree as a one-tree forest whose node arrays are views of
        this forest's node table; it predicts through the same walk."""
        params = replace(self.params, n_trees=1)
        columns = (self.feature, self.threshold, self.left, self.right, self.value)
        return [
            FittedForest(
                params, self.n_features, np.array([0, hi - lo]), *(c[lo:hi] for c in columns)
            )
            for lo, hi in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        ]

    def predict(self, X) -> np.ndarray:
        """The mean of the trees' leaf values; the one-forest call of
        `predict_forests`."""
        return predict_forests([self], [X])[0]


def _radix_key(values: np.ndarray, bound: int) -> np.ndarray:
    """`values` (all < bound) in the narrowest unsigned type, so that numpy's
    stable argsort can use radix sort."""
    return values.astype(np.min_scalar_type(max(bound - 1, 0)), copy=False)


def _runs(usable, starts, sizes):
    """Cells of every (node, feature) pair that may split, node-major.

    Pair i is a run of its node's rows, cells run_start[i] onwards; nodes
    may have different numbers of pairs. Returns (node, feature, run_start,
    run of each cell, level row of each cell, first pair of each node that
    may split, that node's rank among them for each pair).
    """
    node, feat = np.nonzero(usable.T)
    length = sizes[node]
    run_start = np.cumsum(length) - length
    run = np.repeat(np.arange(len(node)), length)
    row = (starts[node] - run_start)[run] + np.arange(len(run))
    new_node = _changes(node)
    return node, feat, run_start, run, row, np.flatnonzero(new_node), new_node.cumsum() - 1


def _changes(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of non-empty `keys` that differ from the one before;
    the first entry counts as a change."""
    change = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return change


def _prefix_sums(values, starts):
    """Cumulative sums of `values` restarting at each of `starts` (the first
    is 0): every piece is summed alone, in order, so its rounding does not
    depend on the pieces before it."""
    out = np.empty_like(values)
    for lo, hi in zip(starts, [*starts[1:], len(values)]):
        values[lo:hi].cumsum(out=out[lo:hi])
    return out


def _search_sorted(XsT, wy, w, order, starts, sizes, draws, usable, tree, msl):
    """Best split of the given nodes over columns sorted by (node, value).

    Cells are a tree's distinct bootstrap rows: `w` holds each cell's draw
    count and `wy` its draw count times its shifted target. `order` is (d, cells): the level's
    cells in each feature's value order, node by node; the nodes are the
    level's ranges `starts`, `sizes` (in cells), in order, holding `draws`
    draws; `usable` is the (d, nodes) mask of feature-node pairs that may
    split; `tree` numbers each node's tree, whose cells are contiguous and
    get their own prefix sums; `msl` is each node's ``min_samples_leaf``.
    Returns the positions of the nodes that split, their feature and
    threshold.
    """
    d, n_cells = order.shape
    node, feat, run_start, run, row, first, slot = _runs(usable, starts, sizes)
    sample = order.ravel()[feat[run] * n_cells + row]
    x = XsT.ravel()[feat[run] * XsT.shape[1] + sample]
    pieces = run_start[_changes(tree[node])]
    s_left = _prefix_sums(wy[sample], pieces.tolist())
    before = s_left[run_start] - wy[sample[run_start]]
    length = sizes[node]
    s_right = (s_left[run_start + length - 1] - before)[run]
    s_left -= before[run]
    s_right -= s_left
    # draws left of each cell: a cumulative sum of integers, exact across runs
    w_run = w[sample]
    n_left = np.cumsum(w_run)
    n_left -= (n_left[run_start] - w_run[run_start])[run]
    n_right = draws[node][run] - n_left
    # n_right is 0 on a run's last cell, so every valid split has a next cell
    valid = np.zeros(len(run), dtype=bool)
    valid[:-1] = x[:-1] < x[1:]
    msl = msl[node][run]
    valid &= (n_left >= msl) & (n_right >= msl)
    # score = S_left^2 / n_left + S_right^2 / n_right = sum(w y^2) - SSE
    score = np.square(s_left, out=s_left)
    score /= n_left
    score += np.square(s_right, out=s_right) / np.maximum(n_right, 1)
    score[~valid] = -1.0
    chosen = _choose(score, n_left, feat[run], d, run_start[first], slot[run])
    lo, hi = x[chosen], x[chosen + 1]
    mid = 0.5 * (lo + hi)
    # the midpoint of adjacent floats can round up to `hi`; `lo` splits the same rows
    return node[run[chosen]], feat[run[chosen]], np.where(mid < hi, mid, lo)


def _search_binary(XsT, wy, w, order, starts, sizes, draws, usable, msl, total):
    """Best split of the given nodes over all-0/1 columns at threshold 0.5
    (rows with a 1 go right), given each node's weighted target sum
    `total`. The other arguments and the result are those of
    `_search_sorted`, without `tree`, since every sum covers one run; only
    order[0] is used."""
    d = XsT.shape[0]
    node, feat, run_start, run, row, first, slot = _runs(usable, starts, sizes)
    sample = order[0, row]
    ones = XsT.ravel()[feat[run] * XsT.shape[1] + sample]
    n_right = np.add.reduceat(ones * w[sample], run_start)
    s_right = np.add.reduceat(np.multiply(ones, wy[sample]), run_start)
    n_left = draws[node] - n_right
    s_left = total[node] - s_right
    msl = msl[node]
    score = np.where(
        (n_left >= msl) & (n_right >= msl),
        s_left**2 / np.maximum(n_left, 1) + s_right**2 / np.maximum(n_right, 1),
        -1.0,
    )
    chosen = _choose(score, n_left, feat, d, first, slot)
    return node[chosen], feat[chosen], np.full(len(chosen), 0.5)


def _choose(score, n_left, feat, d, node_start, slot):
    """The split rule, over candidates grouped node by node (a node's from
    `node_start` on; `slot` is each candidate's node's rank): the position
    of each node's chosen candidate. A node takes its highest score, scores
    within a relative `_TIE_RTOL` of it counting as tied, then the fewest
    draws on the left, then the lowest of the d columns. Valid scores are
    >= 0 and invalid ones -1, below the tie floor -1 * (1 - rtol) of a node
    without a valid split, so such a node chooses none."""
    floor = np.maximum.reduceat(score, node_start) * (1.0 - _TIE_RTOL)
    hit = score >= floor[slot]
    key = np.where(hit, n_left * d + feat, np.inf)
    return np.flatnonzero(hit & (key == np.minimum.reduceat(key, node_start)[slot]))


def _partition(go_left, order, sizes, nodes):
    """Keep the rows of the split `nodes`, each parent's left child's rows
    first, then its right child's, both in their old order.

    Returns the new (features, rows) order and the children's sizes, left
    child first.
    """
    split = np.zeros(len(sizes), dtype=bool)
    split[nodes] = True
    kept = order[:, np.repeat(split, sizes)]
    parent = _radix_key(np.repeat(2 * np.arange(len(nodes)), sizes[nodes]), 2 * len(nodes))
    child = parent + ~go_left[kept]
    moved = np.argsort(child, axis=1, kind="stable")
    child_sizes = np.bincount(child[0], minlength=2 * len(nodes))
    return kept[np.arange(len(kept))[:, None], moved], child_sizes


def _in_bag(rows, n):
    """The distinct (tree, row) pairs of the (trees, n) bootstrap `rows`, as
    flat ids tree * n + row in increasing order, and each pair's draw
    count."""
    counts = np.bincount((rows + (np.arange(len(rows)) * n)[:, None]).ravel(), minlength=rows.size)
    cells = np.flatnonzero(counts)
    return cells, counts[cells]


class _Problem(NamedTuple):
    X: np.ndarray
    y: np.ndarray
    params: ForestParams
    n_sub: int
    rows: np.ndarray  # (n_trees, n) bootstrap row indices


def _grow(problems: list[_Problem], blocks, binary: bool):
    """Grow the trees of `blocks`, (problem, first tree, stop tree) ranges
    of problems on split path `binary` that share the row count, together,
    level by level.

    Each tree keeps its problem's ``max_depth`` and ``min_samples_leaf``.
    A tree's cells are its distinct bootstrap rows (`_in_bag`), each
    weighted by its draw count; a node has a cell count, which locates its
    cells, and a draw total, which every leaf rule reads. A level first
    picks the nodes that can split (below their tree's depth limit, with
    ``2 * min_samples_leaf`` draws and a non-constant target); only those
    get subset keys and a split search, over the columns of their widest
    tree. Once every split node's tree reaches its last level, only the
    cells' order is kept, not every feature's.

    Returns, per block, its per-tree node counts and its tree-major node
    table (feature, threshold, left, right, value) with tree-local child
    indices.
    """
    ids = sorted({p for p, _, _ in blocks})
    slot_of = {p: k for k, p in enumerate(ids)}
    n = len(problems[ids[0]].y)
    d = max(problems[p].X.shape[1] for p in ids)
    # problem k's rows are rows k * n onwards of the stacked, padded design
    X = np.zeros((len(ids), n, d), dtype=np.uint8 if binary else float)
    for k, p in enumerate(ids):
        X[k, :, : problems[p].X.shape[1]] = problems[p].X
    block_trees = [stop - start for _, start, stop in blocks]
    tree_block = np.repeat(np.arange(len(blocks)), block_trees)
    tree_slot = np.array([slot_of[p] for p, _, _ in blocks])[tree_block]
    owners = [problems[p] for p, _, _ in blocks]
    rows = np.concatenate([problems[p].rows[start:stop] for p, start, stop in blocks])
    n_trees = len(rows)
    # a tree's cells are its distinct rows, tree-major and by row, each
    # weighted by its draw count w
    cells, w = _in_bag(rows, n)
    cell_tree, cell_row = np.divmod(cells, n)
    samples = cell_row + tree_slot[cell_tree] * n
    XsT = np.ascontiguousarray(X.reshape(len(ids) * n, d)[samples].T)
    y_raw = np.concatenate([problems[p].y for p in ids])[samples]
    # a constant shift per problem changes no SSE comparison and keeps the
    # cumulative sums small; the midrange keeps small integers exact
    shift = np.array([0.5 * (problems[p].y.min() + problems[p].y.max()) for p in ids])
    wy = w * (y_raw - shift[tree_slot[cell_tree]])
    wy_raw = w * y_raw
    if binary:
        order = np.arange(len(cells), dtype=np.int32)[None, :]
    else:
        # per feature: each tree's cells sorted by value, ties by row, as
        # its problem's rows in that order, kept where in bag
        by_value = np.argsort(X.transpose(2, 0, 1), axis=2, kind="stable")
        cell_of = np.full(rows.size, -1, dtype=np.int32)
        cell_of[cells] = np.arange(len(cells))
        ranked = by_value[:, tree_slot]
        ranked += (np.arange(n_trees) * n)[:, None]
        ranked = cell_of[ranked]
        order = ranked[ranked >= 0].reshape(d, -1)
    tree_width = np.array([owner.X.shape[1] for owner in owners])[tree_block]
    tree_n_sub = np.array([owner.n_sub for owner in owners])[tree_block]
    tree_msl = np.array([owner.params.min_samples_leaf for owner in owners])[tree_block]
    # a tree without columns is its root alone
    tree_depth = np.array(
        [owner.params.max_depth if owner.X.shape[1] else 0 for owner in owners]
    )[tree_block]
    subsample = bool((tree_n_sub < tree_width).any())
    if subsample:
        # subset keys derive(split, tree, feature, heap id): one mix per level
        split_keys = np.array(
            [derive(owner.params.bootstrap_seed, "split") for owner in owners], dtype=np.uint64
        )
        local_tree = np.concatenate([np.arange(start, stop) for _, start, stop in blocks])
        feature_keys = derive_array(split_keys[tree_block], local_tree, np.arange(d)[:, None])

    node_tree = np.arange(n_trees)
    node_heap = np.zeros(n_trees, dtype=np.int64)
    sizes = np.bincount(cell_tree, minlength=n_trees)
    levels = []
    created = 0
    for depth in range(tree_depth.max() + 1):
        m = len(sizes)
        starts = np.cumsum(sizes) - sizes
        y_node = y_raw[order[0]]
        draws = np.add.reduceat(w[order[0]], starts)
        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.zeros(m)
        children = np.full(m, -1, dtype=np.int64)
        # the nodes that can split: below their tree's depth limit, with
        # 2 * min_samples_leaf draws and a non-constant target
        nodes = np.flatnonzero(
            (depth < tree_depth[node_tree])
            & (draws >= 2 * tree_msl[node_tree])
            & (np.minimum.reduceat(y_node, starts) < np.maximum.reduceat(y_node, starts))
        )
        if len(nodes):
            trees = node_tree[nodes]
            width = tree_width[trees].max()
            usable = np.arange(width)[:, None] < tree_width[trees]
            if subsample:
                # each node's n_sub smallest keys; padded columns hold no key
                keys = derive_array(feature_keys[:width, trees], node_heap[nodes])
                keys[~usable] = _NO_KEY
                kth = np.sort(keys, axis=0)[tree_n_sub[trees] - 1, np.arange(len(nodes))]
                usable &= keys <= kth
            at, size, drawn, msl = starts[nodes], sizes[nodes], draws[nodes], tree_msl[trees]
            if binary:
                total = np.add.reduceat(wy[order[0]], starts)[nodes]
                found, feat, thr = _search_binary(
                    XsT, wy, w, order, at, size, drawn, usable, msl, total
                )
            else:
                found, feat, thr = _search_sorted(
                    XsT, wy, w, order[:width], at, size, drawn, usable, trees, msl
                )
            nodes = nodes[found]
            feature[nodes] = feat
            threshold[nodes] = thr
            children[nodes] = created + m + 2 * np.arange(len(nodes))
        value = np.add.reduceat(wy_raw[order[0]], starts) / draws
        levels.append((node_tree, feature, threshold, children, value))
        created += m
        if not len(nodes):
            break
        row_node = np.repeat(np.arange(m), sizes)
        go_left = np.empty(len(cells), dtype=bool)
        go_left[order[0]] = XsT[np.maximum(feature[row_node], 0), order[0]] <= threshold[row_node]
        # the children need the columns of their widest tree; leaves at
        # their depth limit need only their rows, not every feature's order
        trees = node_tree[nodes]
        last = tree_depth[trees].max() == depth + 1
        order = order[: 1 if last else tree_width[trees].max()]
        order, sizes = _partition(go_left, order, sizes, nodes)
        node_tree = np.repeat(trees, 2)
        # heap ids: children of h are 2h + 1 and 2h + 2, interleaved
        node_heap = (2 * node_heap[nodes] + np.array([[1], [2]])).ravel(order="F")

    tree, feature, threshold, children, value = (np.concatenate(c) for c in zip(*levels))
    perm = np.argsort(tree, kind="stable")
    counts = np.bincount(tree, minlength=n_trees)
    local = np.empty_like(perm)
    local[perm] = np.arange(len(perm)) - np.repeat(np.cumsum(counts) - counts, counts)
    left = np.where(children >= 0, local[children], -1)
    right = np.where(children >= 0, local[children + 1], -1)
    table = tuple(c[perm] for c in (feature, threshold, left, right, value))
    tree_bounds = np.cumsum([0, *block_trees])
    node_bounds = np.concatenate([[0], np.cumsum(counts)])[tree_bounds].tolist()
    return [
        (counts[a:b], tuple(c[lo:hi] for c in table))
        for a, b, lo, hi in zip(
            tree_bounds[:-1], tree_bounds[1:], node_bounds[:-1], node_bounds[1:]
        )
    ]


def _passes(problems: list[_Problem], ids, binary: bool):
    """The trees of problems `ids` on split path `binary`, in order: each
    problem's trees cut into blocks of at most `_BLOCK_CELLS` (bootstrap
    draw, feature) cells, and the blocks into passes of at most
    `_BATCH_CELLS` padded cells on the all-0/1 path, and a
    `_REAL_CELL_COST`th of that on the real-valued one; a block alone may
    exceed it. A tree counts n draws, though it grows on its distinct rows
    only, about 0.632 n, so a pass holds about a third fewer cells than it
    counts. A pass is padded to its widest problem, so problems given in
    order of width make passes of like widths. Yields lists of (problem,
    first tree, stop tree) blocks."""
    budget = _BATCH_CELLS if binary else _BATCH_CELLS // _REAL_CELL_COST
    batch, trees, width = [], 0, 1
    for p in ids:
        n, d = len(problems[p].y), max(1, problems[p].X.shape[1])
        n_trees = problems[p].params.n_trees
        block = max(1, _BLOCK_CELLS // (n * d))
        for start in range(0, n_trees, block):
            stop = min(start + block, n_trees)
            if batch and (trees + stop - start) * n * max(width, d) > budget:
                yield batch
                batch, trees, width = [], 0, 1
            batch.append((p, start, stop))
            trees, width = trees + stop - start, max(width, d)
    if batch:
        yield batch


def _all_0_1(X) -> bool:
    """Whether every entry of X is 0 or 1. It picks a problem's split path,
    and whether a forest's rows can be keyed by their bits for the walk."""
    return bool(np.all((X == 0.0) | (X == 1.0)))


def bootstrap_rows(seed: int, n: int, n_trees: int) -> np.ndarray:
    """The (n_trees, n) bootstrap row indices of a forest on n rows whose
    ``rows_seed`` is `seed`: row t is tree t's draw, the same for every
    ``n_trees`` > t (numpy fills the array row by row from one stream)."""
    return rng_for(seed, "bootstrap").integers(0, n, size=(n_trees, n))


def fit_forests(Xs, ys, params_list) -> list[FittedForest]:
    """One forest per (X, y, params) problem, each equal to what `fit_forest`
    returns for it alone, since a tree depends only on its own rows.

    Problems are grouped by split path and row count, sorted by width within
    a group, and grown in the passes `_passes` cuts. Problems that share the
    rows seed, row count and ``n_trees`` share one draw of bootstrap rows.
    """
    Xs = [np.ascontiguousarray(X, dtype=float) for X in Xs]
    ys = [np.ascontiguousarray(y, dtype=float) for y in ys]
    if not len(Xs) == len(ys) == len(params_list):
        raise ValueError("need one y and one params per X")
    for X, y in zip(Xs, ys):
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be 2-D with one row per y entry and at least one row")
    problems = []
    groups = {}
    draws = {}
    for X, y, params in zip(Xs, ys, params_list):
        n, d = X.shape
        rows_seed = params.bootstrap_seed if params.rows_seed is None else params.rows_seed
        draw = (rows_seed, n, params.n_trees)
        if draw not in draws:
            draws[draw] = bootstrap_rows(*draw)
        rows = draws[draw]
        n_sub = max(1, int(round(params.feature_subsample * d)))
        groups.setdefault((_all_0_1(X), n), []).append(len(problems))
        problems.append(_Problem(X, y, params, n_sub, rows))
    grown = [[] for _ in problems]  # per problem, its blocks' results in tree order
    for (binary, _), ids in groups.items():
        ids.sort(key=lambda p: problems[p].X.shape[1])
        for batch in _passes(problems, ids, binary):
            for (p, _, _), block in zip(batch, _grow(problems, batch, binary)):
                grown[p].append(block)
    forests = []
    for problem, blocks in zip(problems, grown):
        counts, tables = zip(*blocks)
        # a forest of one block keeps views of its pass's node table
        forests.append(
            FittedForest(
                problem.params,
                problem.X.shape[1],
                np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
                *(c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*tables)),
            )
        )
    return forests


def fit_forest(X, y, params: ForestParams) -> FittedForest:
    """One forest: the one-problem call of `fit_forests`."""
    return fit_forests([X], [y], [params])[0]


def budget_chunks(items, cost, budget: int):
    """`items` in order, cut into lists whose `cost`s sum to at most
    `budget`; an item alone may exceed it."""
    chunk, total = [], 0
    for item in items:
        c = cost(item)
        if chunk and total + c > budget:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += c
    if chunk:
        yield chunk


def predict_forests(forests, Xs, weights=None) -> list[np.ndarray]:
    """Each forest's prediction on its own rows X, equal to what
    `forest.predict(X)` returns alone.

    The (row, tree) entries of every forest walk their trees together, over
    one node table with global child indices, in walks of at most
    `_WALK_ENTRIES` entries; a forest alone may exceed it. Each forest then
    averages its (rows, trees) leaf values row by row, as a separate call
    would. `weights`, if given, holds per forest None or a (rows, trees)
    array of tree weights, such as an out-of-bag mask, and the forest's
    prediction of a row is the weighted mean (every row needs a weight); an
    entry of weight 0 is not walked. A forest without weights on all-0/1
    rows walks each distinct row once (`_distinct_rows`), and walks count
    the entries walked.
    """
    Xs = [np.ascontiguousarray(X, dtype=float) for X in Xs]
    weights = [None] * len(Xs) if weights is None else list(weights)
    if not len(Xs) == len(forests) == len(weights):
        raise ValueError("need one X and one weights entry per forest")
    for forest, X, w in zip(forests, Xs, weights):
        if X.ndim != 2 or X.shape[1] != forest.n_features:
            raise ValueError(f"expected shape (n, {forest.n_features}), got {X.shape}")
        if w is not None and np.shape(w) != (len(X), len(forest.offsets) - 1):
            raise ValueError(f"expected weights of shape {(len(X), len(forest.offsets) - 1)}")
    # an unweighted forest on all-0/1 rows walks each distinct row once
    distinct = [_distinct_rows(X) if w is None else None for X, w in zip(Xs, weights)]
    Xs = [X if dr is None else X[dr[0]] for X, dr in zip(Xs, distinct)]
    inverses = [None if dr is None else dr[1] for dr in distinct]
    entries = [len(X) * (len(f.offsets) - 1) for f, X in zip(forests, Xs)]
    out = []
    for walk in budget_chunks(range(len(Xs)), entries.__getitem__, _WALK_ENTRIES):
        out += _walk(*([seq[k] for k in walk] for seq in (forests, Xs, weights, inverses)))
    return out


def _distinct_rows(X):
    """For an all-0/1 X of at most `_KEY_BITS` columns, the first row of
    each distinct row, keyed by its packed bits, and the index of each row's
    distinct row; None for any other X."""
    if X.shape[1] > _KEY_BITS or not _all_0_1(X):
        return None
    key = X.astype(np.uint64) @ (np.uint64(1) << np.arange(X.shape[1], dtype=np.uint64))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _walk(forests, Xs, weights, inverses) -> list[np.ndarray]:
    """`predict_forests` for forests whose entries make one walk; a forest
    given an inverse index walked its distinct rows, and each row takes its
    distinct row's leaf values."""
    trees = np.array([len(f.offsets) - 1 for f in forests])
    rows = np.array([len(X) for X in Xs])
    sizes = np.array([len(f.feature) for f in forests])
    node_base = np.cumsum(sizes) - sizes
    # each tree's root in the stacked node table; child indices become global
    roots = np.concatenate([f.offsets[:-1] for f in forests]) + np.repeat(node_base, trees)
    tree_base = np.repeat(roots, np.diff(roots, append=sizes.sum()))
    cells = np.array([X.size for X in Xs])
    entries = rows * trees
    index = np.int32 if max(sizes.sum(), cells.sum(), entries.sum()) < 2**31 else np.intp
    left = (np.concatenate([f.left for f in forests]) + tree_base).astype(index)
    right = (np.concatenate([f.right for f in forests]) + tree_base).astype(index)
    feature = np.concatenate([f.feature for f in forests])
    threshold = np.concatenate([f.threshold for f in forests])
    # entries are forest-major, then row-major, one per (row, tree)
    forest = np.repeat(np.arange(len(forests), dtype=index), entries)

    def at_entry(per_forest):
        return per_forest.astype(index)[forest]

    local = np.arange(entries.sum(), dtype=index) - at_entry(np.cumsum(entries) - entries)
    row, tree = np.divmod(local, at_entry(trees))
    start = roots.astype(index)[at_entry(np.cumsum(trees) - trees) + tree]
    widths = np.array([X.shape[1] for X in Xs])
    base = at_entry(np.cumsum(cells) - cells) + row * at_entry(widths)
    # the trailing cell gives a zero-width forest's entries something to read
    flat = np.concatenate([X.ravel() for X in Xs] + [np.zeros(1)])
    node_value = np.concatenate([f.value for f in forests])
    if all(w is None for w in weights):
        values = node_value[_leaves(flat, base, feature, threshold, left, right, start)]
    else:
        # an entry of weight 0 adds nothing to its forest's mean: it is not walked
        walked = np.concatenate(
            [np.full(e, True) if w is None else np.ravel(w) != 0 for w, e in zip(weights, entries.tolist())]
        )
        values = np.zeros(len(walked))
        leaf = _leaves(flat, base[walked], feature, threshold, left, right, start[walked])
        values[walked] = node_value[leaf]
    out, lo = [], 0
    for k, n, hi, w, inverse in zip(
        trees.tolist(), rows.tolist(), np.cumsum(entries).tolist(), weights, inverses
    ):
        v = values[lo:hi].reshape(n, k)
        if inverse is not None:
            v = v[inverse]
        out.append(v.sum(axis=1) / k if w is None else (v * w).sum(axis=1) / np.sum(w, axis=1))
        lo = hi
    return out


def forest_search_space(n_features: int, scale: str = "paper") -> dict:
    """Hyperparameter space for the forest.

    The paper scale is the full space for real experiment runs; the desk
    scale shrinks only the counts so test runs stay fast.
    """
    sqrt_frac = math.sqrt(n_features) / n_features
    if scale == "paper":
        return {
            "n_trees": ("int", 50, 300),
            "max_depth": ("int", 4, 24),
            "min_samples_leaf": [1, 2, 5],
            "feature_subsample": [1.0 / 3.0, sqrt_frac, 1.0],
        }
    if scale == "desk":
        return {
            "n_trees": [6, 12],
            "max_depth": [5, 8],
            "min_samples_leaf": [2, 5],
            "feature_subsample": [sqrt_frac, 1.0 / 3.0],
        }
    raise ValueError(f"unknown scale {scale!r}")

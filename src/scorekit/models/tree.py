"""CART decision trees with exact pre-sorted split search.

One builder serves three objectives:
  - "gini":  classification, leaves hold the class-1 proportion
  - "mse":   regression, leaves hold the mean response
  - "grad":  second-order boosting, leaves hold -G/(H+lambda) and splits
             use the regularized gain with a gamma penalty

One split search serves every node: it takes a frontier of nodes, from
one tree or from many grown side by side (`grow_trees`), and for each
node sorts each candidate column, prefix-sums the targets, and scores
every boundary between distinct adjacent values, all in one batch. Ties
go to the first candidate in (left size, column) order, as np.argmax over
a node's (boundary, column) gains takes it, which keeps trees
deterministic regardless of thread count and of the trees grown beside
them. A tree that draws mtry columns (the forest's) grows depth first,
one node per step, so that its draws keep their preorder; any other (a
single tree, every boosting round) grows level by level, all of its open
nodes in one search per step, and is renumbered into preorder when done.
Every search of one fit reads one `RankTable` of X, built once: a boosting
round grows on a subsample of X's rows and a subset of its columns without
copying them.

A tree is a `Tree` of parallel node arrays in preorder, left child first;
a model file holds each tree as exactly these arrays. `tree_leaves` is the
one walk over a tree; prediction reads the leaf values it finds.

Every tree model (single tree, forest, boosted) scores through one
`TreeScorer`: a base plus rate * leaf value, added tree by tree in model
order. It uses the trees' `BitVectorTrees` form, compiled at the first
score: the multi-word QuickScorer form, W = ceil(leaves / 64) 64-bit mask
words a tree (one narrower word up to 64 leaves), with the trees cut into
consecutive groups whose tables fit TABLE_BYTES. It routes every row as
the walk does, to the same bits. A model whose tables would not fit at any
group size is not compiled and walks its trees instead. Compiled forms
live only in memory and never reach the model file.

`TreeScorer` also scores variants, copies of X with some columns
substituted, as the explainers make them: a row's mask is an AND over
features, so the features a run of variants leaves alone are matched once
per row and only the substituted values once per variant. `TreeModel`
gives the three tree models their one predict_proba and predict_variants,
each model only its base, rate and link.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import ScorekitError
from .base import Predictor


@dataclass(eq=False)
class Tree:
    """A binary tree as parallel arrays, one entry per node, in preorder,
    left child first, root at 0.

    Node k is a leaf when left[k] < 0. Internal nodes send a row to
    left[k] when x[feature[k]] <= threshold[k] and to right[k] otherwise;
    gain[k] is the realized split gain. value[k] is the node's fitted
    value and n[k] its training row count (both kept for internal nodes).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    gain: np.ndarray


LEAF_CLIP = 4.0  # cap for leaves whose hessian sum vanishes


def leaf_weight_grad(g_sum, h_sum, lam):
    """Optimal leaf score -G/(H + lambda) for the second-order objective. A
    zero H + lambda (lambda 0, hessians 0) would be an infinite step; the
    leaf takes +/-LEAF_CLIP in the step's direction instead, or 0 at G = 0."""
    den = h_sum + lam
    if den == 0.0:
        return 0.0 if g_sum == 0.0 else math.copysign(LEAF_CLIP, -g_sum)
    return -g_sum / den


def _leaf_value(objective, a, b, lam):
    if objective == "grad":
        return leaf_weight_grad(float(a.sum()), float(b.sum()), lam)
    return float(a.mean())


# (candidate column x row) cells of one batched split search. It bounds the
# search's working arrays, a few dozen of one word a cell; smaller chunks
# pay more numpy calls, larger ones run out of cache. A node with more
# cells than this is searched on its own
SPLIT_CELLS = 1 << 14


def _column_ranks(XT) -> np.ndarray:
    """Dense rank of every value of XT (columns x rows) within its column:
    equal values share a rank (-0.0 and 0.0 too) and NaN ranks above every
    number, as a stable sort of the values orders them."""
    p, n = XT.shape
    at = np.argsort(XT, axis=1) + (np.arange(p) * n)[:, None]  # flat index, in sorted order
    xs = XT.ravel().take(at)
    dense = np.zeros(XT.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    ranks.put(at, dense)
    ranks[np.isnan(XT)] = n
    return ranks


class RankTable:
    """X transposed (columns x rows) and its _column_ranks, built once for
    every tree grown on rows of X. The dense ranks of X order any subset of
    its rows as the subset's own ranks would: ties by position, NaN last,
    -0.0 tied with 0.0."""

    def __init__(self, X):
        self.XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
        self.ranks = _column_ranks(self.XT)


def _prefix_sums(v, starts, ends, exact):
    """Running sums of v (columns x rows) along each node's rows, and each
    node's totals: the frontier's running sums, restarted at every node.
    With `exact` (integer-valued sums, as of 0/1 targets) a node's running
    sum is the frontier's less its value before the node; float sums would
    round differently, so they are summed again node by node."""
    run = v.cumsum(axis=1)
    if len(starts) > 1 and exact:
        before = run.take(starts - 1, axis=1)
        before[:, 0] = 0.0
        run -= before.repeat(ends - starts, axis=1)
    elif len(starts) > 1:
        for s, e in zip(starts[1:].tolist(), ends[1:].tolist()):
            v[:, s:e].cumsum(axis=1, out=run[:, s:e])
    return run, run.take(ends - 1, axis=1)


def _split_frontier(XT, ranks, a, b, sample, pos, sizes, cols, objective, min_leaf,
                    lam, gamma):
    """The best split of every node of a frontier, in one batched search.

    XT is X transposed (columns x rows) and `ranks` its _column_ranks. Node
    s owns the next sizes[s] (at least 2) entries of `pos`, positions in
    `sample` (a row id of X each) ascending in the node's order, and may
    split on the columns cols[s]. Per node and column this is a stable sort
    of the values (ties by position, NaN last), prefix sums of the targets
    over it, the gain of every boundary between distinct adjacent values
    that leaves min_leaf rows a side, and the first maximum in (boundary,
    column) order. One sort of (node, value rank, position) keys gives every
    node its own order. Arrays are (candidate column x row), so that the
    per-row terms broadcast along the long axis.

    Returns (split, feature, threshold, gain, column, lo, mid, hi, sum_left,
    order) over the nodes that split: their indices, the chosen split, the
    index of its column in cols, and `order`, each node's positions sorted
    along each candidate column, so that order[column, lo:mid] holds the
    positions of a splitting node's left rows and order[column, mid:hi]
    those of its right rows; sum_left is the sum of `a` over the left rows.
    """
    n = XT.shape[1]
    k = cols.shape[1]
    ends = sizes.cumsum()
    starts = ends - sizes
    at = (cols.T * n).repeat(sizes, axis=1)  # each cell's column start in XT and ranks
    # (node, rank, position) packed in one int64, so that a plain sort is stable
    shift = len(sample).bit_length()
    order = ranks.ravel().take(at + sample.take(pos))
    order <<= shift
    order += (np.arange(0, len(sizes) * (n + 1), n + 1).repeat(sizes) << shift) | pos
    order.sort(axis=1)
    order &= (1 << shift) - 1
    rows = sample.take(order)
    at += rows
    xs = XT.ravel().take(at)
    exact = objective == "gini"
    sum_a, tot_a = _prefix_sums(a.take(rows), starts, ends, exact)

    n_left = np.arange(1.0, len(pos) + 1) - starts.repeat(sizes)
    m = sizes.repeat(sizes).astype(float)
    n_right = m - n_left
    valid = np.zeros(xs.shape, dtype=bool)
    np.less(xs[:, :-1], xs[:, 1:], out=valid[:, :-1])
    # n_right >= 1 also ends every node at its own last row
    valid &= (n_left >= min_leaf) & (n_right >= max(min_leaf, 1))

    total = tot_a[0]
    sum_right = tot_a.repeat(sizes, axis=1)
    sum_right -= sum_a
    # each gain formula one operation at a time, in place: every step rounds
    # as in the plain expression, and a large node's search allocates a few
    # temporaries, not a dozen
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right = 0, never valid
        gain = sum_a * sum_a
        if objective == "gini":
            # (sL^2 + (nL - sL)^2) / nL + (sR^2 + (nR - sR)^2) / nR less the
            # parent's: maximizing it minimizes the weighted child Gini impurity
            other = np.subtract(n_left, sum_a)
            other *= other
            gain += other
            gain /= n_left
            np.subtract(n_right, sum_right, out=other)
            other *= other
            sum_right *= sum_right
            sum_right += other
            sum_right /= n_right
            gain += sum_right
            parent = (total * total + (sizes - total) * (sizes - total)) / sizes
            gain -= parent.repeat(sizes)
            gain /= m
            floor = 1e-12
        elif objective == "mse":
            # sL^2 / nL + sR^2 / nR less the parent's: maximizing it minimizes
            # the within-child sum of squares
            gain /= n_left
            sum_right *= sum_right
            sum_right /= n_right
            gain += sum_right
            parent = total * total / sizes
            gain -= parent.repeat(sizes)
            gain /= m
            floor = 1e-12 * np.maximum(1.0, np.abs(parent) / sizes)
        elif objective == "grad":
            # the regularized second-order gain, positive when worth splitting:
            # 0.5 * (gL^2 / (hL + lam) + gR^2 / (hR + lam)
            #        - (gL + gR)^2 / (hL + hR + lam)) - gamma
            sum_b, tot_b = _prefix_sums(b.take(rows), starts, ends, exact)
            h_right = tot_b.repeat(sizes, axis=1)
            h_right -= sum_b
            total_h = sum_b + h_right
            sum_b += lam
            gain /= sum_b
            total_g = np.add(sum_a, sum_right, out=sum_b)
            sum_right *= sum_right
            h_right += lam
            sum_right /= h_right
            gain += sum_right
            total_g *= total_g
            total_h += lam
            total_g /= total_h
            gain -= total_g
            gain *= 0.5
            gain -= gamma
            floor = 0.0
        else:
            raise ValueError("unknown objective %r" % objective)

    np.copyto(gain, -np.inf, where=~valid)
    best = np.maximum.reduceat(gain, starts, axis=1).max(axis=0)  # NaN if any gain is: no split
    split = np.flatnonzero(best > floor)
    # np.argmax within each node: the first maximum in (row, column) order
    j, i = np.divmod(np.flatnonzero(gain == best.repeat(sizes)), len(pos))
    hits = np.sort(i * k + j)
    i, j = np.divmod(hits[np.searchsorted(hits, starts[split] * k)], k)
    lo, hi = xs[j, i], xs[j, i + 1]
    with np.errstate(invalid="ignore", over="ignore"):
        threshold = (lo + hi) / 2.0
    # adjacent floats round up to hi, two large negatives overflow to -inf
    # (a test lo fails), and -inf with inf gives NaN (a test no row passes):
    # lo keeps the partition
    threshold = np.where((lo <= threshold) & (threshold < hi), threshold, lo)
    return (split, cols[split, j], threshold, best[split], j, starts[split], i + 1,
            ends[split], sum_a[j, i], order)


def _chunks(cells):
    """(lo, hi) runs of consecutive nodes of at most SPLIT_CELLS cells in
    all, each run holding one node at least."""
    lo, total = 0, 0
    for hi, c in enumerate(cells):
        if hi > lo and total + c > SPLIT_CELLS:
            yield lo, hi
            lo, total = hi, 0
        total += c
    if lo < len(cells):
        yield lo, len(cells)


NODE_ARRAYS = (("value", "d"), ("n", "q"), ("feature", "q"), ("threshold", "d"),
               ("left", "q"), ("right", "q"), ("gain", "d"))


def _in_preorder(arrays):
    """A tree's node arrays, numbered in growth order, renumbered into
    preorder, left child first; and the new id of every old one."""
    left, right = arrays["left"].tolist(), arrays["right"].tolist()
    order, stack = [], [0]
    while stack:
        k = stack.pop()
        order.append(k)
        if left[k] >= 0:
            stack += (right[k], left[k])
    new_id = np.empty(len(order), dtype=np.int64)
    new_id[order] = np.arange(len(order))
    out = {name: arr[order] for name, arr in arrays.items()}
    for name in ("left", "right"):
        out[name] = np.where(out[name] >= 0, new_id[out[name]], -1)
    return out, new_id


def grow_trees(table: RankTable, a, b, roots, rngs, objective="gini", max_depth=None,
               min_leaf=1, mtry=None, cols=None, lam=0.0, gamma=0.0, threads=1,
               leaf_of=None) -> list[Tree]:
    """Grow one CART tree per entry of `roots`, the row ids of X (repeats
    allowed, in order) that tree is fitted on, side by side, where `table`
    is X's RankTable.

    `a` is the target (0/1 labels for "gini", residuals, or gradients); `b`
    is the hessian column for the "grad" objective; both hold a value per
    row of X. Every node may split on the columns `cols` (ascending; all of
    X's by default), or with `mtry` on mtry columns tree t draws from rngs[t]
    at each node it tries to split. A node's rows are held as their
    positions in `sample`, the roots end to end: in the split search, ties
    break by position as they would by the row order of a node. Trees grow
    from explicit stacks, so deep trees cannot hit the recursion limit.

    Each step searches a frontier of nodes at once. A tree with mtry draws
    adds its next node, depth first: a node is numbered when it is taken
    and the left child is taken right after its parent, so the numbering is
    preorder and its draws come in preorder. Any other tree adds all of its
    open nodes, a level at a time, and is renumbered into preorder when it
    is done. A tree does not depend on the trees grown beside it, nor on
    `threads`, which splits the trees into that many contiguous groups grown
    in parallel. `leaf_of`, if given, is filled with the id of the leaf
    every position of `sample` ends in.
    """
    a = np.asarray(a, dtype=float)
    if b is not None:
        b = np.asarray(b, dtype=float)
    if objective == "gini":
        bad = a[(a != 0.0) & (a != 1.0)]
        if len(bad):
            raise ScorekitError("a classification tree needs a 0/1 target, got %r"
                                % float(bad[0]))
    XT, ranks = table.XT, table.ranks
    p = XT.shape[0]
    use_mtry = mtry is not None and mtry < p
    if use_mtry and any(rng is None for rng in rngs):
        raise ValueError("mtry sampling needs an rng")
    candidates = np.arange(p) if cols is None else np.asarray(cols, dtype=np.int64)
    sample = np.concatenate(roots).astype(np.int64)  # every tree's rows, one position each
    offsets = np.cumsum([0] + [len(rows) for rows in roots])
    del roots  # `sample` holds them now; this frees them if the caller kept none
    width = mtry if use_mtry else len(candidates)
    gini = objective == "gini"
    depth_cap = math.inf if max_depth is None else max_depth

    def grow(group):
        # per tree: its open nodes as (positions, depth, parent or -1, whether
        # the left child, sum of a over the rows) and its node arrays
        stacks = [[(np.arange(offsets[t], offsets[t + 1]), 0, -1, True,
                    float(a.take(sample[offsets[t]:offsets[t + 1]]).sum()))] for t in group]
        nodes = [tuple(array(code) for _, code in NODE_ARRAYS) for _ in group]
        live = list(range(len(group)))
        while live:
            frontier, draws = [], []
            for t in live:
                value, count, feature, threshold, left, right, gain = nodes[t]
                if use_mtry:
                    taken = [stacks[t].pop()]
                else:
                    taken, stacks[t] = stacks[t], []
                for pos, depth, parent, is_left, total in taken:
                    k = len(value)
                    if parent >= 0:
                        (left if is_left else right)[parent] = k
                    if leaf_of is not None:
                        leaf_of[pos] = k  # until its children take the rows
                    m = len(pos)
                    if gini:  # the mean and purity of 0/1 labels, from their exact sum
                        value.append(total / m)
                        pure = total == 0.0 or total == m
                    else:  # float sums, added in the node's order
                        pos.sort()
                        rows = sample.take(pos)
                        a_n = a.take(rows)
                        value.append(_leaf_value(objective, a_n,
                                                 None if b is None else b.take(rows), lam))
                        pure = objective == "mse" and a_n.max() - a_n.min() == 0.0  # np.ptp
                    count.append(m)
                    feature.append(-1)
                    threshold.append(0.0)
                    left.append(-1)
                    right.append(-1)
                    gain.append(0.0)
                    if depth >= depth_cap or pure:
                        continue
                    if use_mtry:
                        draw = rngs[group[t]].choice(p, size=mtry, replace=False)
                    if m < 2 * min_leaf or m < 2 or not width:
                        continue
                    frontier.append((t, k, pos, depth, total))
                    if use_mtry:
                        draws.append(draw)
            for lo, hi in _chunks([len(f[2]) * width for f in frontier]):
                part = frontier[lo:hi]
                part_cols = (np.sort(np.concatenate(draws[lo:hi]).reshape(-1, mtry), axis=1)
                             if use_mtry else candidates[None].repeat(len(part), axis=0))
                *found, order = _split_frontier(
                    XT, ranks, a, b, sample, np.concatenate([f[2] for f in part]),
                    np.array([len(f[2]) for f in part]), part_cols, objective, min_leaf, lam,
                    gamma)
                for s, f, thr, g, j, start, mid, end, sum_left in zip(*(v.tolist() for v in found)):
                    t, k, _, depth, total = part[s]
                    _, _, feature, threshold, _, _, gain = nodes[t]
                    feature[k] = f
                    threshold[k] = thr
                    gain[k] = g
                    # copies: a child waiting on a stack must not hold the chunk's array
                    stacks[t].append((order[j, mid:end].copy(), depth + 1, k, False,
                                      total - sum_left))
                    stacks[t].append((order[j, start:mid].copy(), depth + 1, k, True, sum_left))
            live = [t for t in live if stacks[t]]
        trees = []
        for t, fields in zip(group, nodes):
            arrays = {name: np.frombuffer(arr, dtype=arr.typecode)  # no copy
                      for (name, _), arr in zip(NODE_ARRAYS, fields)}
            if not use_mtry:
                arrays, new_id = _in_preorder(arrays)
                if leaf_of is not None:
                    span = slice(offsets[t], offsets[t + 1])
                    leaf_of[span] = new_id.take(leaf_of[span])
            trees.append(Tree(**arrays))
        return trees

    n_trees = len(offsets) - 1
    step = max(1, -(-n_trees // max(threads, 1)))
    groups = [range(lo, min(lo + step, n_trees)) for lo in range(0, n_trees, step)]
    if len(groups) == 1:
        return grow(groups[0])
    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        return [tree for trees in pool.map(grow, groups) for tree in trees]


def build_tree(
    X,
    a,
    b=None,
    objective: str = "gini",
    max_depth: int | None = None,
    min_leaf: int = 1,
    mtry: int | None = None,
    rng: np.random.Generator | None = None,
    lam: float = 0.0,
    gamma: float = 0.0,
) -> Tree:
    """Grow one CART tree greedily on all rows of X: `grow_trees` with a
    single tree, level by level unless it draws mtry columns."""
    return grow_trees(RankTable(X), a, b, [np.arange(len(X))], [rng], objective=objective,
                      max_depth=max_depth, min_leaf=min_leaf, mtry=mtry, lam=lam,
                      gamma=gamma)[0]


def tree_leaves(tree: Tree, X) -> np.ndarray:
    """The node id of the leaf each row of X lands in (iterative, vectorized).

    A row goes left when its value is <= the threshold, so NaN goes right.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0], dtype=np.int64)
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        k, idx = stack.pop()
        if len(idx) == 0:
            continue
        if left[k] < 0:
            out[idx] = k
        else:
            mask = X[idx, feature[k]] <= threshold[k]
            stack.append((left[k], idx[mask]))
            stack.append((right[k], idx[~mask]))
    return out


def predict_tree(tree: Tree, X) -> np.ndarray:
    """Route every row of X to its leaf value."""
    return tree.value[tree_leaves(tree, X)]


# (row x mask byte) cells of one BitVectorTrees scoring block: the bytes of
# its mask matrix, one a tree for trees of up to 8 leaves. It bounds the
# block's working arrays, a few of the mask's size; smaller blocks pay more
# numpy calls per row, since the sum over trees is one call per tree and
# block, and larger ones run out of cache
SCORE_CELLS = 1 << 18

# bytes of the compiled tables (prefix-AND tables and row indices) of one
# model. Groups of trees are made as large as this allows (one group needs
# no row indices, and each group costs numpy calls per block); a model whose
# tables exceed it at every group size is not compiled, and is scored by the
# walk. It bounds the memory that compiling adds to a model
TABLE_BYTES = 4 << 20

MASK_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@dataclass(eq=False)
class BitVectorTrees:
    """An ensemble of trees in the multi-word QuickScorer bit-vector form
    (Lucchese et al., SIGIR 2015; vQS, Dato et al., TOIS 2016).

    A tree's leaves are numbered left to right, i.e. by preorder rank among
    leaves, and leaf i is bit i % 64 of word i // 64 of the tree's mask, of
    `words` words. A node whose test fails clears the bits of its left
    subtree's leaves, and the exit leaf is the lowest bit left set in the
    first non-zero word. dtype is the unsigned type of a word: the narrowest
    that holds the widest tree when it has at most 64 leaves, else 64 bits.

    features[k] is a feature some node splits on and thresholds[k] the
    sorted thresholds of all its nodes in all trees. The trees are cut into
    consecutive groups of group_size (the last may be smaller), so that the
    tables fit TABLE_BYTES. groups[g] holds, per feature its trees split on,
    (k, index, table): row r of table, shape (nodes of the group on the
    feature + 1, group trees * words), holds every tree's words ANDed over
    the clear masks of the group's r lowest thresholds, word-major (column
    w * group trees + t); index[i] is the number of the group's thresholds
    among the i lowest of thresholds[k], None when the group holds every
    tree (it is then i). values is (trees, widest tree's leaves), leaf
    values in leaf order.
    """

    features: list[int]
    thresholds: list[np.ndarray]
    group_size: int
    groups: list[list[tuple[int, np.ndarray | None, np.ndarray]]]
    values: np.ndarray
    words: int
    dtype: type

    @property
    def nbytes(self) -> int:
        """Bytes of the tables and row indices, which TABLE_BYTES bounds."""
        return sum(table.nbytes + (0 if index is None else index.nbytes)
                   for group in self.groups for _, index, table in group)

    def score(self, X, base: float, rate: float) -> np.ndarray:
        """base + rate * v_0 + rate * v_1 + ... per row, added in tree order,
        where v_t is the leaf value tree t routes the row to: score_runs of
        X as it is.
        """
        return self.score_runs(np.asarray(X, dtype=float), [((), np.empty((1, 1, 0)))],
                               base, rate)[0]

    def score_runs(self, X, runs, base: float, rate: float) -> np.ndarray:
        """Scores of X under runs of column substitutions, one row per
        variant of every run in turn, each as `score` gives it on the
        substituted copy of X.

        A run is (columns, values): variant v of it sets the distinct
        columns `columns` of X to values[v], an array of shape (1 or rows,
        len(columns)) whose one row is broadcast over X. Per block of rows
        of X, every feature is searched once per row, and per group of
        trees each run ANDs the tables of the features it leaves alone once
        per row. The substituted values are searched once per variant and
        value and ANDed into that, in blocks of variants, of any runs, of at
        most SCORE_CELLS mask bytes.

        searchsorted(side="left") counts the thresholds strictly below x, so
        x == t passes a test and NaN, sorted last, fails every one: the `<=`
        rule of tree_leaves, NaN going right.
        """
        scaled = rate * self.values  # the products the per-tree sum adds
        word_bytes = self.words * np.dtype(self.dtype).itemsize
        step = max(1, SCORE_CELLS // max(1, min(self.group_size, len(scaled)) * word_bytes))
        slot = {j: k for k, j in enumerate(self.features)}
        sizes = [len(values) for _, values in runs]
        ends = list(itertools.accumulate(sizes))
        firsts = [end - size for end, size in zip(ends, sizes)]
        run_of = [r for r, size in enumerate(sizes) for _ in range(size)]
        out = np.empty((len(run_of), X.shape[0]))
        for start in range(0, X.shape[0], step):
            block = X[start:start + step]
            rows = block.shape[0]
            below = [np.searchsorted(thr, block[:, j], side="left")
                     for j, thr in zip(self.features, self.thresholds)]
            # per run, the threshold counts of the features it substitutes,
            # (variants, 1 or rows) each
            subs = []
            for columns, values in runs:
                if values.shape[1] > 1:  # one value per row
                    values = values[:, start:start + step]
                subs.append({slot[j]: np.searchsorted(self.thresholds[slot[j]], values[:, :, i],
                                                      side="left")
                             for i, j in enumerate(columns) if j in slot})
            per_block = max(1, step // rows)  # variants a mask block
            acc = np.full((len(run_of), rows), base)
            for first, group in zip(range(0, len(scaled), self.group_size), self.groups):
                group_values = scaled[first:first + self.group_size]
                width = len(group_values) * self.words
                tables = [(k, table, below[k] if index is None else index.take(below[k]),
                           index) for k, index, table in group]
                held = None  # (run, what _kept gives for it)
                for lo in range(0, len(run_of), per_block):
                    hi = min(lo + per_block, len(run_of))
                    mask = None
                    for r in range(run_of[lo], run_of[hi - 1] + 1):
                        if held is None or held[0] != r:
                            held = (r,) + self._kept(tables, subs[r], rows, width)
                        _, kept, changed = held
                        if not changed and hi - lo == 1:  # X's own mask, used up
                            mask, held = kept, None
                            break
                        if mask is None:
                            mask = np.empty((hi - lo, rows, width), self.dtype)
                        a, b = max(lo, firsts[r]), min(hi, ends[r])
                        part = mask[a - lo:b - lo]  # (variants, rows, width)
                        part[...] = kept
                        for at, table in changed:
                            part &= table.take(at[a - firsts[r]:b - firsts[r]], axis=0)
                    total = acc[lo:hi].reshape(-1)  # a view: acc is C-ordered
                    for tree_values, leaf in zip(group_values,
                                                 self._exit_leaves(mask.reshape(-1, width))):
                        total += tree_values.take(leaf)
            out[:, start:start + step] = acc
        return out

    def _kept(self, tables, subs, rows, width):
        """A run's part of a group's masks: the (rows, width) AND of the
        tables of the features it leaves alone, and (table rows per variant,
        table) of those it substitutes, subs giving their threshold counts."""
        kept = np.full((rows, width), np.iinfo(self.dtype).max, self.dtype)
        changed = []
        for k, table, at, index in tables:
            if k in subs:
                changed.append((subs[k] if index is None else index.take(subs[k]), table))
            else:
                kept &= table.take(at, axis=0)
        return kept, changed

    def _exit_leaves(self, mask) -> np.ndarray:
        """(trees, rows): the number of each row's exit leaf in each tree of
        a group, from the group's (rows, words * trees) masks, which it
        overwrites."""
        # within a word, the count of zero bits below the lowest set one (all
        # if none): the set bits of ~m & (m - 1), computed in place
        low = mask - self.dtype(1)
        low &= np.invert(mask, out=mask)
        low = np.bitwise_count(low)
        if self.words == 1:
            return np.ascontiguousarray(low.T)
        low = np.ascontiguousarray(low.T).reshape(self.words, -1, mask.shape[0])
        # leaf 64w + low in word w, or past every leaf where word w is zero
        # (low 64): the first non-zero word gives the least
        low = low.astype(np.uint32)
        low += (low >> 6) * (64 * self.words) \
            + (np.arange(self.words, dtype=np.uint32) * 64)[:, None, None]
        return np.minimum.reduce(low, axis=0)


def _low_bits(n) -> np.ndarray:
    """uint64 words with the n lowest bits set, 0 <= n <= 64."""
    n = n.astype(np.uint64)
    return np.where(n >= 64, ~np.uint64(0),
                    (np.uint64(1) << np.minimum(n, np.uint64(63))) - np.uint64(1))


def _group_size(node_tree, column, n_trees, word_bytes, index_bytes) -> int:
    """The most consecutive trees a group whose tables take at most
    TABLE_BYTES, or 0 when no group size fits; sizes are tried from all the
    trees down, since the bytes need not shrink with the size.

    node_tree gives each internal node's tree and column the position of its
    feature among the features split on. A group's table on a feature has
    one row per node of the group on it, plus one, of word_bytes per tree of
    the group. With more than one group, each table also has an index of
    index_bytes per node on the feature in all trees, plus one.
    """
    internal = np.bincount(node_tree, minlength=n_trees)
    used = np.zeros((n_trees, column.max(initial=-1) + 1), dtype=bool)
    used[node_tree, column] = True
    index_rows = np.bincount(column, minlength=used.shape[1]) + 1
    for size in range(n_trees, 0, -1):
        starts = np.arange(0, n_trees, size)
        used_by = np.logical_or.reduceat(used, starts, axis=0)
        rows = np.add.reduceat(internal, starts) + used_by.sum(axis=1)
        total = int((rows * np.diff(np.append(starts, n_trees))).sum()) * word_bytes
        if len(starts) > 1:
            total += int((used_by @ index_rows).sum()) * index_bytes
        if total <= TABLE_BYTES:
            return size
    return 0


def compile_trees(trees: list[Tree]) -> BitVectorTrees | None:
    """The BitVectorTrees form of `trees`, or None when its tables would take
    more than TABLE_BYTES at every group size (checked from the node counts,
    before any table is built). The widest tree sets the words of every
    tree. Nodes of all trees are handled as one array; the loops run per
    feature and group, not per node."""
    if not trees:
        return BitVectorTrees([], [], 1, [], np.zeros((0, 1)), 1, np.uint8)
    sizes = np.array([len(tree.left) for tree in trees])
    start = np.concatenate(([0], np.cumsum(sizes)))  # each tree's first node in the arrays below
    left, right, feature, threshold, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("left", "right", "feature", "threshold", "value"))
    tree_of = np.arange(len(trees)).repeat(sizes)
    is_leaf = left < 0
    before = np.concatenate(([0], np.cumsum(is_leaf)))  # leaves ahead of each node, all trees
    width = int((before[start[1:]] - before[start[:-1]]).max())
    words = -(-width // 64)
    dtype = next(d for d in MASK_DTYPES if width <= np.iinfo(d).bits) if words == 1 else np.uint64

    internal = np.flatnonzero(~is_leaf)
    features, column, per_feature = np.unique(feature[internal], return_inverse=True,
                                              return_counts=True)
    index_dtype = np.min_scalar_type(per_feature.max(initial=0))
    group_size = _group_size(tree_of[internal], column, len(trees),
                             words * np.dtype(dtype).itemsize, index_dtype.itemsize)
    if group_size == 0:
        return None
    # internal nodes by (feature, threshold), ties in node order
    internal = internal[np.lexsort((threshold[internal], feature[internal]))]
    node_tree = tree_of[internal]

    leaf = np.flatnonzero(is_leaf)
    values = np.zeros((len(trees), width))
    values[tree_of[leaf], before[leaf] - before[start[tree_of[leaf]]]] = value[leaf]

    # a node's left subtree is nodes left..right-1 of its tree in preorder,
    # so its leaves are bits before[left] .. before[right]-1, counted from
    # the tree's first leaf; word w holds bits 64w .. 64w+63 of them
    first = start[node_tree]
    lo = before[first + left[internal]] - before[first]
    hi = lo + before[first + right[internal]] - before[first + left[internal]]
    node_mask = np.empty((len(internal), words), dtype=dtype)
    for w in range(words):
        clear = _low_bits(np.clip(hi - 64 * w, 0, 64)) ^ _low_bits(np.clip(lo - 64 * w, 0, 64))
        node_mask[:, w] = ~clear
    starts = np.concatenate(([0], np.cumsum(per_feature)))
    thresholds = np.split(threshold[internal], starts[1:-1]) if len(internal) else []
    # the tables need only the sorted nodes' trees and masks: free the arrays
    # over every node first, so that they do not add to the tables' peak
    del left, right, feature, threshold, value, tree_of, is_leaf, before, leaf, first, lo, hi

    n_groups = -(-len(trees) // group_size)
    node_group = node_tree // group_size
    groups = [[] for _ in range(n_groups)]
    ones = np.iinfo(dtype).max
    for k in range(len(features)):
        on = slice(starts[k], starts[k + 1])  # the feature's nodes, by threshold
        found, slot = np.unique(node_group[on], return_inverse=True)
        if n_groups > 1:  # row s: the nodes of group found[s] among each prefix of them
            index = np.zeros((len(found), per_feature[k] + 1), dtype=index_dtype)
            index[slot, np.arange(1, per_feature[k] + 1)] = 1
            np.cumsum(index, axis=1, dtype=index_dtype, out=index)
        by_group = np.argsort(slot, kind="stable") + starts[k]
        for s, sel in enumerate(np.split(by_group, np.cumsum(np.bincount(slot))[:-1])):
            g = int(found[s])
            n_group = min(group_size, len(trees) - g * group_size)
            table = np.full((len(sel) + 1, words * n_group), ones, dtype=dtype)
            cols = np.arange(words) * n_group + (node_tree[sel] - g * group_size)[:, None]
            table[np.arange(1, len(sel) + 1)[:, None], cols] = node_mask[sel]
            np.bitwise_and.accumulate(table, axis=0, out=table)
            groups[g].append((k, index[s] if n_groups > 1 else None, table))
    return BitVectorTrees(features.tolist(), thresholds, group_size, groups, values, words,
                          dtype)


class TreeScorer:
    """The one scorer of every tree model: base + rate * v_0 + rate * v_1 +
    ... per row, added in tree order, where v_t is the leaf value trees[t]
    routes the row to.

    It scores through `bit_trees`, the compiled form of the trees, or walks
    them one by one when that is None, to the same bits. The form is
    compiled at the first score, not when the model is built, so that a
    model file's parsed document is freed before the tables are made; it
    lives in memory only.
    """

    def __init__(self, trees: list[Tree]):
        self.trees = trees

    @functools.cached_property
    def bit_trees(self) -> BitVectorTrees | None:
        return compile_trees(self.trees)

    def score(self, X, base: float, rate: float) -> np.ndarray:
        if self.bit_trees is not None:
            return self.bit_trees.score(X, base, rate)
        out = np.full(X.shape[0], base)
        for tree in self.trees:
            out += rate * predict_tree(tree, X)
        return out

    def score_variants(self, X, variants, base: float, rate: float) -> np.ndarray:
        """(len(variants), rows): row k is `score` of X under variant k, a
        (columns, values) pair standing for a copy of X with
        `copy[:, columns] = values`, on the compiled form (which must not
        be None). Consecutive variants of the same columns and shape of
        values make one run of BitVectorTrees.score_runs, their values one
        row when the same for every row of X (a grid point), else one per
        row (a permutation)."""
        n, p = X.shape
        runs = []
        variants = ((np.arange(p)[columns], np.asarray(values, dtype=float))
                    for columns, values in variants)
        for (key, shape), run in itertools.groupby(
                variants, key=lambda v: (np.atleast_1d(v[0]).tolist(), v[1].shape)):
            run = list(run)
            target = (len(run), n) + run[0][0].shape  # the copies' [:, columns]
            values = np.array([v for _, v in run])
            values = np.broadcast_to(
                values.reshape((len(run),) + (1,) * (len(target) - 1 - len(shape)) + shape),
                target).reshape(len(run), n, len(key))
            runs.append((key, values if n > 1 and values.strides[1] else values[:, :1]))
        return self.bit_trees.score_runs(X, runs, base, rate)


class TreeModel(Predictor):
    """A model of trees scored by one TreeScorer: its probability is
    link(base + rate * v_0 + rate * v_1 + ...), with base and rate from
    `offset`. predict_proba and predict_variants share both; the latter
    scores on the compiled trees, or stacks (the default) when they walk.
    """

    def __init__(self, trees: list[Tree], feature_names):
        super().__init__(feature_names)
        self.trees: list[Tree] = list(trees)
        self.scorer = TreeScorer(self.trees)

    @property
    def offset(self) -> tuple[float, float]:
        """(base, rate) of the raw score."""
        raise NotImplementedError

    def link(self, raw: np.ndarray) -> np.ndarray:
        return raw

    def predict_proba(self, X) -> np.ndarray:
        return self.link(self.scorer.score(self._as_matrix(X), *self.offset))

    def predict_variants(self, X, variants) -> np.ndarray:
        if self.scorer.bit_trees is None:
            return super().predict_variants(X, variants)
        return self.link(self.scorer.score_variants(self._as_matrix(X), variants, *self.offset))


class DecisionTree(TreeModel):
    """A single classification tree scoring leaf class-1 proportions."""

    model_kind = "tree"
    # -0.0 + v is v for every v, -0.0 included: the leaf values themselves
    offset = (-0.0, 1.0)

    def __init__(self, tree: Tree, feature_names, max_depth=None, min_leaf=1):
        super().__init__([tree], feature_names)
        self.tree = tree
        self.max_depth = max_depth
        self.min_leaf = min_leaf


def train_tree(X, y, max_depth=None, min_leaf=1, feature_names=None) -> DecisionTree:
    """Greedy best-split CART; stops on depth, min_leaf, or zero gain."""
    X = np.asarray(X, dtype=float)
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(X.shape[1])]
    tree = build_tree(X, np.asarray(y, dtype=float), objective="gini",
                      max_depth=max_depth, min_leaf=min_leaf)
    return DecisionTree(tree, feature_names, max_depth=max_depth, min_leaf=min_leaf)

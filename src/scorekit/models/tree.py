"""CART decision trees with exact pre-sorted split search.

One builder serves three objectives:
  - "gini":  classification, leaves hold the class-1 proportion
  - "mse":   regression, leaves hold the mean response
  - "grad":  second-order boosting, leaves hold -G/(H+lambda) and splits
             use the regularized gain with a gamma penalty

The split search is vectorized across all candidate features at once:
sort each column, prefix-sum the targets, and score every boundary
between distinct adjacent values in one shot. Ties go to the first
(lowest feature index, lowest threshold) candidate, which keeps trees
deterministic regardless of thread count.

A tree is a `Tree` of parallel node arrays in preorder, left child first:
the order of the v1 JSON node list, so `tree_to_flat` / `tree_from_flat`
only convert between records and arrays. `tree_leaves` is the one walk
over a tree; prediction reads the leaf values it finds. An ensemble of
small trees can instead be compiled into `BitVectorTrees`, which routes
every row as the walk does and scores all trees in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Predictor


@dataclass(eq=False)
class Tree:
    """A binary tree as parallel arrays, one entry per node, in the order of
    the v1 JSON node list: preorder, left child first, root at 0.

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


# per array, the entry a node record may omit (its type is the array's
# dtype); leaf records hold only value and n, and no record omits value
LEAF_DEFAULTS = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
                 "n": 0, "gain": 0.0}


def _boundary_stats(Xn, a, b=None):
    """Sort each column and prefix-sum targets over it.

    Returns (xs, nL, sums_a_left, sums_b_left, total_a, total_b) where row i
    describes the boundary after sorted position i (left size i+1).
    """
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ca = np.cumsum(a[order], axis=0)
    cb = np.cumsum(b[order], axis=0) if b is not None else None
    total_a = ca[-1]
    total_b = cb[-1] if cb is not None else None
    return xs, ca[:-1], (None if cb is None else cb[:-1]), total_a, total_b


def _score_two_class(nL, nR, sL, sR):
    # maximizing this equals minimizing weighted child Gini impurity
    return (sL * sL + (nL - sL) * (nL - sL)) / nL + (sR * sR + (nR - sR) * (nR - sR)) / nR


def _score_sse(nL, nR, sL, sR):
    # maximizing this equals minimizing the within-child sum of squares
    return sL * sL / nL + sR * sR / nR


def split_gain_grad(g_left, h_left, g_right, h_right, lam, gamma):
    """Regularized second-order split gain; positive means worth splitting."""
    total_g = g_left + g_right
    total_h = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - total_g * total_g / (total_h + lam)
    ) - gamma


def leaf_weight_grad(g_sum, h_sum, lam):
    """Optimal leaf score -G/(H + lambda) for the second-order objective."""
    return -g_sum / (h_sum + lam)


def _find_split(Xn, a, b, objective, min_leaf, lam, gamma):
    """Best (feature j within Xn, threshold, gain) or None."""
    m = Xn.shape[0]
    if m < 2 * min_leaf or m < 2:
        return None
    xs, sL_a, sL_b, tot_a, tot_b = _boundary_stats(Xn, a, b)
    nL = np.arange(1, m, dtype=float).reshape(-1, 1)
    nR = m - nL
    valid = xs[:-1] < xs[1:]
    valid &= (nL >= min_leaf) & (nR >= min_leaf)
    if not valid.any():
        return None

    if objective == "gini":
        score = _score_two_class(nL, nR, sL_a, tot_a - sL_a)
        total = float(tot_a[0])
        parent = (total * total + (m - total) * (m - total)) / m
        gain = (score - parent) / m
        floor = 1e-12
    elif objective == "mse":
        score = _score_sse(nL, nR, sL_a, tot_a - sL_a)
        total = float(tot_a[0])
        parent = total * total / m
        gain = (score - parent) / m
        floor = 1e-12 * max(1.0, abs(parent) / m)
    elif objective == "grad":
        gain = split_gain_grad(sL_a, sL_b, tot_a - sL_a, tot_b - sL_b, lam, gamma)
        floor = 0.0
    else:
        raise ValueError("unknown objective %r" % objective)

    gain = np.where(valid, gain, -np.inf)
    flat = int(np.argmax(gain))
    i, j = divmod(flat, Xn.shape[1])
    best_gain = float(gain[i, j])
    if not best_gain > floor:
        return None
    lo, hi = xs[i, j], xs[i + 1, j]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # adjacent floats; keep the exact partition
        threshold = lo
    return j, float(threshold), best_gain


def _leaf_value(objective, a, b, lam):
    if objective == "grad":
        return leaf_weight_grad(float(np.sum(a)), float(np.sum(b)), lam)
    return float(np.mean(a))


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
    """Grow a CART tree greedily. `a` is the target (y, residuals, or
    gradients); `b` is the hessian column for the "grad" objective.

    Built iteratively with an explicit stack so fully grown trees cannot
    hit the interpreter recursion limit. A node is numbered when it is
    popped; the left child is popped right after its parent, so the
    numbering is preorder, left child first, and a right child fills in
    its parent's `right` when its turn comes.
    """
    X = np.asarray(X, dtype=float)
    a = np.asarray(a, dtype=float)
    if b is not None:
        b = np.asarray(b, dtype=float)
    n, p = X.shape
    use_mtry = mtry is not None and mtry < p
    if use_mtry and rng is None:
        raise ValueError("mtry sampling needs an rng")

    nodes = []  # v1 node records, in the order they are numbered
    stack = [(np.arange(n), 0, None)]  # rows, depth, parent awaiting its right child
    while stack:
        idx, depth, parent = stack.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        a_n = a[idx]
        b_n = None if b is None else b[idx]
        node = {"value": _leaf_value(objective, a_n, b_n, lam), "n": len(idx)}
        nodes.append(node)
        if max_depth is not None and depth >= max_depth:
            continue
        if objective in ("gini", "mse") and np.ptp(a_n) == 0.0:
            continue  # pure node, zero gain everywhere

        if use_mtry:
            cols = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            cols = np.arange(p)
        found = _find_split(X[np.ix_(idx, cols)], a_n, b_n, objective, min_leaf, lam, gamma)
        if found is None:
            continue
        j, threshold, gain = found
        node.update(feature=int(cols[j]), threshold=threshold, gain=gain,
                    left=len(nodes), right=-1)
        mask = X[idx, node["feature"]] <= threshold
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, None))
    return tree_from_flat(nodes)


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


# (row x tree) cells of one BitVectorTrees scoring block. It bounds the mask
# and leaf-number matrices of a block (one byte a cell for trees of up to 8
# leaves); smaller blocks pay more numpy calls per row, since the sum over
# trees is one call per tree and block
SCORE_CELLS = 1 << 18

MASK_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@dataclass(eq=False)
class BitVectorTrees:
    """An ensemble of trees of at most 64 leaves in the QuickScorer bit-vector
    form (Lucchese et al., SIGIR 2015; Dato et al., TOIS 2016).

    A tree's leaves are numbered left to right, i.e. by preorder rank among
    leaves, and bit i of the tree's mask stands for leaf i. A node whose test
    fails clears the bits of its left subtree's leaves, and the exit leaf is
    the lowest bit left set. features[f] is a feature some node splits on,
    thresholds[f] the sorted thresholds of all its nodes in all trees, and
    row k of tables[f], shape (len(thresholds[f]) + 1, n_trees), the AND per
    tree of the clear masks of the k lowest of them. values is
    (n_trees, mask bits), leaf values in leaf order, and dtype the unsigned
    integer type of the masks.
    """

    features: list[int]
    thresholds: list[np.ndarray]
    tables: list[np.ndarray]
    values: np.ndarray
    dtype: type

    def score(self, X, base: float, rate: float) -> np.ndarray:
        """base + rate * v_0 + rate * v_1 + ... per row, added in tree order,
        where v_t is the leaf value tree t routes the row to.

        searchsorted(side="left") counts the thresholds strictly below x, so
        x == t passes a test and NaN, sorted last, fails every one: the `<=`
        rule of tree_leaves, NaN going right.
        """
        X = np.asarray(X, dtype=float)
        scaled = rate * self.values  # the products the per-tree sum adds
        step = max(1, SCORE_CELLS // max(1, len(scaled)))
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], step):
            block = X[start:start + step]
            mask = np.full((block.shape[0], len(scaled)), np.iinfo(self.dtype).max, self.dtype)
            for j, thr, table in zip(self.features, self.thresholds, self.tables):
                mask &= table.take(np.searchsorted(thr, block[:, j], side="left"), axis=0)
            # the exit leaf's number is the count of zero bits below the lowest set one
            leaf = np.ascontiguousarray(np.bitwise_count((mask & (~mask + 1)) - 1).T)
            acc = np.full(block.shape[0], base)
            for values, rows in zip(scaled, leaf):
                acc += values.take(rows)
            out[start:start + step] = acc
        return out


def compile_trees(trees: list[Tree]) -> BitVectorTrees | None:
    """The BitVectorTrees form of `trees`, or None when a tree has more than
    64 leaves. The mask dtype is the narrowest that holds the widest tree."""
    is_leaf = [tree.left < 0 for tree in trees]
    width = max((int(leaf.sum()) for leaf in is_leaf), default=1)
    dtype = next((d for d in MASK_DTYPES if width <= np.iinfo(d).bits), None)
    if dtype is None:
        return None
    if not trees:
        return BitVectorTrees([], [], [], np.zeros((0, 1)), dtype)
    values = np.zeros((len(trees), width))
    node_tree, node_feature, node_threshold, node_mask = [], [], [], []
    for t, (tree, leaf) in enumerate(zip(trees, is_leaf)):
        values[t, :leaf.sum()] = tree.value[leaf]
        before = np.concatenate(([0], np.cumsum(leaf)))  # leaves ahead of each node
        internal = np.flatnonzero(~leaf)
        # a node's left subtree is nodes left..right-1 in preorder, so its
        # leaves are bits before[left] .. before[right]-1
        lo = before[tree.left[internal]].astype(np.uint64)
        span = before[tree.right[internal]].astype(np.uint64) - lo
        node_mask.append((~(((np.uint64(1) << span) - np.uint64(1)) << lo)).astype(dtype))
        node_tree.append(np.full(len(internal), t))
        node_feature.append(tree.feature[internal])
        node_threshold.append(tree.threshold[internal])
    node_tree, node_feature, node_threshold, node_mask = map(
        np.concatenate, (node_tree, node_feature, node_threshold, node_mask))
    features, thresholds, tables = [], [], []
    for j in np.unique(node_feature).tolist():
        sel = np.flatnonzero(node_feature == j)
        sel = sel[np.argsort(node_threshold[sel], kind="stable")]
        table = np.full((len(sel) + 1, len(trees)), np.iinfo(dtype).max, dtype=dtype)
        table[np.arange(1, len(sel) + 1), node_tree[sel]] = node_mask[sel]
        features.append(j)
        thresholds.append(node_threshold[sel])
        tables.append(np.bitwise_and.accumulate(table, axis=0))
    return BitVectorTrees(features, thresholds, tables, values, dtype)


def tree_to_flat(tree: Tree) -> list[dict]:
    """The v1 JSON node list: one record per node, in the arrays' order."""
    columns = zip(tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
                  tree.right.tolist(), tree.value.tolist(), tree.n.tolist(),
                  tree.gain.tolist())
    return [
        {"value": v, "n": n} if left < 0 else
        {"value": v, "n": n, "feature": f, "threshold": t, "gain": g,
         "left": left, "right": right}
        for f, t, left, right, v, n, g in columns
    ]


def tree_from_flat(nodes: list[dict]) -> Tree:
    """Arrays from v1 node records; left-out entries take LEAF_DEFAULTS."""
    return Tree(value=np.array([rec["value"] for rec in nodes], dtype=float),
                **{name: np.array([rec.get(name, default) for rec in nodes],
                                  dtype=type(default))
                   for name, default in LEAF_DEFAULTS.items()})


class DecisionTree(Predictor):
    """A single classification tree scoring leaf class-1 proportions."""

    model_kind = "tree"

    def __init__(self, tree: Tree, feature_names, max_depth=None, min_leaf=1,
                 objective="gini"):
        super().__init__(feature_names)
        self.tree = tree
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.objective = objective

    def predict_proba(self, X) -> np.ndarray:
        return predict_tree(self.tree, self._as_matrix(X))


def train_tree(X, y, max_depth=None, min_leaf=1, feature_names=None) -> DecisionTree:
    """Greedy best-split CART; stops on depth, min_leaf, or zero gain."""
    X = np.asarray(X, dtype=float)
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(X.shape[1])]
    tree = build_tree(X, np.asarray(y, dtype=float), objective="gini",
                      max_depth=max_depth, min_leaf=min_leaf)
    return DecisionTree(tree, feature_names, max_depth=max_depth, min_leaf=min_leaf)

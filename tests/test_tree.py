import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.models import train_tree
from scorekit.models.tree import (
    Tree,
    build_tree,
    predict_tree,
    tree_from_flat,
    tree_leaves,
    tree_to_flat,
)

TREE_ARRAYS = [f.name for f in dataclasses.fields(Tree)]


def gini_impurity(y):
    if len(y) == 0:
        return 0.0
    p = np.mean(y)
    return 2.0 * p * (1.0 - p)


def best_split_oracle(X, y):
    """Exhaustive search over every feature and every midpoint threshold."""
    n = len(y)
    parent = gini_impurity(y)
    best = None
    for j in range(X.shape[1]):
        vals = np.unique(X[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, j] <= thr
            nl = int(mask.sum())
            gain = parent - (nl / n) * gini_impurity(y[mask]) \
                - ((n - nl) / n) * gini_impurity(y[~mask])
            if best is None or gain > best[0] + 1e-15:
                best = (gain, j, thr)
    return best


class TestTrainTree:
    def test_separable_one_dim(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = train_tree(X, y, max_depth=1)
        tree = model.tree
        assert tree.left[0] >= 0
        assert -0.5 < tree.threshold[0] < 0.5
        assert model.predict_proba(X).tolist() == y.tolist()  # train accuracy 1.0

    def test_constant_target_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        model = train_tree(X, np.ones(10))
        assert model.tree.left[0] < 0
        assert model.tree.value[0] == 1.0

    def test_min_leaf_equal_n_gives_base_rate(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        model = train_tree(X, y, min_leaf=8)
        assert model.tree.left[0] < 0
        assert model.tree.value[0] == 0.5

    def test_split_matches_exhaustive_oracle(self, rng):
        for trial in range(25):
            n = int(rng.integers(6, 21))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.integers(0, 2, size=n).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            oracle = best_split_oracle(X, y)
            tree = build_tree(X, y, objective="gini", max_depth=1)
            if oracle is None or oracle[0] <= 1e-12:
                assert tree.left[0] < 0
                continue
            gain, j, thr = oracle
            assert tree.gain[0] == pytest.approx(gain, abs=1e-12)
            # same partition of rows even if an equal-gain split differs
            assert np.array_equal(X[:, tree.feature[0]] <= tree.threshold[0],
                                  X[:, j] <= thr) or tree.gain[0] == pytest.approx(gain, abs=1e-12)

    def test_regression_objective_means(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([1.0, 2.0, 9.0, 10.0])
        tree = build_tree(X, y, objective="mse", max_depth=1)
        assert tree.left[0] >= 0
        left = predict_tree(tree, np.array([[0.5]]))[0]
        right = predict_tree(tree, np.array([[10.5]]))[0]
        assert left == 1.5 and right == 9.5

    def test_depth_limit_respected(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, 200).astype(float)
        y[:2] = [0, 1]
        tree = build_tree(X, y, objective="gini", max_depth=2)

        def depth(k):
            if tree.left[k] < 0:
                return 0
            return 1 + max(depth(tree.left[k]), depth(tree.right[k]))

        assert depth(0) <= 2

    def test_min_leaf_respected(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, 100).astype(float)
        y[:2] = [0, 1]
        tree = build_tree(X, y, objective="gini", min_leaf=17)
        stack = [0]
        while stack:
            k = stack.pop()
            if tree.left[k] < 0:
                assert tree.n[k] >= 17
            else:
                stack.extend((tree.left[k], tree.right[k]))

    def test_deterministic(self, rng):
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 2, 80).astype(float)
        y[:2] = [0, 1]
        a = train_tree(X, y, max_depth=5)
        b = train_tree(X, y, max_depth=5)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_flat_round_trip(self, rng):
        X = rng.normal(size=(120, 3))
        y = rng.integers(0, 2, 120).astype(float)
        y[:2] = [0, 1]
        tree = build_tree(X, y, objective="gini")
        clone = tree_from_flat(tree_to_flat(tree))
        assert np.array_equal(predict_tree(tree, X), predict_tree(clone, X))
        for name in TREE_ARRAYS:
            assert getattr(clone, name).tobytes() == getattr(tree, name).tobytes(), name

    def test_duplicate_feature_values_never_split_apart(self):
        # rows with identical feature values must land in the same leaf
        X = np.array([[1.0], [1.0], [1.0], [2.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        tree = build_tree(X, y, objective="gini")
        preds = predict_tree(tree, X)
        assert preds[0] == preds[1] == preds[2]
        assert preds[3] == preds[4]


def reference_leaf(nodes, x):
    """Walk the v1 node records for one row: <= goes left, NaN goes right."""
    k = 0
    while "feature" in nodes[k]:
        rec = nodes[k]
        k = rec["left"] if x[rec["feature"]] <= rec["threshold"] else rec["right"]
    return k


@st.composite
def grown_trees_and_rows(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 3))
    # a coarse grid makes ties; one row gives a single-leaf tree
    X = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float) / 2.0
    objective = draw(st.sampled_from(["gini", "mse", "grad"]))
    if objective == "gini":
        a = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    else:
        a = np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
    b = np.full(n, 0.25) if objective == "grad" else None
    tree = build_tree(X, a, b, objective=objective,
                      max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
                      min_leaf=draw(st.integers(1, 3)), lam=1.0)
    # query cells: the tree's own thresholds (must go left), NaN (must go
    # right), +-inf and grid values
    special = sorted(set(tree.threshold[tree.left >= 0].tolist())) + [
        np.nan, np.inf, -np.inf, 0.0, 0.25, -1.75]
    m = draw(st.integers(0, 25))
    Q = np.array(draw(st.lists(st.lists(st.sampled_from(special), min_size=p, max_size=p),
                               min_size=m, max_size=m)), dtype=float).reshape(m, p)
    return tree, X, Q


@settings(deadline=None, max_examples=200)
@given(case=grown_trees_and_rows())
def test_predict_matches_reference_walk(case):
    tree, X, Q = case
    # the training rows reach each leaf in the numbers the grower counted
    leaves = np.flatnonzero(tree.left < 0)
    counts = np.bincount(tree_leaves(tree, X), minlength=len(tree.n))
    assert counts[leaves].tolist() == tree.n[leaves].tolist()
    nodes = tree_to_flat(tree)
    expected = np.array([reference_leaf(nodes, row) for row in Q], dtype=np.int64)
    assert tree_leaves(tree, Q).tobytes() == expected.tobytes()
    values = np.array([nodes[k]["value"] for k in expected], dtype=float)
    assert predict_tree(tree, Q).tobytes() == values.tobytes()
    for clone in (tree_from_flat(nodes), tree_from_flat(json.loads(json.dumps(nodes)))):
        for name in TREE_ARRAYS:
            assert getattr(clone, name).dtype == getattr(tree, name).dtype, name
            assert getattr(clone, name).tobytes() == getattr(tree, name).tobytes(), name


def test_threshold_ties_go_left_and_nan_goes_right():
    tree = build_tree(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), max_depth=1)
    thr = tree.threshold[0]
    Q = np.array([[thr], [np.nextafter(thr, np.inf)], [np.nan], [-np.inf], [np.inf]])
    assert tree_leaves(tree, Q).tolist() == [1, 2, 2, 1, 2]
    assert predict_tree(tree, Q).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]

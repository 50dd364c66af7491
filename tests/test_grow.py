"""Trees grown side by side or level by level, with one batched split
search, against trees grown one node at a time by the per-node reference
grower below; boosted models grown on one rank table per fit against the
per-round copies of X they were once grown on."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.models import train_gbm, train_random_forest, train_xgb
from scorekit.models import tree as tree_module
from scorekit.models.boosting import LEAF_CLIP, log_loss, log_odds
from scorekit.models.base import sigmoid
from scorekit.models.tree import (
    RankTable,
    Tree,
    build_tree,
    grow_trees,
    leaf_weight_grad,
    predict_tree,
    tree_leaves,
)

from conftest import split_gain_grad, tree_from_records

TREE_ARRAYS = [f.name for f in dataclasses.fields(Tree)]


def reference_split(Xn, a, b, objective, min_leaf, lam, gamma):
    """Best (column of Xn, threshold, gain) of one node, or None: a stable
    argsort per column, cumulative sums, and np.argmax over the
    (boundary, column) gains."""
    m = Xn.shape[0]
    if m < 2 * min_leaf or m < 2:
        return None
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ca = np.cumsum(a[order], axis=0)
    sL, tot = ca[:-1], ca[-1]
    nL = np.arange(1, m, dtype=float).reshape(-1, 1)
    nR = m - nL
    valid = (xs[:-1] < xs[1:]) & (nL >= min_leaf) & (nR >= min_leaf)
    if not valid.any():
        return None
    sR = tot - sL
    total = float(tot[0])
    if objective == "gini":
        score = (sL * sL + (nL - sL) * (nL - sL)) / nL + (sR * sR + (nR - sR) * (nR - sR)) / nR
        gain = (score - (total * total + (m - total) * (m - total)) / m) / m
        floor = 1e-12
    elif objective == "mse":
        parent = total * total / m
        gain = (sL * sL / nL + sR * sR / nR - parent) / m
        floor = 1e-12 * max(1.0, abs(parent) / m)
    else:
        cb = np.cumsum(b[order], axis=0)
        gain = split_gain_grad(sL, cb[:-1], sR, cb[-1] - cb[:-1], lam, gamma)
        floor = 0.0
    gain = np.where(valid, gain, -np.inf)
    i, j = divmod(int(np.argmax(gain)), Xn.shape[1])
    best = float(gain[i, j])
    if not best > floor:
        return None
    lo, hi = xs[i, j], xs[i + 1, j]
    threshold = (lo + hi) / 2.0
    return j, float(threshold if lo <= threshold < hi else lo), best


def reference_tree(X, a, b=None, objective="gini", max_depth=None, min_leaf=1,
                   mtry=None, rng=None, lam=0.0, gamma=0.0) -> Tree:
    """Level by level, one node and one search at a time, then put in
    preorder. With mtry < p, the nodes of a level that are searched (not
    capped, pure or too small) draw their columns in one call, row i of
    rng.random((searched, p)).argsort(axis=1, kind="stable")[:, :mtry] for
    the level's i-th searched node from the left."""
    n, p = X.shape
    root = {"idx": np.arange(n)}
    level, depth = [root], 0
    while level:
        searched = []
        for node in level:
            idx = node["idx"]
            a_n = a[idx]
            if objective == "grad":
                node["value"] = leaf_weight_grad(float(np.sum(a_n)), float(np.sum(b[idx])), lam)
            else:
                node["value"] = float(np.mean(a_n))
            node["n"] = len(idx)
            if ((max_depth is None or depth < max_depth)
                    and (objective == "grad" or np.ptp(a_n) != 0.0)
                    and len(idx) >= max(2 * min_leaf, 2)):
                searched.append(node)
        if mtry is not None and mtry < p and searched:
            draws = np.sort(rng.random((len(searched), p)).argsort(axis=1, kind="stable")[:, :mtry],
                            axis=1)
        else:
            draws = [np.arange(p)] * len(searched)
        level, depth = [], depth + 1
        for node, cols in zip(searched, draws):
            idx = node["idx"]
            found = reference_split(X[np.ix_(idx, cols)], a[idx], None if b is None else b[idx],
                                    objective, min_leaf, lam, gamma)
            if found is None:
                continue
            j, threshold, gain = found
            node.update(feature=int(cols[j]), threshold=threshold, gain=gain)
            mask = X[idx, node["feature"]] <= threshold
            node["children"] = ({"idx": idx[mask]}, {"idx": idx[~mask]})
            level += node["children"]
    records, stack = [], [(root, None)]
    while stack:
        node, right_of = stack.pop()
        if right_of is not None:
            right_of["right"] = len(records)
        record = {key: node[key] for key in ("value", "n", "feature", "threshold", "gain")
                  if key in node}
        records.append(record)
        if "children" in node:
            record["left"] = len(records)
            left, right = node["children"]
            stack += [(right, record), (left, None)]
    return tree_from_records(records)


def assert_same_tree(tree, expected):
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


# a coarse grid makes ties within and across columns; -0.0 ties with 0.0
GRID = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, np.nan])


@st.composite
def forest_cases(draw):
    n = draw(st.integers(2, 50))
    p = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(GRID, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    params = dict(
        n_trees=draw(st.integers(1, 6)),
        mtry=draw(st.integers(1, p)),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 5))),
        min_leaf=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 50)),
    )
    return X, y, params, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 7, 64, None]))


@settings(deadline=None, max_examples=120)
@given(case=forest_cases())
def test_forest_equals_trees_grown_one_at_a_time(case):
    X, y, params, threads, cap = case
    saved = tree_module.SPLIT_CELLS
    # small caps cut a frontier into many chunks, down to one node each
    tree_module.SPLIT_CELLS = cap or saved
    try:
        forest = train_random_forest(X, y, threads=threads, **params)
    finally:
        tree_module.SPLIT_CELLS = saved
    assert len(forest.trees) == params["n_trees"]
    n = len(y)
    for t, tree in enumerate(forest.trees):
        rng = np.random.default_rng((params["seed"], t))
        rows = rng.integers(0, n, size=n)
        expected = reference_tree(X[rows], y[rows], max_depth=params["max_depth"],
                                  min_leaf=params["min_leaf"], mtry=params["mtry"], rng=rng)
        assert_same_tree(tree, expected)


def tree_depth(tree) -> int:
    depth, stack = 0, [(0, 0)]
    while stack:
        k, d = stack.pop()
        depth = max(depth, d)
        if tree.left[k] >= 0:
            stack += [(tree.left[k], d + 1), (tree.right[k], d + 1)]
    return depth


def test_forest_draws_once_per_tree_and_level(monkeypatch):
    class Counting:
        """A generator that counts the calls made to it."""

        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            def counted(*args, **kwargs):
                self.calls += 1
                return getattr(self.rng, name)(*args, **kwargs)
            return counted

    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(Counting(real(seed))) or made[-1])
    rng = real(7)
    X = rng.normal(size=(300, 6))
    y = (X[:, 0] + rng.normal(size=300) > 0).astype(float)
    forest = train_random_forest(X, y, n_trees=5, seed=2)
    assert len(made) == len(forest.trees)
    for spy, tree in zip(made, forest.trees):
        bound = 1 + tree_depth(tree) + 1  # the bootstrap, then one draw per level at most
        assert spy.calls <= bound
        # one draw per node that splits would be over it
        assert int((tree.left >= 0).sum()) > 2 * bound


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_a_tree_does_not_depend_on_the_trees_beside_it(threads):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 5))
    y = (X[:, 0] - X[:, 2] + rng.normal(size=150) > 0).astype(float)
    few = train_random_forest(X, y, n_trees=3, seed=4, threads=threads)
    many = train_random_forest(X, y, n_trees=8, seed=4, threads=threads)
    for t in range(3):
        assert_same_tree(few.trees[t], many.trees[t])


@st.composite
def float_target_cases(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(GRID, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    # a few distinct values make equal sums and equal gains
    a = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, -1.5]), st.floats(-3, 3)),
                               min_size=n, max_size=n)))
    objective = draw(st.sampled_from(["mse", "grad"]))
    lam = draw(st.sampled_from([0.0, 1.0, 0.37]))
    # a zero hessian only where lam keeps every leaf weight finite; any
    # other float makes sums that round differently when added out of order
    hessians = st.one_of(st.sampled_from([0.0, 0.1, 0.25] if lam else [0.1, 0.25]),
                         st.floats(0.01, 0.3))
    b = (np.array(draw(st.lists(hessians, min_size=n, max_size=n)))
         if objective == "grad" else None)
    params = dict(objective=objective,
                  max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
                  min_leaf=draw(st.integers(1, 3)),
                  lam=lam,
                  gamma=draw(st.sampled_from([0.0, 0.01])))
    return X, a, b, params


@settings(deadline=None, max_examples=120)
@given(case=float_target_cases())
def test_mse_and_grad_trees_equal_one_node_at_a_time(case):
    X, a, b, params = case
    assert_same_tree(build_tree(X, a, b, **params), reference_tree(X, a, b, **params))



@st.composite
def subset_cases(draw):
    """float_target_cases on a shared X, with root rows (repeats allowed, in
    any order) and ascending candidate columns of it."""
    X, a, b, params = draw(float_target_cases())
    n, p = X.shape
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    cols = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    return X, a, b, params, rows, cols


@settings(deadline=None, max_examples=120)
@given(case=subset_cases())
def test_trees_on_a_shared_table_equal_the_reference_on_its_slice(case):
    X, a, b, params, rows, cols = case
    leaf_of = np.empty(len(rows), dtype=np.int64)
    tree, = grow_trees(RankTable(X), a, b, [rows], [None], cols=cols, leaf_of=leaf_of,
                       **params)
    expected = reference_tree(X[np.ix_(rows, cols)], a[rows],
                              None if b is None else b[rows], **params)
    internal = expected.left >= 0
    expected.feature[internal] = cols[expected.feature[internal]]
    assert_same_tree(tree, expected)
    # the grower's leaves are where the rows walk to
    assert np.array_equal(leaf_of, tree_leaves(tree, X[rows]))


def old_path_boosting(variant, X, y, n_trees, learning_rate, max_depth, min_leaf=1, lam=0.0,
                      gamma=0.0, subsample=1.0, colsample=1.0, seed=0):
    """(trees, feature gains, losses) of a boosted fit as it was once made:
    each round's tree grown on its own copy X[np.ix_(rows, cols)], its
    features mapped back through cols, gbm leaves found by a walk over the
    copy and every row's score update by a walk over X."""
    n, p = X.shape
    score = np.full(n, log_odds(float(np.mean(y))))
    trees, losses, gains = [], [], np.zeros(p)
    for t in range(n_trees):
        prob = sigmoid(score)
        rng = np.random.default_rng((seed, t))
        rows = (np.arange(n) if subsample >= 1.0 else
                np.sort(rng.choice(n, size=max(1, int(round(subsample * n))), replace=False)))
        if variant == "gbm":
            resid = y - prob
            Xs = X[rows]
            tree = build_tree(Xs, resid[rows], objective="mse", max_depth=max_depth,
                              min_leaf=min_leaf)
            weight, r_sub, leaf_of = (prob * (1.0 - prob))[rows], resid[rows], tree_leaves(tree, Xs)
            for k in np.flatnonzero(tree.left < 0):
                idx = np.flatnonzero(leaf_of == k)
                num, den = float(np.sum(r_sub[idx])), float(np.sum(weight[idx]))
                tree.value[k] = ((0.0 if num == 0.0 else np.copysign(LEAF_CLIP, num))
                                 if den <= 1e-12 else num / den)
        else:
            cols = (np.sort(rng.choice(p, size=max(1, int(round(colsample * p))), replace=False))
                    if colsample < 1.0 else np.arange(p))
            tree = build_tree(X[np.ix_(rows, cols)], (prob - y)[rows], (prob * (1.0 - prob))[rows],
                              objective="grad", max_depth=max_depth, min_leaf=1, lam=lam,
                              gamma=gamma)
            internal = tree.left >= 0
            tree.feature[internal] = cols[tree.feature[internal]]
            stack = [0]
            while stack:
                k = stack.pop()
                if internal[k]:
                    gains[tree.feature[k]] += tree.gain[k]
                    stack += (tree.left[k], tree.right[k])
        trees.append(tree)
        score = score + learning_rate * predict_tree(tree, X)
        losses.append(log_loss(y, sigmoid(score)))
    return trees, gains, losses


@st.composite
def boosting_cases(draw):
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(GRID, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    variant = draw(st.sampled_from(["gbm", "xgb"]))
    params = dict(n_trees=draw(st.integers(1, 6)),
                  learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
                  max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
                  subsample=draw(st.sampled_from([0.3, 0.8, 1.0])),
                  seed=draw(st.integers(0, 20)))
    if variant == "gbm":
        params["min_leaf"] = draw(st.integers(1, 5))
    else:
        params.update(lam=draw(st.sampled_from([0.0, 1.0, 0.37])),
                      gamma=draw(st.sampled_from([0.0, 0.01])),
                      colsample=draw(st.sampled_from([0.4, 0.7, 1.0])))
    return variant, X, y, params


@settings(deadline=None, max_examples=80)
@given(case=boosting_cases())
def test_boosted_models_equal_the_per_round_copy_path(case):
    variant, X, y, params = case
    model = (train_gbm if variant == "gbm" else train_xgb)(X, y, **params)
    trees, gains, losses = old_path_boosting(variant, X, y, **params)
    assert len(model.trees) == len(trees)
    for tree, expected in zip(model.trees, trees):
        assert_same_tree(tree, expected)
    assert np.asarray(model.train_loss_).tobytes() == np.asarray(losses).tobytes()
    if variant == "xgb":
        assert model.feature_gain_.tobytes() == gains.tobytes()


@pytest.mark.parametrize("variant", ["gbm", "xgb"])
def test_one_rank_table_per_fit_and_one_search_per_level(monkeypatch, variant):
    calls = {"_column_ranks": 0, "_split_frontier": 0}
    for name in calls:
        def counted(*args, _fn=getattr(tree_module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tree_module, name, counted)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=200) > 0).astype(float)
    n_trees, max_depth = 8, 3
    extra = dict(min_leaf=5) if variant == "gbm" else dict(colsample=0.75)
    model = (train_gbm if variant == "gbm" else train_xgb)(
        X, y, n_trees=n_trees, max_depth=max_depth, subsample=0.8, **extra)
    assert calls["_column_ranks"] == 1
    # a level of 160 rows x 4 columns fits one search: one per depth, at most
    assert n_trees <= calls["_split_frontier"] <= n_trees * max_depth
    # the trees are deep enough for depth-first growth to need more searches
    assert sum(int((tree.left >= 0).sum()) for tree in model.trees) > n_trees * max_depth

"""Trees grown side by side, with one batched split search, against trees
grown one node at a time by the per-node reference grower below."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.models import train_random_forest
from scorekit.models import tree as tree_module
from scorekit.models.tree import (
    Tree,
    build_tree,
    leaf_weight_grad,
    split_gain_grad,
)

from conftest import tree_from_records

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
    return j, float(threshold if threshold < hi else lo), best


def reference_tree(X, a, b=None, objective="gini", max_depth=None, min_leaf=1,
                   mtry=None, rng=None, lam=0.0, gamma=0.0) -> Tree:
    """Depth first from a stack, one node and one search at a time."""
    n, p = X.shape
    nodes = []
    stack = [(np.arange(n), 0, None)]
    while stack:
        idx, depth, parent = stack.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        a_n = a[idx]
        if objective == "grad":
            value = leaf_weight_grad(float(np.sum(a_n)), float(np.sum(b[idx])), lam)
        else:
            value = float(np.mean(a_n))
        node = {"value": value, "n": len(idx)}
        nodes.append(node)
        if max_depth is not None and depth >= max_depth:
            continue
        if objective != "grad" and np.ptp(a_n) == 0.0:
            continue
        cols = (np.sort(rng.choice(p, size=mtry, replace=False))
                if mtry is not None and mtry < p else np.arange(p))
        found = reference_split(X[np.ix_(idx, cols)], a_n, None if b is None else b[idx],
                                objective, min_leaf, lam, gamma)
        if found is None:
            continue
        j, threshold, gain = found
        node.update(feature=int(cols[j]), threshold=threshold, gain=gain,
                    left=len(nodes), right=-1)
        mask = X[idx, node["feature"]] <= threshold
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, None))
    return tree_from_records(nodes)


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
    lam = draw(st.sampled_from([0.0, 1.0]))
    # a zero hessian only where lam keeps every leaf weight finite
    hessians = st.sampled_from([0.0, 0.1, 0.25] if lam else [0.1, 0.25])
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


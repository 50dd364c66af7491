import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.models import (
    BoostedModel,
    DecisionTree,
    ForestModel,
    Predictor,
    train_gbm,
    train_random_forest,
    train_tree,
    train_xgb,
)
from scorekit.models import tree as tree_module
from scorekit.models.tree import (
    Tree,
    build_tree,
    predict_tree,
    tree_leaves,
)

from conftest import tree_from_records


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

    def test_duplicate_feature_values_never_split_apart(self):
        # rows with identical feature values must land in the same leaf
        X = np.array([[1.0], [1.0], [1.0], [2.0], [2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        tree = build_tree(X, y, objective="gini")
        preds = predict_tree(tree, X)
        assert preds[0] == preds[1] == preds[2]
        assert preds[3] == preds[4]


def reference_leaf(tree, x):
    """Walk the tree's arrays for one row: <= goes left, NaN goes right."""
    k = 0
    while tree.left[k] >= 0:
        k = tree.left[k] if x[tree.feature[k]] <= tree.threshold[k] else tree.right[k]
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
    expected = np.array([reference_leaf(tree, row) for row in Q], dtype=np.int64)
    assert tree_leaves(tree, Q).tobytes() == expected.tobytes()
    values = np.array([tree.value[k] for k in expected], dtype=float)
    assert predict_tree(tree, Q).tobytes() == values.tobytes()


def test_split_between_infinities_keeps_its_partition():
    # the midpoint of -inf and inf is NaN, which sent every row right
    X = np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = train_tree(X, y, max_depth=1)
    assert model.tree.threshold[0] == -np.inf
    Q = np.vstack([X, [[0.0], [np.nan]]])
    assert predict_tree(model.tree, Q).tolist() == [0.0, 1.0, 0.0, 1.0, 1.0, 1.0]
    assert model.predict_proba(Q).tobytes() == predict_tree(model.tree, Q).tobytes()


def test_split_between_large_negatives_keeps_its_partition():
    # the midpoint of two large negatives overflows to -inf, which sent the
    # rows grown on the left side right
    X = np.array([[-1.7e308], [-1e308], [-1.7e308], [-1e308]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    model = train_tree(X, y, max_depth=1)
    assert model.tree.threshold[0] == -1.7e308
    assert predict_tree(model.tree, X).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_threshold_ties_go_left_and_nan_goes_right():
    tree = build_tree(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), max_depth=1)
    thr = tree.threshold[0]
    Q = np.array([[thr], [np.nextafter(thr, np.inf)], [np.nan], [-np.inf], [np.inf]])
    assert tree_leaves(tree, Q).tolist() == [1, 2, 2, 1, 2]
    assert predict_tree(tree, Q).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
LEAF_VALUES = [0.0, -0.0, 0.5, 1.0, 0.1, 0.7, 1e-9, -3.25e4, 123.456]


def grid_tree(rng, n_leaves, n_features) -> Tree:
    """A random tree of exactly n_leaves leaves, split on the coarse GRID so
    that thresholds tie within and across trees. Leaf values mix 0/1, 0.5,
    -0.0 and magnitudes far apart, so that the order of a sum over trees
    shows in the last bits."""
    nodes = []
    pending = [(n_leaves, None)]  # leaves to place, parent awaiting its right child
    while pending:
        k, parent = pending.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        value = rng.choice(LEAF_VALUES) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
        rec = {"value": float(value), "n": 0}
        nodes.append(rec)
        if k > 1:
            left = int(rng.integers(1, k))
            rec.update(feature=int(rng.integers(n_features)), threshold=float(rng.choice(GRID)),
                       gain=0.0, left=len(nodes), right=-1)
            pending += [(k - left, rec), (left, None)]
    return tree_from_records(nodes)


def layout_bytes(trees, size) -> int:
    """Bytes of the compiled tables of `trees` in groups of `size`, counted
    group by group: per feature a group splits on, its nodes on it plus one
    rows of the widest tree's words for each tree of the group and, with
    more than one group, a row index of one entry per node on that feature
    in all trees, plus one."""
    width = max(int((t.left < 0).sum()) for t in trees)
    word_bytes = 8 * -(-width // 64) if width > 64 else next(b for b in (1, 2, 4, 8)
                                                             if width <= 8 * b)
    on_feature = {}
    for t in trees:
        for f in t.feature[t.left >= 0].tolist():
            on_feature[f] = on_feature.get(f, 0) + 1
    index_bytes = np.min_scalar_type(max(on_feature.values(), default=0)).itemsize
    total = 0
    for first in range(0, len(trees), size):
        group = trees[first:first + size]
        on_group = {}
        for t in group:
            for f in t.feature[t.left >= 0].tolist():
                on_group[f] = on_group.get(f, 0) + 1
        for f, count in on_group.items():
            total += (count + 1) * len(group) * word_bytes
            if size < len(trees):
                total += (on_feature[f] + 1) * index_bytes
    return total


def smallest_layout_bytes(trees) -> int:
    return min(layout_bytes(trees, size) for size in range(1, len(trees) + 1))


def reference_score(kind, trees, X):
    """Every family's score from per-tree predict_tree walks, as each family
    scored before the shared scorer: the forest's vote loop, the boosted
    per-tree sum and the single tree's leaf values."""
    if kind == "tree":
        return predict_tree(trees[0], X)
    if kind == "boosted":
        score = np.full(X.shape[0], 0.25)
        for tree in trees:
            score += 0.3 * predict_tree(tree, X)
        return 1.0 / (1.0 + np.exp(-np.clip(score, -45.0, 45.0)))
    votes = np.zeros(X.shape[0])
    for tree in trees:
        votes += predict_tree(tree, X)
    return votes / len(trees)


def make_model(kind, trees, p):
    names = ["x%d" % j for j in range(p)]
    if kind == "tree":
        return DecisionTree(trees[0], names)
    if kind == "boosted":
        return BoostedModel(0.25, trees, 0.3, names)
    return ForestModel(trees, names, mtry=1, seed=0)


@st.composite
def scored_models(draw):
    kind = draw(st.sampled_from(["tree", "forest", "boosted"]))
    split_on = draw(st.integers(1, 3))
    p = split_on + draw(st.integers(0, 2))  # trailing features no tree splits on
    leaves = st.one_of(st.integers(1, 300),
                       st.sampled_from([1, 2, 64, 65, 128, 129, 192, 193, 256, 257, 300]))
    n_trees = 1 if kind == "tree" else draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    widths = [draw(leaves) for _ in range(n_trees)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    trees = [grid_tree(rng, k, split_on) for k in widths]
    cells = np.array([np.nan, np.inf, -np.inf, 0.25, -2.0, 2.0] + GRID)
    X = rng.choice(cells, size=(draw(st.integers(0, 40)), p))
    # the budget around the smallest layout's bytes, or the default
    factor = draw(st.sampled_from([0.9, 1.0, 2.5, 8.0, None]))
    budget = (tree_module.TABLE_BYTES if factor is None
              else int(factor * smallest_layout_bytes(trees)))
    return kind, trees, p, X, budget, draw(st.sampled_from([1, 7, 64, tree_module.SCORE_CELLS]))


@settings(deadline=None, max_examples=200)
@given(case=scored_models())
def test_shared_scorer_matches_per_tree_walk(case):
    kind, trees, p, X, budget, cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "TABLE_BYTES", budget)  # groups split, or the walk
        mp.setattr(tree_module, "SCORE_CELLS", cells)  # blocks of a few rows
        model = make_model(kind, trees, p)
        compiled = model.bit_trees
        # the walk stands in exactly when no group size fits the budget, and
        # otherwise the groups are as large as fit
        fits = [size for size in range(1, len(trees) + 1) if layout_bytes(trees, size) <= budget]
        assert (compiled is None) == (not fits)
        if compiled is not None:
            assert compiled.group_size == max(fits)
            assert compiled.nbytes == layout_bytes(trees, compiled.group_size)
            assert compiled.words == -(-max(int((t.left < 0).sum()) for t in trees) // 64)
            assert len(compiled.groups) == -(-len(trees) // compiled.group_size)
        assert model.predict_proba(X).tobytes() == reference_score(kind, trees, X).tobytes()


@st.composite
def variant_cases(draw):
    """A tree, forest, gbm or xgb model of random trees (some of more than 64
    leaves), rows of NaN, +-inf and threshold values, and runs of
    substitutions as the explainers make them: constant and per-row values,
    one or several columns, columns no tree splits on, and column sets that
    repeat across runs."""
    kind = draw(st.sampled_from(["tree", "forest", "gbm", "xgb"]))
    split_on = draw(st.integers(1, 4))
    p = split_on + draw(st.integers(0, 2))  # trailing features no tree splits on
    leaves = st.one_of(st.integers(1, 12), st.sampled_from([64, 65, 130]))
    n_trees = 1 if kind == "tree" else draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    trees = [grid_tree(rng, draw(leaves), split_on) for _ in range(n_trees)]
    cells = np.array([np.nan, np.inf, -np.inf, 0.25, -2.0, 2.0] + GRID)
    n = draw(st.sampled_from([0, 1, 1, 2, 9, 40]))
    X = rng.choice(cells, size=(n, p))
    runs = []
    for _ in range(draw(st.integers(0, 4))):
        if runs and draw(st.booleans()):
            columns = draw(st.sampled_from([columns for columns, _ in runs]))
        else:
            columns = draw(st.permutations(range(p)))[:draw(st.integers(1, p))]
        rows = n if draw(st.booleans()) else 1  # per-row values, or one row for all
        runs.append((columns, rng.choice(cells, size=(draw(st.integers(1, 4)), rows,
                                                      len(columns)))))
    factor = draw(st.sampled_from([0, 1.0, 2.5, None]))
    budget = (tree_module.TABLE_BYTES if factor is None
              else int(factor * smallest_layout_bytes(trees)))
    return kind, trees, X, runs, budget, draw(st.sampled_from([1, 7, 64, 300]))


@settings(deadline=None, max_examples=150)
@given(case=variant_cases())
def test_predict_variants_matches_stacked_predict_proba(case):
    kind, trees, X, runs, budget, cells = case
    names = ["x%d" % j for j in range(X.shape[1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "TABLE_BYTES", budget)  # groups split, or the walk
        mp.setattr(tree_module, "SCORE_CELLS", cells)  # blocks split runs of variants
        if kind == "tree":
            model = DecisionTree(trees[0], names)
        elif kind == "forest":
            model = ForestModel(trees, names, mtry=1, seed=0)
        else:
            model = BoostedModel(0.25, trees, 0.3, names, variant=kind)
        scores = model.predict_variants(X, runs)
        assert (model.bit_trees is None) == (budget < smallest_layout_bytes(trees))
    assert scores.shape == (sum(len(values) for _, values in runs), X.shape[0])
    assert scores.tobytes() == Predictor.predict_variants(model, X, runs).tobytes()


def test_over_budget_forest_walks_to_the_same_bytes():
    # eight trees of 4,000 leaves need 63 words a tree: their tables take
    # 16 MB at the least, past the default budget
    rng = np.random.default_rng(7)
    trees = [grid_tree(rng, 4000, 3) for _ in range(8)]
    X = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.25, -2.0, 2.0] + GRID), size=(300, 3))
    forest = make_model("forest", trees, 3)
    assert smallest_layout_bytes(trees) > tree_module.TABLE_BYTES
    assert forest.bit_trees is None
    assert forest.predict_proba(X).tobytes() == reference_score("forest", trees, X).tobytes()
    # under any budget the tables stay within it, or the model walks
    sizes = set()
    for budget in [2 ** k for k in range(16, 26)]:
        forest = make_model("forest", trees, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_module, "TABLE_BYTES", budget)
            compiled = forest.bit_trees
        if compiled is None:
            assert smallest_layout_bytes(trees) > budget
            continue
        assert compiled.nbytes <= budget
        sizes.add(compiled.group_size)
        assert forest.predict_proba(X).tobytes() == reference_score("forest", trees, X).tobytes()
    assert len(sizes) > 1  # groups of more than one size were scored


TRAINERS = {
    "tree": lambda X, y, seed: train_tree(X, y, max_depth=4),
    "forest": lambda X, y, seed: train_random_forest(X, y, n_trees=4, mtry=1, seed=seed),
    "gbm": lambda X, y, seed: train_gbm(X, y, n_trees=4, max_depth=2, min_leaf=2,
                                        subsample=0.8, seed=seed),
    "xgb": lambda X, y, seed: train_xgb(X, y, n_trees=4, max_depth=3, subsample=0.8,
                                        colsample=0.7, seed=seed),
}


@settings(deadline=None, max_examples=40)
@given(data=st.data(), family=st.sampled_from(sorted(TRAINERS)))
def test_predict_proba_is_equivariant_under_row_permutation(data, family):
    cells = st.sampled_from([np.nan, -np.inf, np.inf, -1.0, -0.0, 0.0, 0.5, 2.0])
    p = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 40))
    X = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                    min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    model = TRAINERS[family](X, y, data.draw(st.integers(0, 9)))
    Q = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                    min_size=1, max_size=60)))
    perm = np.array(data.draw(st.permutations(range(len(Q)))))
    assert model.predict_proba(Q[perm]).tobytes() == model.predict_proba(Q)[perm].tobytes()

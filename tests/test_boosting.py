import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.errors import ScorekitError
from scorekit.models import tree as tree_module
from scorekit.models import train_gbm, train_xgb
from scorekit.models.boosting import LEAF_CLIP, BoostedModel, log_loss, log_odds
from scorekit.models.tree import (
    build_tree,
    leaf_weight_grad,
    predict_tree,
)

from conftest import split_gain_grad, tree_from_records


@pytest.fixture
def separable():
    X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    return X, y


class TestGbm:
    def test_balanced_base_rate_zero_initial_score(self, separable):
        X, y = separable
        model = train_gbm(X, y, n_trees=0)
        assert model.initial_score == 0.0

    def test_no_trees_predicts_base_rate(self, rng):
        X = rng.normal(size=(40, 2))
        y = np.r_[np.ones(10), np.zeros(30)]
        model = train_gbm(X, y, n_trees=0)
        assert np.allclose(model.predict_proba(X), 0.25, atol=1e-12)

    def test_one_round_reduces_log_loss(self, separable):
        X, y = separable
        base = log_loss(y, np.full(6, 0.5))
        model = train_gbm(X, y, n_trees=1, learning_rate=1.0, max_depth=1, min_leaf=1)
        after = log_loss(y, model.predict_proba(X))
        assert after < base

    def test_train_loss_non_increasing_small_rate(self, rng):
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=300) > 0).astype(float)
        model = train_gbm(X, y, n_trees=40, learning_rate=0.1, max_depth=2, min_leaf=10)
        diffs = np.diff(model.train_loss_)
        assert (diffs <= 1e-12).all()

    def test_same_seed_identical(self, rng):
        X = rng.normal(size=(120, 3))
        y = rng.integers(0, 2, 120).astype(float)
        y[:2] = [0, 1]
        a = train_gbm(X, y, n_trees=10, subsample=0.7, seed=9)
        b = train_gbm(X, y, n_trees=10, subsample=0.7, seed=9)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_degenerate_leaf_clipped(self):
        # forcing a pure leaf: hessian sum ~ 0 happens only with extreme
        # probabilities; emulate by running many rounds at high rate on a
        # trivially separable point set and checking leaf values stay bounded
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = train_gbm(X, y, n_trees=60, learning_rate=1.0, max_depth=1, min_leaf=1)
        for tree in model.trees:
            stack = [0]
            while stack:
                k = stack.pop()
                if tree.left[k] < 0:
                    assert abs(tree.value[k]) <= 4.0
                else:
                    stack.extend((tree.left[k], tree.right[k]))

    def test_sigmoid_applied_once(self, separable):
        X, y = separable
        model = train_gbm(X, y, n_trees=3, learning_rate=0.5, max_depth=1, min_leaf=1)
        raw = model.decision_function(X)
        assert np.array_equal(model.predict_proba(X), 1.0 / (1.0 + np.exp(-raw)))


class TestXgb:
    def test_leaf_weight_formula(self):
        assert leaf_weight_grad(2.0, 3.0, 1.0) == -0.5

    def test_leaf_weight_through_tree(self):
        # one row, no possible split: leaf takes -G/(H+lam) directly
        tree = build_tree(np.array([[0.0]]), np.array([2.0]), np.array([3.0]),
                          objective="grad", lam=1.0)
        assert tree.left[0] < 0 and tree.value[0] == -0.5

    def test_zero_hessian_sum_with_zero_lambda_takes_the_clip(self):
        # -G/(H + lam) with H + lam == 0 raised ZeroDivisionError
        tree = build_tree(np.zeros((2, 1)), [1.0, 0.0], [0.0, 0.0], objective="grad", lam=0.0)
        assert tree.left[0] < 0 and tree.value[0] == -LEAF_CLIP
        assert leaf_weight_grad(-3.0, 0.0, 0.0) == LEAF_CLIP
        assert leaf_weight_grad(0.0, 0.0, 0.0) == 0.0
        assert leaf_weight_grad(1.0, 0.0, 1e-300) == -1.0 / 1e-300  # lam > 0 keeps the formula

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan"), "1"])
    def test_impossible_lambda_rejected(self, separable, lam):
        X, y = separable
        with pytest.raises(ScorekitError, match=r"xgb needs lam >= 0, got %s" % re.escape(repr(lam))):
            train_xgb(X, y, n_trees=1, lam=lam)

    def test_gain_formula_cross_check(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 11))
            X = rng.normal(size=(n, 2))
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 0.3, size=n)
            lam, gamma = 1.0, 0.01
            best = None
            for j in range(2):
                vals = np.unique(X[:, j])
                for lo, hi in zip(vals[:-1], vals[1:]):
                    thr = (lo + hi) / 2.0
                    mask = X[:, j] <= thr
                    gain = split_gain_grad(g[mask].sum(), h[mask].sum(),
                                           g[~mask].sum(), h[~mask].sum(), lam, gamma)
                    if best is None or gain > best[0] + 1e-15:
                        best = (gain, j, thr)
            tree = build_tree(X, g, h, objective="grad", max_depth=1, lam=lam, gamma=gamma)
            if best[0] <= 0.0:
                assert tree.left[0] < 0
            else:
                assert tree.left[0] >= 0
                assert tree.gain[0] == pytest.approx(best[0], abs=1e-10)
                assert np.array_equal(X[:, tree.feature[0]] <= tree.threshold[0],
                                      X[:, best[1]] <= best[2])

    def test_large_gamma_single_leaf_trees(self, rng):
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(float)
        model = train_xgb(X, y, n_trees=5, gamma=1e6)
        assert all(tree.left[0] < 0 for tree in model.trees)
        # with every tree a single leaf the prediction stays at the base rate
        assert np.allclose(model.predict_proba(X), y.mean(), atol=1e-9)

    def test_huge_lambda_collapses_to_base_rate(self, rng):
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(float)
        model = train_xgb(X, y, n_trees=5, lam=1e12)
        assert np.allclose(model.predict_proba(X), y.mean(), atol=1e-6)

    def test_same_seed_identical(self, rng):
        X = rng.normal(size=(150, 4))
        y = rng.integers(0, 2, 150).astype(float)
        y[:2] = [0, 1]
        a = train_xgb(X, y, n_trees=8, subsample=0.8, colsample=0.7, seed=4)
        b = train_xgb(X, y, n_trees=8, subsample=0.8, colsample=0.7, seed=4)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_feature_gains_nonzero_only_for_used_features(self, rng):
        X = np.column_stack([rng.normal(size=300), np.zeros(300)])
        y = (X[:, 0] > 0).astype(float)
        model = train_xgb(X, y, n_trees=5)
        assert model.feature_gain_[0] > 0.0
        assert model.feature_gain_[1] == 0.0  # constant column never splits

    def test_learning_improves_fit(self, rng):
        X = rng.normal(size=(400, 3))
        y = (X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=400) > 0).astype(float)
        model = train_xgb(X, y, n_trees=30, learning_rate=0.2)
        assert model.train_loss_[-1] < model.train_loss_[0]


@pytest.mark.parametrize("n_trees", [-3, 2.5])
@pytest.mark.parametrize("train", [train_gbm, train_xgb])
def test_impossible_tree_count_rejected(separable, train, n_trees):
    X, y = separable
    with pytest.raises(ScorekitError, match="integer n_trees >= 0, got %r" % n_trees):
        train(X, y, n_trees=n_trees)


def test_log_odds_helper():
    assert log_odds(0.5) == 0.0
    assert log_odds(0.25) == pytest.approx(np.log(1 / 3), abs=1e-12)


def reference_decision(model, X):
    """The per-tree walk: initial_score + sum of learning_rate * leaf value,
    added tree by tree in model order."""
    score = np.full(X.shape[0], model.initial_score)
    for tree in model.trees:
        score += model.learning_rate * predict_tree(tree, X)
    return score


GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@st.composite
def random_tree(draw, n_leaves, n_features):
    """A tree of exactly n_leaves leaves with splits on the coarse GRID, so
    thresholds tie within and across trees; leaf values span magnitudes so
    that the order of the sum over trees shows in the last bits."""
    nodes = []
    pending = [(n_leaves, None)]  # leaves to place, parent awaiting its right child
    while pending:
        k, parent = pending.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        rec = {"value": draw(st.floats(-1e3, 1e3)), "n": 0}
        nodes.append(rec)
        if k > 1:
            left = draw(st.integers(1, k - 1))
            rec.update(feature=draw(st.integers(0, n_features - 1)),
                       threshold=draw(st.sampled_from(GRID)), gain=0.0,
                       left=len(nodes), right=-1)
            pending += [(k - left, rec), (left, None)]
    return tree_from_records(nodes)


@st.composite
def boosted_cases(draw):
    split_on = draw(st.integers(1, 3))
    p = split_on + draw(st.integers(0, 2))  # trailing features no tree splits on
    widths = st.one_of(st.integers(1, 65), st.sampled_from([1, 8, 9, 16, 17, 32, 33, 64, 65]))
    trees = [draw(random_tree(k, split_on)) for k in draw(st.lists(widths, max_size=5))]
    model = BoostedModel(draw(st.floats(-3, 3)), trees, draw(st.floats(0.01, 1.0)),
                         ["x%d" % j for j in range(p)])
    cells = [np.nan, np.inf, -np.inf, 0.25, -2.0, 2.0] + GRID
    m = draw(st.integers(0, 40))
    X = np.array(draw(st.lists(st.lists(st.sampled_from(cells), min_size=p, max_size=p),
                               min_size=m, max_size=m)), dtype=float).reshape(m, p)
    return model, X, draw(st.sampled_from([1, 7, 64, tree_module.SCORE_CELLS]))


@settings(deadline=None, max_examples=300)
@given(case=boosted_cases())
def test_decision_function_matches_per_tree_walk(case):
    model, X, cells = case
    widest = max((int((t.left < 0).sum()) for t in model.trees), default=1)
    # trees this small fit the table budget in one group, so none walks;
    # wider trees take more 64-bit words, at most 64 leaves the narrowest word
    assert model.bit_trees is not None and model.bit_trees.nbytes <= tree_module.TABLE_BYTES
    assert len(model.bit_trees.groups) == (1 if model.trees else 0)
    assert model.bit_trees.words == -(-widest // 64)
    if widest <= 64:
        bits = np.iinfo(model.bit_trees.dtype).bits
        assert widest <= bits and (bits == 8 or widest > bits // 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "SCORE_CELLS", cells)  # blocks of a few rows
        assert model.decision_function(X).tobytes() == reference_decision(model, X).tobytes()


def test_zero_tree_and_trained_models_match_per_tree_walk(rng):
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=300) > 0).astype(float)
    Q = np.vstack([X, [[np.nan, np.inf, -np.inf, 0.0]]])
    for model in (train_gbm(X, y, n_trees=0), train_xgb(X, y, n_trees=0),
                  train_gbm(X, y, n_trees=15, subsample=0.8),
                  train_xgb(X, y, n_trees=15, max_depth=5, colsample=0.5)):
        assert model.bit_trees is not None
        assert model.decision_function(Q).tobytes() == reference_decision(model, Q).tobytes()

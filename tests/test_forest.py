import numpy as np
import pytest

from scorekit.errors import ScorekitError
from scorekit.metrics import gini
from scorekit.models import train_random_forest, train_tree
from scorekit.models import tree as tree_module


@pytest.fixture
def toy(rng):
    X = rng.normal(size=(150, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=150) > 0).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


class TestRandomForest:
    def test_same_seed_identical_forest(self, toy):
        X, y = toy
        a = train_random_forest(X, y, n_trees=12, seed=42)
        b = train_random_forest(X, y, n_trees=12, seed=42)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_differs(self, toy):
        X, y = toy
        a = train_random_forest(X, y, n_trees=12, seed=1)
        b = train_random_forest(X, y, n_trees=12, seed=2)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_thread_count_does_not_change_model(self, toy):
        X, y = toy
        a = train_random_forest(X, y, n_trees=8, seed=5, threads=1)
        b = train_random_forest(X, y, n_trees=8, seed=5, threads=4)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_overfit_signature_on_unique_featured_data(self, rng):
        # unlimited depth + min_leaf 1 memorizes the training sample
        n = 400
        X = rng.normal(size=(n, 6))
        y = rng.integers(0, 2, n).astype(float)
        y[:2] = [0, 1]
        forest = train_random_forest(X, y, n_trees=40, max_depth=None,
                                     min_leaf=1, seed=3)
        assert gini(forest.predict_proba(X), y) >= 0.99

    def test_probabilities_in_unit_interval(self, toy):
        X, y = toy
        forest = train_random_forest(X, y, n_trees=10, seed=0)
        probs = forest.predict_proba(X)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_default_mtry_is_sqrt(self, toy):
        X, y = toy
        forest = train_random_forest(X, y, n_trees=2, seed=0)
        assert forest.mtry == 2  # ceil(sqrt(4))

    @pytest.mark.parametrize("n_trees", [0, -2, 2.5])
    def test_rejects_impossible_tree_count(self, toy, n_trees):
        X, y = toy
        with pytest.raises(ScorekitError, match="integer n_trees >= 1, got %r" % n_trees):
            train_random_forest(X, y, n_trees=n_trees)

    @pytest.mark.parametrize("label", [0.7, 2.0, -1.0, np.nan])
    @pytest.mark.parametrize("train", [
        lambda X, y: train_random_forest(X, y, n_trees=3, seed=0),
        lambda X, y: train_tree(X, y, max_depth=3),
    ], ids=["forest", "tree"])
    def test_rejects_target_outside_01(self, toy, train, label):
        # the split search counts labels; a fractional target would train silently
        X, y = toy
        y = y.copy()
        y[5] = label
        with pytest.raises(ScorekitError, match="0/1 target, got %r" % label):
            train(X, y)


@pytest.mark.parametrize("budget", [None, 0], ids=["compiled", "walk"])
@pytest.mark.parametrize("family", ["forest", "tree"])
def test_predict_is_row_wise(rng, monkeypatch, family, budget):
    # the explainers stack many rows into one call: a row's score must not
    # depend on the rows beside it, nor on its position
    X = rng.normal(size=(400, 4))
    y = rng.integers(0, 2, 400).astype(float)
    if budget is not None:
        monkeypatch.setattr(tree_module, "TABLE_BYTES", budget)
    model = (train_random_forest(X, y, n_trees=10, seed=1) if family == "forest"
             else train_tree(X, y))
    trees = model.trees if family == "forest" else [model.tree]
    if budget is None:
        assert model.bit_trees.words > 1  # trees of more than 64 leaves
    else:
        assert model.bit_trees is None
    internal = trees[0].left >= 0
    at_threshold = [trees[0].threshold[internal & (trees[0].feature == j)][:1] for j in range(4)]
    Q = np.vstack([X[:50], [[np.nan, np.inf, -np.inf, 0.0]],
                   [[t[0] if len(t) else 0.0 for t in at_threshold]]])
    full = model.predict_proba(Q)
    for i in range(len(Q)):
        assert model.predict_proba(Q[i]).tobytes() == full[i:i + 1].tobytes()
    perm = rng.permutation(len(Q))
    assert model.predict_proba(Q[perm]).tobytes() == full[perm].tobytes()

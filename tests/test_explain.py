import hashlib

import numpy as np
import pytest

from scorekit.explain import (
    break_down,
    ceteris_paribus,
    partial_dependence,
    partial_dependence_2d,
    permutation_importance,
)
from scorekit.metrics import auc
from scorekit.models import (
    LogisticModel,
    Predictor,
    train_gbm,
    train_logistic,
    train_random_forest,
    train_tree,
    train_woe_logistic,
    train_xgb,
)
from scorekit.models import base as base_module

from conftest import ColumnModel, ConstantModel, numeric_dataset


def checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# Reference explainers: one predict_proba call per substitution, no stacking.

def naive_profile_matrix(model, X, j, grid):
    out = np.empty((X.shape[0], len(grid)))
    for g, z in enumerate(grid):
        Xg = X.copy()
        Xg[:, j] = z
        out[:, g] = model.predict_proba(Xg)
    return out


def cp_mean_equals_pdp(model, X, feature, grid):
    """Mean of per-row ceteris paribus values on an explicit grid.

    Oracle for the identity check: equals partial_dependence on the same
    grid up to summation roundoff.
    """
    X = np.asarray(X, dtype=float)
    j = model.feature_names.index(feature)
    return naive_profile_matrix(model, X, j, np.asarray(grid, dtype=float)).mean(axis=0)


def naive_pfi_drops(model, X, y, n_repeats, seed):
    baseline = auc(model.predict_proba(X), y)
    drops = np.empty((X.shape[1], n_repeats))
    for j in range(X.shape[1]):
        for r in range(n_repeats):
            rng = np.random.default_rng((seed, j, r))
            Xp = X.copy()
            Xp[:, j] = X[rng.permutation(X.shape[0]), j]
            drops[j, r] = baseline - auc(model.predict_proba(Xp), y)
    return drops


def naive_pdp_2d(model, X, ja, jb, grid_a, grid_b):
    surface = np.empty((len(grid_a), len(grid_b)))
    for ga, za in enumerate(grid_a):
        Xa = X.copy()
        Xa[:, ja] = za
        surface[ga] = naive_profile_matrix(model, Xa, jb, grid_b).mean(axis=0)
    return surface


def naive_break_down(model, background, instance, ordering):
    """(intercept, [(name, delta)], final) by the sequential definition."""
    names = list(model.feature_names)
    p = len(names)

    def value_of(fixed):
        if len(fixed) == p:
            return float(model.predict_proba(instance.reshape(1, -1))[0])
        Xs = background.copy()
        Xs[:, fixed] = instance[fixed]
        return float(np.mean(model.predict_proba(Xs)))

    current = intercept = value_of([])
    chosen, deltas = [], []
    if ordering == "greedy":
        remaining = sorted(range(p), key=lambda k: names[k])
        while remaining:
            values = [value_of(chosen + [j]) for j in remaining]
            gaps = [abs(v - current) for v in values]
            k = gaps.index(max(gaps))
            deltas.append((names[remaining[k]], values[k] - current))
            current = values[k]
            chosen.append(remaining.pop(k))
    else:
        for name in ordering:
            chosen.append(names.index(name))
            v = value_of(chosen)
            deltas.append((name, v - current))
            current = v
    return intercept, deltas, value_of(list(range(p)))


class CountingModel(Predictor):
    """Passes predict_proba through to a wrapped model, counting calls."""

    def __init__(self, inner):
        super().__init__(inner.feature_names)
        self.inner = inner
        self.calls = 0

    def predict_proba(self, X):
        self.calls += 1
        return self.inner.predict_proba(X)


@pytest.fixture(scope="module")
def six_families():
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] - X[:, 2] + 0.5 * rng.normal(size=80) > 0).astype(int)
    names = ["a", "b", "c", "d"]
    dataset = numeric_dataset(dict(zip(names, X.T)), y)
    models = [
        train_logistic(X, y, feature_names=names),
        train_woe_logistic(dataset, names, max_bins=4),
        train_tree(X, y, max_depth=3, min_leaf=5, feature_names=names),
        train_random_forest(X, y, n_trees=5, seed=0, feature_names=names),
        train_gbm(X, y, n_trees=6, max_depth=2, min_leaf=5, feature_names=names),
        train_xgb(X, y, n_trees=6, max_depth=2, feature_names=names),
    ]
    return X, y, models


@pytest.mark.parametrize("budget", ["default", "split_steps"])
def test_batched_equals_one_call_per_substitution(six_families, monkeypatch, budget):
    X, y, models = six_families
    if budget == "split_steps":
        # two and a half variants of X per call: chunk boundaries fall
        # inside every PFI, PDP and break-down step
        monkeypatch.setattr(base_module, "PREDICT_CELLS", 5 * X.size // 2)
    grid = np.unique(np.quantile(X[:, 1], np.linspace(0, 1, 5)))
    for model in models:
        pfi = permutation_importance(model, X, y, n_repeats=3, seed=4)
        assert np.array_equal(pfi.drops, naive_pfi_drops(model, X, y, 3, 4))

        pdp = partial_dependence(model, X, "b", grid_spec=grid)
        assert np.array_equal(pdp.mean_prediction, cp_mean_equals_pdp(model, X, "b", grid))

        surface = partial_dependence_2d(model, X, "b", "c", grid_spec=5)
        assert np.array_equal(surface.mean_prediction,
                              naive_pdp_2d(model, X, 1, 2, *surface.grids))
        # a feature against itself: the run names its column twice, and the
        # second value wins, as the second assignment does
        surface = partial_dependence_2d(model, X, "b", "b", grid_spec=5)
        assert np.array_equal(surface.mean_prediction,
                              naive_pdp_2d(model, X, 1, 1, *surface.grids))

        # cp was one call before batching too; on a one-row background the
        # stacked pdp builds the same matrix
        cp = ceteris_paribus(model, X[3], "b", background=X)
        one_row = partial_dependence(model, X[[3]], "b", grid_spec=cp.grid)
        assert np.array_equal(cp.prediction, one_row.mean_prediction)

        for ordering in ("greedy", ["d", "b", "a", "c"]):
            bd = break_down(model, X, X[5], ordering=ordering)
            intercept, deltas, final = naive_break_down(model, X, X[5], ordering)
            assert bd.intercept == intercept
            assert bd.contributions == deltas
            assert bd.final_prediction == final


def test_one_stacked_call_per_explainer_step(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    y[:2] = [0, 1]
    p = X.shape[1]
    model = CountingModel(ColumnModel(["a", "b", "c"], weights=[1.0, 0.5, -0.2]))

    partial_dependence(model, X, "a", grid_spec=7)
    assert model.calls == 1

    model.calls = 0
    surface = partial_dependence_2d(model, X, "a", "b", grid_spec=5)
    assert model.calls == len(surface.grids[0])

    model.calls = 0
    permutation_importance(model, X, y, n_repeats=4, seed=0)
    assert model.calls == p + 1

    model.calls = 0
    break_down(model, X, X[0])
    assert model.calls == p + 1

    model.calls = 0
    break_down(model, X, X[0], ordering=["c", "a", "b"])
    assert model.calls == 3


@pytest.fixture
def xy(rng):
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] + 0.4 * rng.normal(size=400) > 0).astype(int)
    y[:2] = [0, 1]
    return X, y


class TestPermutationImportance:
    def test_ignored_feature_drop_exactly_zero(self, xy):
        X, y = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 0.0, 0.0])
        result = permutation_importance(model, X, y, n_repeats=5, seed=0)
        for name in ("b", "c"):
            i = result.features.index(name)
            assert (result.drops[i] == 0.0).all()

    def test_identity_model_drop_near_half(self, rng):
        n = 4000
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        X = np.column_stack([y.astype(float), rng.normal(size=n)])
        model = ColumnModel(["t", "z"], weights=[1.0, 0.0])
        result = permutation_importance(model, X, y, n_repeats=10, seed=1)
        assert result.baseline_auc == 1.0
        drop_t = result.mean_drop[result.features.index("t")]
        assert drop_t == pytest.approx(0.5, abs=0.05)

    def test_constant_model_baseline_half_drops_zero(self, xy):
        X, y = xy
        result = permutation_importance(ConstantModel(["a", "b", "c"]), X, y,
                                        n_repeats=3, seed=0)
        assert result.baseline_auc == 0.5
        assert (result.drops == 0.0).all()

    def test_input_unchanged(self, xy):
        X, y = xy
        before = checksum(X)
        permutation_importance(ColumnModel(["a", "b", "c"]), X, y, n_repeats=3, seed=2)
        assert checksum(X) == before

    def test_seeded_repeatable(self, xy):
        X, y = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 0.2, 0.0])
        r1 = permutation_importance(model, X, y, n_repeats=4, seed=7)
        r2 = permutation_importance(model, X, y, n_repeats=4, seed=7)
        assert np.array_equal(r1.drops, r2.drops)


class TestPartialDependence:
    def test_identity_feature_pdp_is_grid(self, xy):
        X, _ = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 0.0, 0.0])
        profile = partial_dependence(model, X, "a", grid_spec=[-1.0, 0.0, 2.0])
        assert profile.grid.tolist() == [-1.0, 0.0, 2.0]
        assert profile.mean_prediction.tolist() == [-1.0, 0.0, 2.0]

    def test_ignored_feature_pdp_constant_mean(self, xy):
        X, _ = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 0.0, 0.0])
        profile = partial_dependence(model, X, "b", grid_spec=5)
        expected = float(np.mean(X[:, 0]))
        assert np.allclose(profile.mean_prediction, expected, atol=1e-15)

    def test_pdp_equals_mean_of_cp(self, xy):
        X, y = xy
        model = train_gbm(X, y, n_trees=8, max_depth=2, min_leaf=20,
                          feature_names=["a", "b", "c"])
        grid = np.quantile(X[:, 1], [0.1, 0.5, 0.9])
        profile = partial_dependence(model, X, "b", grid_spec=grid)
        via_cp = cp_mean_equals_pdp(model, X, "b", profile.grid)
        assert np.max(np.abs(profile.mean_prediction - via_cp)) <= 1e-12

    def test_default_grid_deduplicated_quantiles(self, rng):
        X = np.column_stack([np.repeat([1.0, 2.0], 50), rng.normal(size=100)])
        model = ColumnModel(["a", "b"])
        profile = partial_dependence(model, X, "a")
        assert profile.grid.tolist() == [1.0, 2.0]

    def test_input_unchanged(self, xy):
        X, _ = xy
        before = checksum(X)
        partial_dependence(ColumnModel(["a", "b", "c"]), X, "a", grid_spec=7)
        assert checksum(X) == before

    def test_two_feature_surface(self, xy):
        X, _ = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 2.0, 0.0])
        surface = partial_dependence_2d(model, X, "a", "b",
                                        grid_spec=[0.0, 1.0])
        # f = a + 2b: surface value is z_a + 2 z_b exactly
        assert surface.mean_prediction.tolist() == [[0.0, 2.0], [1.0, 3.0]]


class TestCeterisParibus:
    def test_linear_substitution(self):
        model = ColumnModel(["a", "b"], weights=[1.0, 1.0])
        profile = ceteris_paribus(model, [1.0, 2.0], "a", grid_spec=[0.0, 1.0, 5.0])
        assert profile.grid.tolist() == [0.0, 1.0, 5.0]
        assert profile.prediction.tolist() == [2.0, 3.0, 7.0]

    def test_anchor_at_actual_value(self, xy):
        X, y = xy
        model = train_tree(X, y, max_depth=3, min_leaf=10,
                           feature_names=["a", "b", "c"])
        profile = ceteris_paribus(model, X[5], "b", grid_spec=[-1.0, 0.5])
        assert profile.anchor_value == X[5, 1]
        assert profile.anchor == model.predict_proba(X[5].reshape(1, -1))[0]
        assert profile.at(profile.anchor_value) == profile.anchor

    def test_grid_includes_actual_value(self):
        model = ColumnModel(["a"])
        profile = ceteris_paribus(model, [0.7], "a", grid_spec=[0.0, 1.0])
        assert 0.7 in profile.grid.tolist()

    def test_ignored_feature_flat_at_anchor(self, xy):
        X, _ = xy
        model = ColumnModel(["a", "b", "c"], weights=[1.0, 0.0, 0.0])
        profile = ceteris_paribus(model, X[3], "c", background=X)
        assert np.allclose(profile.prediction, profile.anchor, atol=1e-15)

    def test_instance_unchanged(self, xy):
        X, _ = xy
        row = X[2].copy()
        ceteris_paribus(ColumnModel(["a", "b", "c"]), X[2], "a", background=X)
        assert np.array_equal(X[2], row)


class TestBreakDown:
    def test_additive_model_deltas(self, rng):
        background = rng.uniform(0.0, 0.2, size=(50, 2))
        model = ColumnModel(["a", "b"], weights=[1.0, 1.0])
        instance = np.array([0.3, 0.4])
        mu = background.mean(axis=0)
        for ordering in ("greedy", ["a", "b"], ["b", "a"]):
            result = break_down(model, background, instance, ordering=ordering)
            contrib = dict(result.contributions)
            assert result.intercept == pytest.approx(mu.sum(), abs=1e-12)
            assert contrib["a"] == pytest.approx(0.3 - mu[0], abs=1e-12)
            assert contrib["b"] == pytest.approx(0.4 - mu[1], abs=1e-12)

    def test_identical_background_zero_deltas(self):
        model = ColumnModel(["a", "b"], weights=[0.5, 0.5])
        background = np.tile([0.2, 0.6], (20, 1))
        result = break_down(model, background, np.array([0.2, 0.6]))
        # averaging twenty identical floats wobbles in the last ulp, no more
        assert result.intercept == pytest.approx(result.final_prediction, abs=1e-12)
        assert all(abs(d) <= 1e-12 for _, d in result.contributions)

    def test_telescoping_closes_for_all_families(self, rng):
        X = rng.normal(size=(250, 4))
        y = (X[:, 0] - X[:, 2] + 0.5 * rng.normal(size=250) > 0).astype(int)
        y[:2] = [0, 1]
        names = ["a", "b", "c", "d"]
        dataset = numeric_dataset(dict(zip(names, X.T)), y)
        models = [
            train_logistic(X, y, feature_names=names),
            train_woe_logistic(dataset, names, max_bins=4),
            train_tree(X, y, max_depth=3, min_leaf=10, feature_names=names),
            train_random_forest(X, y, n_trees=5, seed=0, feature_names=names),
            train_gbm(X, y, n_trees=6, max_depth=2, min_leaf=10, feature_names=names),
            train_xgb(X, y, n_trees=6, max_depth=2, feature_names=names),
        ]
        background = X[:60]
        for model in models:
            for idx in (0, 7):
                for ordering in ("greedy", names):
                    result = break_down(model, background, X[idx], ordering=ordering)
                    total = result.intercept + sum(d for _, d in result.contributions)
                    assert total == pytest.approx(result.final_prediction, abs=1e-9)
                    assert result.final_prediction == \
                        model.predict_proba(X[idx].reshape(1, -1))[0]

    def test_greedy_orders_by_marginal_impact(self, rng):
        background = np.zeros((30, 2))
        model = ColumnModel(["small", "big"], weights=[0.1, 1.0])
        result = break_down(model, background, np.array([1.0, 1.0]))
        assert result.order == ["big", "small"]

    def test_inputs_unchanged(self, rng):
        background = rng.normal(size=(40, 3))
        instance = rng.normal(size=3)
        b0, i0 = checksum(background), checksum(instance)
        break_down(ColumnModel(["a", "b", "c"]), background, instance)
        assert checksum(background) == b0 and checksum(instance) == i0

    def test_bad_ordering_rejected(self):
        model = ColumnModel(["a", "b"])
        with pytest.raises(ValueError):
            break_down(model, np.zeros((5, 2)), np.zeros(2), ordering=["a"])


class TestModelAgnosticMatrix:
    def test_every_explainer_runs_on_every_family(self, rng):
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] > 0).astype(int)
        y[:2] = [0, 1]
        names = ["a", "b", "c"]
        dataset = numeric_dataset(dict(zip(names, X.T)), y)
        families = [
            train_logistic(X, y, feature_names=names),
            train_woe_logistic(dataset, names, max_bins=4),
            train_tree(X, y, max_depth=2, min_leaf=10, feature_names=names),
            train_random_forest(X, y, n_trees=4, seed=1, feature_names=names),
            train_gbm(X, y, n_trees=4, max_depth=2, min_leaf=10, feature_names=names),
            train_xgb(X, y, n_trees=4, max_depth=2, feature_names=names),
        ]
        for model in families:
            pfi = permutation_importance(model, X, y, n_repeats=2, seed=0)
            assert len(pfi.features) == 3
            pdp = partial_dependence(model, X, "a", grid_spec=5)
            assert (pdp.mean_prediction >= 0).all() and (pdp.mean_prediction <= 1).all()
            cp = ceteris_paribus(model, X[0], "b", background=X)
            assert np.isfinite(cp.prediction).all()
            bd = break_down(model, X[:40], X[1])
            assert len(bd.contributions) == 3

import math

import numpy as np
import pytest

from scorekit.errors import SingularHessian
from scorekit.models import LogisticModel, train_logistic


class TestTrainLogistic:
    def test_intercept_only_closed_form(self):
        # MLE of an intercept-only fit is the log-odds of the mean
        y = np.array([1, 0, 0, 0, 1, 0, 0, 0])  # mean 0.25
        model = train_logistic(np.empty((8, 0)), y)
        assert model.intercept == pytest.approx(math.log(0.25 / 0.75), abs=1e-8)
        assert model.converged

    def test_zero_weights_score_half(self):
        model = LogisticModel([0.0, 0.0], 0.0, ["a", "b"])
        assert model.predict_proba([[3.0, -9.0]]).tolist() == [0.5]

    def test_separable_data_bounded_by_ridge(self):
        # without the ridge the weights would run off to infinity; with it
        # the optimum is finite and the fit lands there without failing
        X = np.r_[np.full((20, 1), -1.0), np.full((20, 1), 1.0)]
        y = np.r_[np.zeros(20), np.ones(20)]
        model = train_logistic(X, y, max_iter=100)
        assert np.isfinite(model.coefficients).all()
        assert 5.0 < abs(model.coefficients[0]) < 50.0  # large but ridge-bounded
        probs = model.predict_proba(X)
        assert (probs > 0).all() and (probs < 1).all()

    def test_recovers_known_coefficients(self, rng):
        n = 20000
        X = rng.normal(size=(n, 2))
        truth = np.array([1.2, -0.7])
        p = 1.0 / (1.0 + np.exp(-(0.3 + X @ truth)))
        y = (rng.random(n) < p).astype(float)
        model = train_logistic(X, y)
        assert model.converged
        assert np.allclose(model.coefficients, truth, atol=0.08)
        assert model.intercept == pytest.approx(0.3, abs=0.08)

    def test_probabilities_in_unit_interval(self, rng):
        X = rng.normal(size=(200, 3)) * 50
        y = rng.integers(0, 2, 200)
        y[:2] = [0, 1]
        model = train_logistic(X, y)
        probs = model.predict_proba(X)
        assert (probs > 0).all() and (probs < 1).all()

    def test_duplicate_columns_singular_without_ridge(self, rng):
        col = rng.normal(size=50)
        X = np.column_stack([col, col])
        y = rng.integers(0, 2, 50)
        y[:2] = [0, 1]
        with pytest.raises(SingularHessian):
            train_logistic(X, y, ridge=0.0)
        # the default ridge handles the same data
        model = train_logistic(X, y)
        assert np.isfinite(model.coefficients).all()

    def test_rejects_missing_values(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError):
            train_logistic(X, np.array([0, 1]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinite_values(self, value):
        X = np.array([[1.0], [value], [2.0], [0.5]])
        with pytest.raises(ValueError, match="infinite"):
            train_logistic(X, np.array([0, 1, 0, 1]))

    def test_one_class_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.ones((4, 1)), np.ones(4))


@pytest.mark.xfail(reason="X @ coefficients runs through BLAS gemv, whose kernel "
                          "for a row depends on the row's position in the call; "
                          "at 8+ features scores can differ in the last bit",
                   strict=False)
def test_predict_is_row_wise():
    # the contract the stacked explainers rely on (Predictor.predict_proba)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 9))
    model = LogisticModel(rng.normal(size=9), 0.3, ["x%d" % j for j in range(9)])
    alone = model.predict_proba(X)
    stacked = model.predict_proba(np.vstack([X] * 3)).reshape(3, -1)
    one_by_one = [model.predict_proba(row)[0] for row in X]
    assert (stacked == alone).all()
    assert one_by_one == alone.tolist()

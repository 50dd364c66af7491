import numpy as np
import pytest

from scorekit.data import Dataset, Feature, NUMERIC
from scorekit.models.base import Predictor
from scorekit.models.tree import Tree

# the entries a leaf's node record leaves out, and the dtype of their arrays
LEAF_DEFAULTS = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "n": 0, "gain": 0.0}


class ColumnModel(Predictor):
    """Scores rows by a fixed linear rule; handy as a known-truth model."""

    model_kind = "column"

    def __init__(self, feature_names, weights=None, offset=0.0):
        super().__init__(feature_names)
        if weights is None:
            weights = [1.0] + [0.0] * (len(feature_names) - 1)
        self.weights = np.asarray(weights, dtype=float)
        self.offset = offset

    def predict_proba(self, X):
        X = self._as_matrix(X)
        return X @ self.weights + self.offset


class ConstantModel(Predictor):
    model_kind = "constant"

    def __init__(self, feature_names, value=0.5):
        super().__init__(feature_names)
        self.value = value

    def predict_proba(self, X):
        X = self._as_matrix(X)
        return np.full(X.shape[0], self.value)


def numeric_dataset(columns: dict, target, obs_date=None) -> Dataset:
    features = [Feature(name, NUMERIC, np.asarray(vals, dtype=float))
                for name, vals in columns.items()]
    return Dataset(features, np.asarray(target), obs_date)


def tree_from_records(nodes) -> Tree:
    """A Tree from node records in preorder: each {"value", "n"} and, for an
    internal node, "feature", "threshold", "gain", "left" and "right"."""
    return Tree(value=np.array([rec["value"] for rec in nodes], dtype=float),
                **{name: np.array([rec.get(name, default) for rec in nodes], dtype=type(default))
                   for name, default in LEAF_DEFAULTS.items()})


def split_gain_grad(g_left, h_left, g_right, h_right, lam, gamma):
    """Regularized second-order split gain, the plain expression; positive
    means worth splitting."""
    total_g = g_left + g_right
    total_h = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - total_g * total_g / (total_h + lam)
    ) - gamma


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

"""Logistic regression on weight-of-evidence transformed features.

The scorecard-style pipeline: bins and WOE values are fitted on the
training split only, then frozen; prediction maps raw feature values
through the stored tables and applies the logistic weights.
"""

from __future__ import annotations

import numpy as np

from ..woe import fit_woe_tables, woe_transform
from .base import Predictor
from .logistic import LogisticModel, train_logistic


class WoeLogisticModel(Predictor):
    model_kind = "logistic_woe"

    def __init__(self, tables: dict, logistic: LogisticModel, feature_names):
        super().__init__(feature_names)
        self.tables = tables
        self.logistic = logistic

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        woe_cols = [
            self.tables[name].transform(X[:, j])
            for j, name in enumerate(self.feature_names)
        ]
        return self.logistic.predict_proba(np.column_stack(woe_cols))

    def score_dataset(self, dataset) -> np.ndarray:
        transformed = woe_transform(dataset.select(self.feature_names), self.tables)
        return self.logistic.predict_proba(transformed.matrix(self.feature_names))


def train_woe_logistic(dataset, features=None, max_bins=10, min_bin_frac=0.05,
                       smoothing=0.5) -> WoeLogisticModel:
    """Fit WOE tables on the given (training) dataset, then logistic on top."""
    names = dataset.feature_names if features is None else list(features)
    tables = fit_woe_tables(dataset.select(names), max_bins=max_bins,
                            min_bin_frac=min_bin_frac, smoothing=smoothing)
    transformed = woe_transform(dataset.select(names), tables)
    logistic = train_logistic(transformed.matrix(names), dataset.target,
                              feature_names=names)
    return WoeLogisticModel(tables, logistic, names)

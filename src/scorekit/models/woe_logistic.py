"""Logistic regression on weight-of-evidence transformed features.

The scorecard-style pipeline: bins and WOE values are fitted on the
training split only, then frozen; prediction maps raw feature values
through the stored tables and applies the logistic weights.
"""

from __future__ import annotations

import numpy as np

from ..woe import fit_woe_tables, woe_transform
from .base import Predictor, check_params
from .logistic import LogisticModel, train_logistic


class WoeLogisticModel(Predictor):
    model_kind = "logistic_woe"

    def __init__(self, tables: dict, logistic: LogisticModel, feature_names):
        super().__init__(feature_names)
        self.tables = tables
        self.logistic = logistic

    def _score_columns(self, columns, n_rows: int) -> np.ndarray:
        """Scores of rows given as one value column per feature name."""
        woe = np.empty((n_rows, len(self.feature_names)))
        for j, (name, values) in enumerate(zip(self.feature_names, columns)):
            woe[:, j] = self.tables[name].transform(values)
        return self.logistic.predict_proba(woe)

    def predict_proba(self, X) -> np.ndarray:
        X = self._as_matrix(X)
        return self._score_columns(X.T, X.shape[0])

    def score_dataset(self, dataset) -> np.ndarray:
        return self._score_columns([dataset.feature(name).values for name in self.feature_names],
                                   dataset.n_rows)


def train_woe_logistic(dataset, features=None, max_bins=10, min_bin_frac=0.05,
                       smoothing=0.5) -> WoeLogisticModel:
    """Fit WOE tables on the given (training) dataset, then logistic on top."""
    check_params("logistic_woe", max_bins=max_bins, min_bin_frac=min_bin_frac,
                 smoothing=smoothing)
    names = dataset.feature_names if features is None else list(features)
    tables = fit_woe_tables(dataset.select(names), max_bins=max_bins,
                            min_bin_frac=min_bin_frac, smoothing=smoothing)
    transformed = woe_transform(dataset.select(names), tables)
    logistic = train_logistic(transformed.matrix(names), dataset.target,
                              feature_names=names)
    return WoeLogisticModel(tables, logistic, names)

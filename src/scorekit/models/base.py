"""Uniform prediction interface all trained models implement.

Every model exposes `predict_proba` over a float matrix aligned to its
`feature_names`, and `score_dataset` which pulls exactly those columns
out of a Dataset by name (extra columns are ignored). This shared seam
is what makes the explainers model-agnostic.
"""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    z = np.clip(z, -45.0, 45.0)
    return 1.0 / (1.0 + np.exp(-z))


class Predictor:
    model_kind = "base"

    def __init__(self, feature_names):
        self.feature_names = list(feature_names)

    def predict_proba(self, X) -> np.ndarray:
        """Probability of bad (target 1) per row of X, columns = feature_names.

        Row-wise: a row's score must not depend on the other rows in the
        call. The explainers rely on this when they stack many substituted
        copies of a matrix into one call.
        """
        raise NotImplementedError

    def score_dataset(self, dataset) -> np.ndarray:
        return self.predict_proba(dataset.matrix(self.feature_names))

    def _as_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                "expected %d feature columns, got %d" % (len(self.feature_names), X.shape[1])
            )
        return X

"""Uniform prediction interface all trained models implement.

Every model exposes `predict_proba` over a float matrix aligned to its
`feature_names`, and `score_dataset` which pulls exactly those columns
out of a Dataset by name (extra columns are ignored). This shared seam
is what makes the explainers model-agnostic. `predict_variants` scores
many column substitutions of one matrix at once, the explainers' unit of
work; by default it stacks them into `predict_proba` calls.
"""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    z = np.clip(z, -45.0, 45.0)
    return 1.0 / (1.0 + np.exp(-z))


# Largest number of cells (rows x columns) stacked into one predict_proba
# call by the default predict_variants. Bounds the stacked matrix of a step;
# a larger step is split across several calls.
PREDICT_CELLS = 1 << 15


class Predictor:
    model_kind = "base"

    def __init__(self, feature_names):
        self.feature_names = list(feature_names)

    def predict_proba(self, X) -> np.ndarray:
        """Probability of bad (target 1) per row of X, columns = feature_names.

        Row-wise: a row's score must not depend on the other rows in the
        call. The default predict_variants relies on this when it stacks
        many substituted copies of a matrix into one call.
        """
        raise NotImplementedError

    def predict_variants(self, X, variants) -> np.ndarray:
        """Predictions of X under each of a list of column substitutions.

        Variant k is a (columns, values) pair: a copy of X with
        `copy[:, columns] = values`. Returns (len(variants), n_rows); row k
        holds the predictions for variant k, the bytes predict_proba gives
        on that copy. Variants are tiled into stacked matrices of at most
        PREDICT_CELLS cells, one predict_proba call each.
        """
        n, p = X.shape
        per_call = max(1, PREDICT_CELLS // max(1, n * p))
        out = np.empty((len(variants), n))
        for start in range(0, len(variants), per_call):
            chunk = variants[start:start + per_call]
            stacked = np.empty((len(chunk), n, p))
            stacked[:] = X
            for block, (columns, values) in zip(stacked, chunk):
                block[:, columns] = values
            out[start:start + len(chunk)] = \
                self.predict_proba(stacked.reshape(-1, p)).reshape(len(chunk), n)
        return out

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

"""Uniform prediction interface all trained models implement.

Every model exposes `predict_proba` over a float matrix aligned to its
`feature_names`, and `score_dataset` which pulls exactly those columns
out of a Dataset by name (extra columns are ignored). This shared seam
is what makes the explainers model-agnostic. `predict_variants` scores
runs of column substitutions of one matrix at once, each run one column
set and many values for it, the explainers' unit of work; by default it
stacks them into `predict_proba` calls.

Every trainer checks its parameters against one table of rules,
`check_params`, before it fits.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import BadParameter


def sigmoid(z):
    z = np.clip(z, -45.0, 45.0)
    return 1.0 / (1.0 + np.exp(-z))


# each parameter's rule, as the error states it, and its test; a (family,
# name) key overrides the name's rule for that family
PARAM_RULES = {
    # zero rounds is a valid base-rate model
    "n_trees": ("an integer n_trees >= 0", lambda v: isinstance(v, numbers.Integral) and v >= 0),
    # a forest of no trees has no mean
    ("forest", "n_trees"): ("an integer n_trees >= 1",
                            lambda v: isinstance(v, numbers.Integral) and v >= 1),
    "learning_rate": ("a finite learning_rate > 0", lambda v: v > 0 and math.isfinite(v)),
    "max_depth": ("max_depth >= 0", lambda v: v >= 0),
    "min_leaf": ("min_leaf >= 1", lambda v: v >= 1),
    "mtry": ("mtry >= 1", lambda v: v >= 1),  # above p it means p
    "subsample": ("subsample in (0, 1]", lambda v: 0 < v <= 1),
    "colsample": ("colsample in (0, 1]", lambda v: 0 < v <= 1),
    "lam": ("lam >= 0", lambda v: v >= 0),
    "gamma": ("gamma >= 0", lambda v: v >= 0),
    "max_iter": ("max_iter >= 1", lambda v: v >= 1),
    "tol": ("tol > 0", lambda v: v > 0),
    "ridge": ("ridge >= 0", lambda v: v >= 0),
    "max_bins": ("max_bins >= 2", lambda v: v >= 2),
    "min_bin_frac": ("min_bin_frac in [0, 1)", lambda v: 0 <= v < 1),
    "smoothing": ("smoothing >= 0", lambda v: v >= 0),
}


def check_params(family, **params):
    """BadParameter naming the family and the first parameter that is not a
    number or fails its rule (NaN fails every rule). max_depth None grows
    trees of any depth, and mtry None takes the forest's default."""
    for name, value in params.items():
        if name in ("max_depth", "mtry") and value is None:
            continue
        rule, ok = PARAM_RULES.get((family, name)) or PARAM_RULES[name]
        if not (isinstance(value, numbers.Real) and ok(value)):
            raise BadParameter("%s needs %s, got %r" % (family, rule, value))


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

    def predict_variants(self, X, runs) -> np.ndarray:
        """Predictions of X under runs of column substitutions.

        A run is (columns, values): a list of column indices and an array of
        shape (variants, 1 or rows, len(columns)), whose variant v is a copy
        of X with `copy[:, columns] = values[v]`; a column named twice takes
        its last value. Returns (variants of all runs, n_rows); row k holds
        the predictions for the k-th variant, the runs in turn, the bytes
        predict_proba gives on that copy. Variants are tiled into stacked
        matrices of at most PREDICT_CELLS cells, one predict_proba call each.
        """
        variants = [(columns, v) for columns, values in runs for v in values]
        n, p = X.shape
        per_call = max(1, PREDICT_CELLS // max(1, n * p))
        out = np.empty((len(variants), n))
        for start in range(0, len(variants), per_call):
            chunk = variants[start:start + per_call]
            stacked = np.empty((len(chunk), n, p))
            stacked[:] = X
            for block, (columns, values) in zip(stacked, chunk):
                for i, j in enumerate(columns):  # in order: the last value wins
                    block[:, j] = values[:, i]
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

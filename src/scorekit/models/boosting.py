"""Boosted trees under logistic loss: first-order (gbm) and second-order
regularized (xgb) variants.

Both start from the log-odds of the base rate and add shrunken regression
trees fitted round by round. The gbm variant fits squared-error trees to
residuals y - p and replaces each leaf with the one-step Newton value
sum(r) / sum(p(1-p)); the xgb variant grows trees directly on gradients
g = p - y and hessians h = p(1-p) with the regularized split gain and
leaf weight -G/(H+lambda).

A fit builds one RankTable of X and grows every round's tree on it: the
round's subsample is the tree's root rows, and xgb's colsample its
candidate columns. The grower reports the leaf each subsample row ends in,
which gives gbm's Newton step and those rows' score update; only the rows
outside the subsample are walked down the tree.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import BadParameter
from .base import sigmoid
from .tree import LEAF_CLIP, RankTable, TreeModel, grow_trees, predict_tree


def log_odds(rate: float) -> float:
    rate = min(max(rate, 1e-12), 1.0 - 1e-12)
    return float(np.log(rate / (1.0 - rate)))


def log_loss(y, prob) -> float:
    prob = np.clip(prob, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(prob) + (1.0 - y) * np.log(1.0 - prob)))


class BoostedModel(TreeModel):
    model_kind = "gbm"

    def __init__(self, initial_score, trees, learning_rate, feature_names,
                 variant="gbm", lam=0.0, gamma=0.0, params=None):
        super().__init__(trees, feature_names)
        self.initial_score = float(initial_score)
        self.learning_rate = float(learning_rate)
        self.variant = variant
        self.lam = lam
        self.gamma = gamma
        self.params = dict(params or {})
        self.model_kind = variant
        self.train_loss_: list[float] = []
        self.feature_gain_: np.ndarray | None = None

    @property
    def offset(self) -> tuple[float, float]:
        return self.initial_score, self.learning_rate

    def link(self, raw: np.ndarray) -> np.ndarray:
        return sigmoid(raw)

    def decision_function(self, X) -> np.ndarray:
        return self.scorer.score(self._as_matrix(X), *self.offset)


def _subsample_rows(rng, n, fraction):
    if fraction >= 1.0:
        return np.arange(n)
    k = max(1, int(round(fraction * n)))
    return np.sort(rng.choice(n, size=k, replace=False))


# each parameter's rule, as the error states it, and its test
PARAM_RULES = {
    # zero rounds is a valid base-rate model
    "n_trees": ("an integer n_trees >= 0", lambda v: isinstance(v, numbers.Integral) and v >= 0),
    "learning_rate": ("a finite learning_rate > 0", lambda v: v > 0 and math.isfinite(v)),
    "max_depth": ("max_depth >= 0", lambda v: v >= 0),
    "min_leaf": ("min_leaf >= 1", lambda v: v >= 1),
    "subsample": ("subsample in (0, 1]", lambda v: 0 < v <= 1),
    "colsample": ("colsample in (0, 1]", lambda v: 0 < v <= 1),
    "lam": ("lam >= 0", lambda v: v >= 0),
    "gamma": ("gamma >= 0", lambda v: v >= 0),
}


def _check_params(variant, **params):
    """BadParameter naming the first parameter that is not a number or
    fails its rule (NaN fails every rule). max_depth None grows trees of
    any depth."""
    for name, value in params.items():
        if name == "max_depth" and value is None:
            continue
        rule, ok = PARAM_RULES[name]
        if not (isinstance(value, numbers.Real) and ok(value)):
            raise BadParameter("%s needs %s, got %r" % (variant, rule, value))


def _grow_round(table, a, b, rows, **params):
    """One round's tree, grown on the rows `rows` of the table's X, and the
    leaf each of those rows ends in."""
    leaf_of = np.empty(len(rows), dtype=np.int64)
    tree, = grow_trees(table, a, b, [rows], [None], leaf_of=leaf_of, **params)
    return tree, leaf_of


def _round_values(tree, X, rows, leaf_of):
    """The tree's leaf value for every row of X: the grower's leaves for
    the round's rows, a walk for the rest."""
    values = np.empty(len(X))
    values[rows] = tree.value.take(leaf_of)
    if len(rows) < len(X):
        rest = np.ones(len(X), dtype=bool)
        rest[rows] = False
        values[rest] = predict_tree(tree, X[rest])
    return values


def train_gbm(X, y, n_trees=100, learning_rate=0.1, max_depth=3, min_leaf=20,
              subsample=1.0, seed=0, feature_names=None) -> BoostedModel:
    """Gradient boosting with squared-error trees and Newton leaf updates.

    Each round fits a tree to the residuals r = y - p on a seeded row
    subsample, then sets every leaf to sum(r)/sum(p(1-p)) over its
    subsample rows. A leaf whose denominator vanishes would take an
    infinite log-odds step; it is clipped to +/-LEAF_CLIP instead.
    """
    _check_params("gbm", n_trees=n_trees, learning_rate=learning_rate, max_depth=max_depth,
                  min_leaf=min_leaf, subsample=subsample)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    f0 = log_odds(float(np.mean(y)))
    score = np.full(n, f0)
    table = RankTable(X)
    trees = []
    losses = []
    for t in range(n_trees):
        prob = sigmoid(score)
        resid = y - prob
        rng = np.random.default_rng((seed, t))
        rows = _subsample_rows(rng, n, subsample)
        tree, leaf_of = _grow_round(table, resid, None, rows, objective="mse",
                                    max_depth=max_depth, min_leaf=min_leaf)

        weight = (prob * (1.0 - prob))[rows]
        r_sub = resid[rows]
        for k in np.flatnonzero(tree.left < 0):
            idx = np.flatnonzero(leaf_of == k)  # ascending rows: a fixed summation order
            num = float(np.sum(r_sub[idx]))
            den = float(np.sum(weight[idx]))
            if den <= 1e-12:
                tree.value[k] = 0.0 if num == 0.0 else np.copysign(LEAF_CLIP, num)
            else:
                tree.value[k] = num / den
        trees.append(tree)
        score = score + learning_rate * _round_values(tree, X, rows, leaf_of)
        losses.append(log_loss(y, sigmoid(score)))

    model = BoostedModel(f0, trees, learning_rate, feature_names,
                         variant="gbm",
                         params={"n_trees": n_trees, "max_depth": max_depth,
                                 "min_leaf": min_leaf, "subsample": subsample,
                                 "seed": seed})
    model.train_loss_ = losses
    return model


def train_xgb(X, y, n_trees=100, learning_rate=0.1, max_depth=3, lam=1.0,
              gamma=0.0, subsample=1.0, colsample=1.0, seed=0,
              feature_names=None) -> BoostedModel:
    """Second-order boosting with the regularized split gain.

    Splits are taken only while the gain stays positive, so a large gamma
    collapses rounds to single-leaf trees and a huge lambda drives all
    leaf weights toward zero. Realized split gains are summed per feature
    into feature_gain_ (the importance used for variable preselection).
    """
    _check_params("xgb", n_trees=n_trees, learning_rate=learning_rate, max_depth=max_depth,
                  lam=lam, gamma=gamma, subsample=subsample, colsample=colsample)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    f0 = log_odds(float(np.mean(y)))
    score = np.full(n, f0)
    table = RankTable(X)
    trees = []
    losses = []
    gains = np.zeros(p)
    for t in range(n_trees):
        prob = sigmoid(score)
        grad = prob - y
        hess = prob * (1.0 - prob)
        rng = np.random.default_rng((seed, t))
        rows = _subsample_rows(rng, n, subsample)
        cols = None
        if colsample < 1.0:
            k = max(1, int(round(colsample * p)))
            cols = np.sort(rng.choice(p, size=k, replace=False))
        tree, leaf_of = _grow_round(table, grad, hess, rows, objective="grad",
                                    max_depth=max_depth, min_leaf=1, cols=cols,
                                    lam=lam, gamma=gamma)
        internal = tree.left >= 0
        # add gains in one fixed order (root, then the right subtree before
        # the left): float sums depend on it, and feature_gain_ ranks features
        stack = [0]
        while stack:
            k = stack.pop()
            if internal[k]:
                gains[tree.feature[k]] += tree.gain[k]
                stack += (tree.left[k], tree.right[k])
        trees.append(tree)
        score = score + learning_rate * _round_values(tree, X, rows, leaf_of)
        losses.append(log_loss(y, sigmoid(score)))

    model = BoostedModel(f0, trees, learning_rate, feature_names,
                         variant="xgb", lam=lam, gamma=gamma,
                         params={"n_trees": n_trees, "max_depth": max_depth,
                                 "subsample": subsample, "colsample": colsample,
                                 "seed": seed})
    model.train_loss_ = losses
    model.feature_gain_ = gains
    return model

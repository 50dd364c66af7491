"""Boosted trees under logistic loss: first-order (gbm) and second-order
regularized (xgb) variants.

Both start from the log-odds of the base rate and add shrunken regression
trees fitted round by round. The gbm variant fits squared-error trees to
residuals y - p and replaces each leaf with the one-step Newton value
sum(r) / sum(p(1-p)); the xgb variant grows trees directly on gradients
g = p - y and hessians h = p(1-p) with the regularized split gain and
leaf weight -G/(H+lambda).
"""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import ScorekitError
from .base import sigmoid
from .tree import LEAF_CLIP, TreeModel, build_tree, predict_tree, tree_leaves


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


def train_gbm(X, y, n_trees=100, learning_rate=0.1, max_depth=3, min_leaf=20,
              subsample=1.0, seed=0, feature_names=None) -> BoostedModel:
    """Gradient boosting with squared-error trees and Newton leaf updates.

    Each round fits a tree to the residuals r = y - p on a seeded row
    subsample, then sets every leaf to sum(r)/sum(p(1-p)) over its
    subsample rows. A leaf whose denominator vanishes would take an
    infinite log-odds step; it is clipped to +/-LEAF_CLIP instead.
    """
    # zero rounds is a valid base-rate model
    if not isinstance(n_trees, numbers.Integral) or n_trees < 0:
        raise ScorekitError("gbm needs an integer n_trees >= 0, got %r" % (n_trees,))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    f0 = log_odds(float(np.mean(y)))
    score = np.full(n, f0)
    trees = []
    losses = []
    for t in range(n_trees):
        prob = sigmoid(score)
        resid = y - prob
        rng = np.random.default_rng((seed, t))
        rows = _subsample_rows(rng, n, subsample)
        Xs = X[rows]
        tree = build_tree(Xs, resid[rows], objective="mse",
                          max_depth=max_depth, min_leaf=min_leaf)

        weight = (prob * (1.0 - prob))[rows]
        r_sub = resid[rows]
        leaf_of = tree_leaves(tree, Xs)
        for k in np.flatnonzero(tree.left < 0):
            idx = np.flatnonzero(leaf_of == k)  # ascending rows: a fixed summation order
            num = float(np.sum(r_sub[idx]))
            den = float(np.sum(weight[idx]))
            if den <= 1e-12:
                tree.value[k] = 0.0 if num == 0.0 else np.copysign(LEAF_CLIP, num)
            else:
                tree.value[k] = num / den
        trees.append(tree)
        score = score + learning_rate * predict_tree(tree, X)
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
    if not isinstance(n_trees, numbers.Integral) or n_trees < 0:
        raise ScorekitError("xgb needs an integer n_trees >= 0, got %r" % (n_trees,))
    if not isinstance(lam, numbers.Real) or not lam >= 0:  # NaN fails too
        raise ScorekitError("xgb needs lam >= 0, got %r" % (lam,))
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    f0 = log_odds(float(np.mean(y)))
    score = np.full(n, f0)
    trees = []
    losses = []
    gains = np.zeros(p)
    for t in range(n_trees):
        prob = sigmoid(score)
        grad = prob - y
        hess = prob * (1.0 - prob)
        rng = np.random.default_rng((seed, t))
        rows = _subsample_rows(rng, n, subsample)
        if colsample < 1.0:
            k = max(1, int(round(colsample * p)))
            cols = np.sort(rng.choice(p, size=k, replace=False))
        else:
            cols = np.arange(p)
        tree = build_tree(X[np.ix_(rows, cols)], grad[rows], hess[rows],
                          objective="grad", max_depth=max_depth, min_leaf=1,
                          lam=lam, gamma=gamma)
        internal = tree.left >= 0
        tree.feature[internal] = cols[tree.feature[internal]]
        # add gains in one fixed order (root, then the right subtree before
        # the left): float sums depend on it, and feature_gain_ ranks features
        stack = [0]
        while stack:
            k = stack.pop()
            if internal[k]:
                gains[tree.feature[k]] += tree.gain[k]
                stack += (tree.left[k], tree.right[k])
        trees.append(tree)
        score = score + learning_rate * predict_tree(tree, X)
        losses.append(log_loss(y, sigmoid(score)))

    model = BoostedModel(f0, trees, learning_rate, feature_names,
                         variant="xgb", lam=lam, gamma=gamma,
                         params={"n_trees": n_trees, "max_depth": max_depth,
                                 "subsample": subsample, "colsample": colsample,
                                 "seed": seed})
    model.train_loss_ = losses
    model.feature_gain_ = gains
    return model

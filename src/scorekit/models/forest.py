"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from .base import check_params
from .tree import RankTable, TreeModel, grow_trees


class ForestModel(TreeModel):
    """Probability = mean over trees of the leaf class-1 proportion: 0.0
    plus each tree's leaf value in tree order, divided by the tree count.
    Soft voting keeps scores graded enough for rank metrics.

    The forest is scored through the bit-vector form of its trees when that
    fits the table budget, else by walking them; the compiled form lives
    only in memory.
    """

    model_kind = "forest"
    offset = (0.0, 1.0)

    def __init__(self, trees, feature_names, mtry, seed, max_depth=None, min_leaf=1):
        super().__init__(trees, feature_names)
        self.mtry = mtry
        self.seed = seed
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def link(self, raw: np.ndarray) -> np.ndarray:
        return raw / len(self.trees)


def train_random_forest(X, y, n_trees=100, mtry=None, max_depth=None,
                        min_leaf=1, seed=0, feature_names=None, threads=1) -> ForestModel:
    """Fit n_trees CART trees on independent bootstrap samples.

    mtry defaults to ceil(sqrt(p)). Each tree draws its bootstrap sample,
    then its mtry columns once per level, from its own RNG stream (seed,
    tree index), and the trees grow side by side, level by level
    (`grow_trees`), so a tree depends neither on thread count nor on the
    trees grown beside it. y must be 0/1.
    """
    check_params("forest", n_trees=n_trees, mtry=mtry, max_depth=max_depth, min_leaf=min_leaf)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if mtry is None:
        mtry = int(math.ceil(math.sqrt(p)))
    mtry = min(mtry, p)
    if feature_names is None:
        feature_names = ["x%d" % j for j in range(p)]

    rngs = [np.random.default_rng((seed, t)) for t in range(n_trees)]
    trees = grow_trees(RankTable(X), y, None,
                       [rng.integers(0, n, size=n) for rng in rngs],
                       rngs, objective="gini", max_depth=max_depth, min_leaf=min_leaf,
                       mtry=mtry, threads=threads)

    return ForestModel(trees, feature_names, mtry=mtry, seed=seed,
                       max_depth=max_depth, min_leaf=min_leaf)

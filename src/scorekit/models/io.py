"""Versioned JSON model artifacts: save any trained Predictor, load it back."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import BadModel
from ..woe import WoeTable
from .boosting import BoostedModel
from .forest import ForestModel
from .logistic import LogisticModel
from .tree import NODE_ARRAYS, DecisionTree, Tree
from .woe_logistic import WoeLogisticModel

SCHEMA_VERSION = 2


def _logistic_block(model: LogisticModel) -> dict:
    return {
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": model.intercept,
        "converged": model.converged,
        "n_iter": model.n_iter,
    }


def _document(model, train_config: dict | None) -> dict:
    """The model document, its "trees" left as `Tree`s."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": model.model_kind,
        "feature_names": model.feature_names,
        "train_config": train_config or {},
    }
    if isinstance(model, WoeLogisticModel):
        doc["logistic"] = _logistic_block(model.logistic)
        doc["woe_tables"] = {name: t.to_dict() for name, t in sorted(model.tables.items())}
    elif isinstance(model, LogisticModel):
        doc.update(_logistic_block(model))
    elif isinstance(model, DecisionTree):
        doc.update(trees=[model.tree], max_depth=model.max_depth, min_leaf=model.min_leaf)
    elif isinstance(model, ForestModel):
        doc.update(trees=model.trees, mtry=model.mtry, seed=model.seed,
                   max_depth=model.max_depth, min_leaf=model.min_leaf)
    elif isinstance(model, BoostedModel):
        doc.update(trees=model.trees, initial_score=model.initial_score,
                   learning_rate=model.learning_rate,
                   variant=model.variant, lam=model.lam, gamma=model.gamma,
                   params=model.params)
    else:
        raise TypeError("cannot serialize model of type %s" % type(model).__name__)
    return doc


def _tree_arrays(tree: Tree) -> dict:
    return {name: getattr(tree, name).tolist() for name, _ in NODE_ARRAYS}


def model_to_dict(model, train_config: dict | None = None) -> dict:
    doc = _document(model, train_config)
    if "trees" in doc:
        doc["trees"] = [_tree_arrays(tree) for tree in doc["trees"]]
    return doc


def _check_finite(what: str, values) -> None:
    """BadModel when a number of `values` is NaN or infinite: `train`
    writes none, and scores made from one would be NaN or saturated."""
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise BadModel("a non-finite %s" % what)


def _tree(arrays: dict, n_features: int, i: int) -> Tree:
    """Tree i of a document; BadModel if `grow_trees` could not have grown it."""
    tree = Tree(**{name: np.array(arrays[name], dtype=code) for name, code in NODE_ARRAYS})
    n = len(tree.left)
    if n == 0 or any(getattr(tree, name).shape != (n,) for name, _ in NODE_ARRAYS):
        raise BadModel("tree %d: node arrays of unequal length or no nodes" % i)
    # end[k]: one past k's subtree in preorder; a node out of order leaves end[0] 0
    left, right, end = tree.left.tolist(), tree.right.tolist(), [0] * n
    for k in range(n - 1, -1, -1):
        if left[k] == right[k] == -1:
            end[k] = k + 1
        elif left[k] == k + 1 < n and right[k] == end[k + 1] < n:
            end[k] = end[right[k]]
        else:
            break
    if end[0] != n:
        raise BadModel("tree %d: left and right are not the children of a preorder tree" % i)
    split = tree.left >= 0
    if ((tree.feature[split] < 0) | (tree.feature[split] >= n_features)).any():
        raise BadModel("tree %d: a feature index outside the %d feature names" % (i, n_features))
    if np.isnan(tree.threshold[split]).any():
        raise BadModel("tree %d: a NaN threshold" % i)
    _check_finite("value in tree %d" % i, tree.value)
    return tree


def _logistic(block: dict, names) -> LogisticModel:
    if len(block["coefficients"]) != len(names):
        raise BadModel("%d coefficients for %d feature names"
                       % (len(block["coefficients"]), len(names)))
    _check_finite("coefficient", block["coefficients"])
    _check_finite("intercept", block["intercept"])
    return LogisticModel(block["coefficients"], block["intercept"], names,
                         converged=block["converged"], n_iter=block["n_iter"])


def model_from_dict(doc: dict):
    """The model of a schema-2 document; BadModel for one `train` does not
    write (KeyError, TypeError or ValueError for a missing or malformed key)."""
    if doc["schema_version"] != SCHEMA_VERSION:
        raise BadModel("schema_version %r, but this scorekit reads only %d: retrain the model"
                       % (doc["schema_version"], SCHEMA_VERSION))
    kind = doc["model_kind"]
    names = doc["feature_names"]
    if kind == "logistic":
        return _logistic(doc, names)
    if kind == "logistic_woe":
        tables = {name: WoeTable.from_dict(doc["woe_tables"][name]) for name in names}
        return WoeLogisticModel(tables, _logistic(doc["logistic"], names), names)
    if kind not in ("tree", "forest", "gbm", "xgb"):
        raise BadModel("unknown model_kind %r" % (kind,))
    trees = [_tree(arrays, len(names), i) for i, arrays in enumerate(doc["trees"])]
    if kind == "tree" and len(trees) != 1 or kind == "forest" and not trees:
        raise BadModel("a %s of %d trees" % (kind, len(trees)))
    if kind == "tree":
        return DecisionTree(trees[0], names, max_depth=doc["max_depth"], min_leaf=doc["min_leaf"])
    if kind == "forest":
        return ForestModel(trees, names, mtry=doc["mtry"], seed=doc["seed"],
                           max_depth=doc["max_depth"], min_leaf=doc["min_leaf"])
    _check_finite("initial_score", doc["initial_score"])
    _check_finite("learning_rate", doc["learning_rate"])
    return BoostedModel(doc["initial_score"], trees, doc["learning_rate"],
                        names, variant=doc["variant"], lam=doc["lam"],
                        gamma=doc["gamma"], params=doc["params"])


def save_model(model, path, train_config: dict | None = None):
    """Write the bytes of json.dump(model_to_dict(...), sort_keys=True,
    separators=(",", ":")) and a newline, one tree at a time: each value and
    each tree's arrays go through the C encoder on their own, so the lists
    of all trees never exist at once."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    doc = _document(model, train_config)
    with open(Path(path), "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(doc)):
            fh.write("%s%s:" % ("," if i else "{", encode(key)))
            if key == "trees":
                fh.write("[")
                for t, tree in enumerate(doc[key]):
                    fh.write("%s%s" % ("," if t else "", encode(_tree_arrays(tree))))
                fh.write("]")
            else:
                fh.write(encode(doc[key]))
        fh.write("}\n")


def load_model(path):
    """The model saved at `path`. A file that does not parse or that `train`
    could not have written raises BadModel naming the file."""
    try:
        with open(Path(path), encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except KeyError as exc:
        raise BadModel("%s: missing key %s" % (path, exc)) from None
    except (BadModel, OverflowError, TypeError, ValueError) as exc:  # and JSONDecodeError
        raise BadModel("%s: %s" % (path, exc)) from None

"""Versioned JSON model artifacts: save any trained Predictor, load it back."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..woe import WoeTable
from .boosting import BoostedModel
from .forest import ForestModel
from .logistic import LogisticModel
from .tree import DecisionTree, tree_from_flat, tree_to_flat
from .woe_logistic import WoeLogisticModel

SCHEMA_VERSION = 1


def _logistic_block(model: LogisticModel) -> dict:
    return {
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": model.intercept,
        "converged": model.converged,
        "n_iter": model.n_iter,
    }


def _document(model, train_config: dict | None) -> dict:
    """The model document, its trees left as `Tree`s: "nodes" holds the
    single tree's, "trees" a list of them."""
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
        doc["nodes"] = model.tree
        doc["max_depth"] = model.max_depth
        doc["min_leaf"] = model.min_leaf
        doc["objective"] = model.objective
    elif isinstance(model, ForestModel):
        doc["trees"] = model.trees
        doc.update(n_trees=model.n_trees, mtry=model.mtry, seed=model.seed,
                   max_depth=model.max_depth, min_leaf=model.min_leaf,
                   bootstrap=model.bootstrap, hard_vote=model.hard_vote)
    elif isinstance(model, BoostedModel):
        doc["trees"] = model.trees
        doc.update(initial_score=model.initial_score,
                   learning_rate=model.learning_rate,
                   variant=model.variant, lam=model.lam, gamma=model.gamma,
                   params=model.params)
    else:
        raise TypeError("cannot serialize model of type %s" % type(model).__name__)
    return doc


def model_to_dict(model, train_config: dict | None = None) -> dict:
    doc = _document(model, train_config)
    if "nodes" in doc:
        doc["nodes"] = tree_to_flat(doc["nodes"])
    if "trees" in doc:
        doc["trees"] = [tree_to_flat(t) for t in doc["trees"]]
    return doc


def model_from_dict(doc: dict):
    kind = doc["model_kind"]
    names = doc["feature_names"]
    if kind == "logistic":
        return LogisticModel(doc["coefficients"], doc["intercept"], names,
                             converged=doc["converged"], n_iter=doc["n_iter"])
    if kind == "logistic_woe":
        logistic = LogisticModel(
            doc["logistic"]["coefficients"], doc["logistic"]["intercept"], names,
            converged=doc["logistic"]["converged"], n_iter=doc["logistic"]["n_iter"])
        tables = {name: WoeTable.from_dict(d) for name, d in doc["woe_tables"].items()}
        return WoeLogisticModel(tables, logistic, names)
    if kind == "tree":
        return DecisionTree(tree_from_flat(doc["nodes"]), names,
                            max_depth=doc["max_depth"], min_leaf=doc["min_leaf"],
                            objective=doc["objective"])
    if kind == "forest":
        trees = [tree_from_flat(t) for t in doc["trees"]]
        return ForestModel(trees, names, n_trees=doc["n_trees"], mtry=doc["mtry"],
                           seed=doc["seed"], max_depth=doc["max_depth"],
                           min_leaf=doc["min_leaf"], bootstrap=doc["bootstrap"],
                           hard_vote=doc["hard_vote"])
    if kind in ("gbm", "xgb"):
        trees = [tree_from_flat(t) for t in doc["trees"]]
        return BoostedModel(doc["initial_score"], trees, doc["learning_rate"],
                            names, variant=doc["variant"], lam=doc["lam"],
                            gamma=doc["gamma"], params=doc["params"])
    raise ValueError("unknown model_kind %r" % kind)


def save_model(model, path, train_config: dict | None = None):
    """Write the bytes of json.dump(model_to_dict(...), sort_keys=True,
    separators=(",", ":")) and a newline, one tree at a time: each value and
    each tree's node list goes through the C encoder on its own, so the
    node records of all trees never exist at once."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    doc = _document(model, train_config)
    with open(Path(path), "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(doc)):
            fh.write("%s%s:" % ("," if i else "{", encode(key)))
            if key == "nodes":
                fh.write(encode(tree_to_flat(doc[key])))
            elif key == "trees":
                fh.write("[")
                for t, tree in enumerate(doc[key]):
                    fh.write("%s%s" % ("," if t else "", encode(tree_to_flat(tree))))
                fh.write("]")
            else:
                fh.write(encode(doc[key]))
        fh.write("}\n")


def load_model(path):
    with open(Path(path), encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

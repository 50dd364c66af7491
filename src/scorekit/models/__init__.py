"""Model families behind one prediction interface."""

from .base import Predictor, sigmoid
from .boosting import BoostedModel, log_loss, log_odds, train_gbm, train_xgb
from .forest import ForestModel, train_random_forest
from .io import load_model, model_from_dict, model_to_dict, save_model
from .logistic import LogisticModel, train_logistic
from .search import TrainConfig, random_search, sample_params
from .tree import DecisionTree, Tree, build_tree, predict_tree, train_tree
from .woe_logistic import WoeLogisticModel, train_woe_logistic

__all__ = [
    "Predictor",
    "sigmoid",
    "log_odds",
    "log_loss",
    "LogisticModel",
    "train_logistic",
    "DecisionTree",
    "Tree",
    "build_tree",
    "predict_tree",
    "train_tree",
    "ForestModel",
    "train_random_forest",
    "BoostedModel",
    "train_gbm",
    "train_xgb",
    "TrainConfig",
    "random_search",
    "sample_params",
    "WoeLogisticModel",
    "train_woe_logistic",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

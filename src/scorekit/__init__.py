"""Credit default scoring toolkit.

Trains interpretable and tree-ensemble probability-of-default models
behind one prediction interface, evaluates them on temporally split data
(train / test / out-of-sample / out-of-time), and explains any of them
with model-agnostic methods: permutation importance, partial dependence,
ceteris paribus profiles and break-down attributions.
"""

from . import charts, data, explain, metrics, models, selection, synth, woe
from .data import (
    Dataset,
    DummyEncoder,
    Feature,
    MeanImputer,
    SplitSet,
    load_csv,
    temporal_split,
)
from .explain import (
    BreakDownResult,
    CpProfile,
    PdpProfile,
    PfiResult,
    break_down,
    ceteris_paribus,
    partial_dependence,
    partial_dependence_2d,
    permutation_importance,
)
from .metrics import MetricReport, auc, evaluate, gini, ks_statistic
from .models import (
    BoostedModel,
    DecisionTree,
    ForestModel,
    LogisticModel,
    Predictor,
    WoeLogisticModel,
    load_model,
    random_search,
    save_model,
    train_gbm,
    train_logistic,
    train_random_forest,
    train_tree,
    train_woe_logistic,
    train_xgb,
)
from .selection import ks_filter, preselect_by_boosting, reject_models, run_selection, split_by_unique_count
from .synth import make_credit_data
from .woe import BinningSpec, WoeTable, compute_woe, fit_bins, fit_woe_tables, woe_transform

__version__ = "0.1.0"

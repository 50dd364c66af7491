"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight fixtures (20k-row corpus over seeds 1-5 with all
five model families) are built once per session.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from scorekit.cli import main as cli_main
from scorekit.data import temporal_split
from scorekit.explain import (
    break_down,
    ceteris_paribus,
    partial_dependence,
    permutation_importance,
)
from scorekit.metrics import auc, evaluate, gini, ks_statistic
from scorekit.models import (
    LogisticModel,
    train_gbm,
    train_logistic,
    train_random_forest,
    train_woe_logistic,
    train_xgb,
)
from scorekit.models.tree import build_tree, leaf_weight_grad
from scorekit.selection import run_selection
from scorekit.synth import make_credit_data

from conftest import numeric_dataset
from test_explain import cp_mean_equals_pdp
from test_metrics import auc_pair_oracle, ks_brute_oracle
from test_tree import best_split_oracle

SEEDS = (1, 2, 3, 4, 5)
FAMILIES = ("logistic", "logistic_woe", "forest", "gbm", "xgb")


def criterion(num: int, desc: str, ok: bool, detail: str = ""):
    print("ACCEPTANCE %2d [%s]: %s %s" % (num, desc, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed %s" % (num, desc, detail)


def train_all_families(splits, names, seed, rf_trees=30, boost_trees=120):
    Xtr = splits.train.matrix(names)
    ytr = splits.train.target
    return {
        "logistic": train_logistic(Xtr, ytr, feature_names=names),
        "logistic_woe": train_woe_logistic(splits.train, names),
        "forest": train_random_forest(Xtr, ytr, n_trees=rf_trees, max_depth=None,
                                      min_leaf=1, seed=seed, feature_names=names),
        "gbm": train_gbm(Xtr, ytr, n_trees=boost_trees, learning_rate=0.1,
                         max_depth=3, min_leaf=20, subsample=0.8, seed=seed,
                         feature_names=names),
        "xgb": train_xgb(Xtr, ytr, n_trees=boost_trees, learning_rate=0.1,
                         max_depth=3, lam=1.0, subsample=0.8, colsample=0.8,
                         seed=seed, feature_names=names),
    }


@pytest.fixture(scope="session")
def corpus():
    """Per seed: 20k-row generated sample, temporal splits, all families."""
    out = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        dataset, info = make_credit_data(n_rows=20000, seed=seed)
        splits = temporal_split(dataset, test_fraction=0.3, oot_start="2018-08-31",
                                oot_end="2018-11-30", seed=seed)
        names = dataset.feature_names
        models = train_all_families(splits, names, seed)
        reports = {name: evaluate(model, splits) for name, model in models.items()}
        elapsed = time.perf_counter() - t0
        out[seed] = SimpleNamespace(info=info, splits=splits, names=names,
                                    models=models, reports=reports, elapsed=elapsed)
    return out


@pytest.fixture(scope="session")
def compact_models(request):
    """Small per-family models for the explainer criteria."""
    rng = np.random.default_rng(99)
    n, names = 1200, ["f%d" % j for j in range(6)]
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] - 0.8 * X[:, 1] + np.maximum(X[:, 2], 0)
         + 0.6 * rng.normal(size=n) > 0).astype(int)
    dataset = numeric_dataset(dict(zip(names, X.T)), y)
    models = {
        "logistic": train_logistic(X, y, feature_names=names),
        "logistic_woe": train_woe_logistic(dataset, names),
        "forest": train_random_forest(X, y, n_trees=10, max_depth=8, seed=0,
                                      feature_names=names),
        "gbm": train_gbm(X, y, n_trees=25, max_depth=2, min_leaf=20, seed=0,
                         feature_names=names),
        "xgb": train_xgb(X, y, n_trees=25, max_depth=2, seed=0, feature_names=names),
    }
    return SimpleNamespace(X=X, y=y, names=names, models=models)


def test_criterion_1_metric_oracles(rng):
    t0 = time.perf_counter()
    worst_auc = worst_ks = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 501))
        scores = np.round(rng.normal(size=n), 2)  # coarse rounding injects ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auc = max(worst_auc, abs(auc(scores, labels) - auc_pair_oracle(scores, labels)))
        worst_ks = max(worst_ks, abs(ks_statistic(scores, labels) - ks_brute_oracle(scores, labels)))
    elapsed = time.perf_counter() - t0
    criterion(1, "metric oracles", worst_auc <= 1e-12 and worst_ks <= 1e-12 and elapsed < 10.0,
              "max|dAUC|=%.2e max|dKS|=%.2e %.1fs" % (worst_auc, worst_ks, elapsed))


def test_criterion_2_gini_identity(corpus):
    checked = 0
    exact = True
    for seed in SEEDS:
        for report in corpus[seed].reports.values():
            for rec in report.splits:
                if rec.gini is None:
                    continue
                exact = exact and rec.gini == 2.0 * rec.auc - 1.0
                checked += 1
    scores = np.linspace(0, 1, 101)
    labels = (np.arange(101) % 3 == 0).astype(int)
    exact = exact and gini(scores, labels) == 2.0 * auc(scores, labels) - 1.0
    criterion(2, "gini identity", exact and checked >= 100,
              "%d evaluations checked" % (checked + 1))


def test_criterion_3_break_down_additivity(compact_models, rng):
    X = compact_models.X
    names = compact_models.names
    background = X[:200]
    instances = X[rng.choice(len(X), size=20, replace=False)]
    worst = 0.0
    runs = 0
    for model in compact_models.models.values():
        for row in instances:
            for ordering in ("greedy", names):
                result = break_down(model, background, row, ordering=ordering)
                gap = abs(result.intercept + sum(d for _, d in result.contributions)
                          - result.final_prediction)
                worst = max(worst, gap)
                runs += 1
    criterion(3, "break-down additivity", worst <= 1e-9,
              "%d decompositions, worst gap %.2e" % (runs, worst))


def test_criterion_4_pdp_is_mean_of_cp(compact_models):
    X = compact_models.X
    worst = 0.0
    for model in compact_models.models.values():
        for feature in ("f0", "f2", "f4"):
            j = compact_models.names.index(feature)
            grid = np.quantile(X[:, j], np.linspace(0.05, 0.95, 9))
            profile = partial_dependence(model, X, feature, grid_spec=grid)
            via_cp = cp_mean_equals_pdp(model, X, feature, profile.grid)
            worst = max(worst, float(np.max(np.abs(profile.mean_prediction - via_cp))))
    criterion(4, "PDP equals mean CP", worst <= 1e-12, "worst gap %.2e" % worst)


def test_criterion_5_pfi_null_and_signal(corpus, rng):
    # exact-zero drops for features the fitted model cannot see
    n = 800
    X = np.column_stack([rng.normal(size=n), np.full(n, 3.0), rng.normal(size=n)])
    y = (X[:, 0] > 0).astype(int)
    names = ["live", "frozen", "spare"]
    null_ok = True
    for model in (
        train_gbm(X, y, n_trees=15, max_depth=2, min_leaf=10, feature_names=names),
        train_xgb(X, y, n_trees=15, max_depth=2, feature_names=names),
        train_random_forest(X, y, n_trees=10, seed=0, feature_names=names),
        LogisticModel([2.0, 0.0, 0.4], 0.0, names),
    ):
        result = permutation_importance(model, X, y, n_repeats=5, seed=1)
        drops = result.drops[result.features.index("frozen")]
        null_ok = null_ok and (drops == 0.0).all()

    # informative beats noise on the generated corpus, every seed
    margins = []
    signal_ok = True
    for seed in SEEDS:
        c = corpus[seed]
        Xev = c.splits.test.matrix(c.names)[:4000]
        yev = c.splits.test.target[:4000]
        result = permutation_importance(c.models["gbm"], Xev, yev,
                                        n_repeats=10, seed=seed)
        drop = dict(zip(result.features, result.mean_drop))
        inf_min = min(drop[name] for name in c.info["informative"])
        noise_max = max(drop[name] for name in c.info["noise"])
        margins.append(inf_min - noise_max)
        signal_ok = signal_ok and inf_min > noise_max
    criterion(5, "PFI null exactness + signal ordering", null_ok and signal_ok,
              "min margin %.4f" % min(margins))


def test_criterion_6_model_ordering(corpus):
    gbm_wins = woe_wins = 0
    details = []
    for seed in SEEDS:
        r = corpus[seed].reports
        log_t = r["logistic"].gini_on("test")
        gbm_t = r["gbm"].gini_on("test")
        woe_t = r["logistic_woe"].gini_on("test")
        gbm_wins += gbm_t >= log_t + 0.03
        woe_wins += woe_t >= log_t
        details.append("s%d:gbm-log=%+.3f,woe-log=%+.3f" % (seed, gbm_t - log_t, woe_t - log_t))
    slowest = max(corpus[seed].elapsed for seed in SEEDS)
    criterion(6, "model ordering + runtime", gbm_wins >= 4 and woe_wins >= 4 and slowest <= 300.0,
              "%s slowest pipeline %.0fs" % (" ".join(details), slowest))


def test_criterion_7_rf_overfit_signature(corpus):
    ok = True
    details = []
    for seed in SEEDS:
        rec = corpus[seed].reports["forest"]
        train_g = rec.gini_on("train")
        test_g = rec.gini_on("test")
        ok = ok and train_g >= 0.99 and test_g < train_g
        details.append("s%d:%.3f/%.3f" % (seed, train_g, test_g))
    criterion(7, "random-forest overfit signature", ok, " ".join(details))


def test_criterion_8_oot_degradation(corpus):
    ok = True
    details = []
    for family in FAMILIES:
        wins = sum(
            corpus[seed].reports[family].gini_on("out_of_time")
            <= corpus[seed].reports[family].gini_on("test")
            for seed in SEEDS
        )
        ok = ok and wins >= 4
        details.append("%s:%d/5" % (family, wins))
    criterion(8, "out-of-time degradation", ok, " ".join(details))


def test_criterion_9_selection_pipeline_shape():
    ok = True
    details = []
    for seed in SEEDS:
        dataset, info = make_credit_data(n_rows=4000, n_informative=10, n_noise=88,
                                         n_constant=2, seed=seed, signal_scale=3.6)
        report = run_selection(dataset, unique_threshold=300, top_k=81,
                               min_ks=0.1, seed=seed, xgb_config={"n_trees": 30})
        nested = set(report.survivors_ks) <= set(report.survivors_preselect) \
            <= set(report.partitions)
        informative_kept = set(info["informative"]) <= set(report.survivors_ks)
        constants_gone = all(c not in report.survivors_ks for c in info["constants"])
        ok = ok and nested and informative_kept and constants_gone
        details.append("s%d:%d->%d->%d" % (seed, len(report.partitions),
                                           len(report.survivors_preselect),
                                           len(report.survivors_ks)))
    criterion(9, "selection pipeline shape", ok, " ".join(details))


def test_criterion_10_end_to_end_determinism(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({
        "synth": {"n_rows": 1500},
        "selection": {"top_k": 10, "xgb": {"n_trees": 20}},
        "models": {"forest": {"n_trees": 8, "min_leaf": 1, "max_depth": None},
                   "gbm": {"n_trees": 10, "max_depth": 2, "min_leaf": 10}},
        "explain": {"n_repeats": 2, "grid_points": 7, "background_rows": 60},
    }), encoding="utf-8")

    outputs = []
    for label, threads in (("a", 1), ("b", 3)):
        out = tmp_path / label
        steps = [
            ["synth", "--config", str(config_path), "--out", str(out), "--seed", "11"],
            ["split", "--config", str(out / "config.yaml"), "--out", str(out)],
            ["select", "--config", str(out / "config.yaml"), "--out", str(out)],
            ["train", "--family", "gbm", "--config", str(out / "config.yaml"), "--out", str(out)],
            ["train", "--family", "forest", "--config", str(out / "config.yaml"), "--out", str(out)],
            ["explain", "--what", "bd", "--instance", "1",
             "--model", str(out / "model_gbm.json"),
             "--config", str(out / "config.yaml"), "--out", str(out)],
            ["report", "--config", str(out / "config.yaml"), "--out", str(out)],
        ]
        for step in steps:
            assert cli_main(step + ["--threads", str(threads)]) == 0
        payload = {}
        for path in sorted(out.rglob("*.json")) + sorted(out.rglob("*.svg")) \
                + sorted(out.rglob("*.csv")):
            rel = str(path.relative_to(out))
            if path.name == "manifest.json" or path.name.startswith("timing_") \
                    or rel == "report.csv":
                continue  # documented volatile outputs (wall-clock content)
            payload[rel] = path.read_bytes()
        outputs.append(payload)
    same_keys = outputs[0].keys() == outputs[1].keys()
    diffs = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
    criterion(10, "end-to-end determinism across thread counts",
              same_keys and not diffs,
              "%d artifacts compared%s" % (len(outputs[0]),
                                           "" if not diffs else "; differ: %s" % diffs))


def test_criterion_11_trainer_correctness(rng):
    # intercept-only logistic matches the closed form
    y = np.array([1, 0, 0, 0] * 6)  # mean 0.25
    model = train_logistic(np.empty((24, 0)), y)
    intercept_ok = abs(model.intercept - math.log(0.25 / 0.75)) <= 1e-8

    # second-order leaf weights match -G/(H+lambda) exactly
    leaf_ok = leaf_weight_grad(2.0, 3.0, 1.0) == -0.5
    tree = build_tree(np.zeros((3, 1)), np.array([1.0, 0.5, 0.5]),
                      np.array([1.0, 1.0, 1.0]), objective="grad", lam=1.0)
    leaf_ok = leaf_ok and tree.left[0] < 0 and tree.value[0] == -2.0 / 4.0

    # greedy split equals exhaustive enumeration on small fixtures
    split_ok = True
    for _ in range(30):
        n = int(rng.integers(6, 21))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        y_small = rng.integers(0, 2, size=n).astype(float)
        if y_small.min() == y_small.max():
            y_small[0] = 1 - y_small[0]
        oracle = best_split_oracle(X, y_small)
        tree = build_tree(X, y_small, objective="gini", max_depth=1)
        if oracle is None or oracle[0] <= 1e-12:
            split_ok = split_ok and tree.left[0] < 0
        else:
            split_ok = split_ok and tree.left[0] >= 0 \
                and abs(tree.gain[0] - oracle[0]) <= 1e-12
    criterion(11, "trainer correctness", intercept_ok and leaf_ok and split_ok,
              "intercept|leaf|split = %s|%s|%s" % (intercept_ok, leaf_ok, split_ok))

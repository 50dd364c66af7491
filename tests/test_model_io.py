import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit.models import (
    load_model,
    model_to_dict,
    save_model,
    train_gbm,
    train_logistic,
    train_random_forest,
    train_tree,
    train_woe_logistic,
    train_xgb,
)
from scorekit.models.tree import Tree

from conftest import numeric_dataset

TREE_ARRAYS = [f.name for f in dataclasses.fields(Tree)]
FAMILIES = ["logistic", "logistic_woe", "tree", "forest", "gbm", "xgb"]


def trees_of(model):
    return model.trees if hasattr(model, "trees") else [model.tree]


@pytest.fixture
def fixture_data(rng):
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] - X[:, 1] + 0.4 * rng.normal(size=200) > 0).astype(int)
    y[:2] = [0, 1]
    return X, y, ["a", "b", "c"]


def all_models(X, y, names):
    dataset = numeric_dataset(dict(zip(names, X.T)), y)
    return [
        train_logistic(X, y, feature_names=names),
        train_woe_logistic(dataset, names, max_bins=4),
        train_tree(X, y, max_depth=3, min_leaf=5, feature_names=names),
        train_random_forest(X, y, n_trees=5, seed=2, feature_names=names),
        train_gbm(X, y, n_trees=5, max_depth=2, min_leaf=5, seed=2, feature_names=names),
        train_xgb(X, y, n_trees=5, max_depth=2, seed=2, feature_names=names),
    ]


def test_round_trip_preserves_predictions(tmp_path, fixture_data):
    X, y, names = fixture_data
    for model in all_models(X, y, names):
        path = tmp_path / ("%s.json" % model.model_kind)
        save_model(model, path, train_config={"note": "fixture"})
        clone = load_model(path)
        assert clone.model_kind == model.model_kind
        assert clone.feature_names == names
        assert np.array_equal(clone.predict_proba(X), model.predict_proba(X))


def test_matrix_of_the_wrong_width_raises(fixture_data):
    X, y, names = fixture_data
    for model in all_models(X, y, names):
        for wrong in (X[:, :2], np.column_stack([X, X[:, :1]])):
            with pytest.raises(ValueError, match="expected 3 feature columns, got %d"
                               % wrong.shape[1]):
                model.predict_proba(wrong)


def test_artifact_bytes_deterministic(tmp_path, fixture_data):
    X, y, names = fixture_data
    model = train_gbm(X, y, n_trees=4, max_depth=2, min_leaf=5, seed=0,
                      feature_names=names)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_artifact_carries_schema_version(tmp_path, fixture_data):
    X, y, names = fixture_data
    path = tmp_path / "m.json"
    save_model(train_logistic(X, y, feature_names=names), path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    assert doc["model_kind"] == "logistic"


def test_saved_bytes_equal_one_json_dump(tmp_path, fixture_data):
    # save_model encodes tree by tree; the bytes are those of one dump
    X, y, names = fixture_data
    models = all_models(X, y, names) + [
        train_gbm(X, y, n_trees=0, feature_names=names),
        train_xgb(X, y, n_trees=0, feature_names=names),
        train_random_forest(X, y, n_trees=1, seed=3, feature_names=names),
    ]
    config = {"params": {"n": 3, "b": [0.5, None, "x"]}, "family": "any"}
    for i, model in enumerate(models):
        path = tmp_path / ("%d.json" % i)
        save_model(model, path, train_config=config)
        expected = io.StringIO()
        json.dump(model_to_dict(model, train_config=config), expected, sort_keys=True,
                  separators=(",", ":"))
        expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8"), model.model_kind
        # schema 2: every tree model lists its trees, each the seven Tree arrays
        doc = json.loads(path.read_text())
        assert not {"nodes", "n_trees", "bootstrap", "hard_vote"} & set(doc)
        if model.model_kind not in ("logistic", "logistic_woe"):
            assert doc["trees"] == [{name: getattr(tree, name).tolist() for name in TREE_ARRAYS}
                                    for tree in trees_of(model)]


# a coarse grid makes ties and thresholds between grid values
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


def train_family(family, X, y, names, seed):
    if family == "logistic":  # fitted on finite values only
        return train_logistic(np.nan_to_num(X), y, feature_names=names)
    if family == "logistic_woe":
        return train_woe_logistic(numeric_dataset(dict(zip(names, X.T)), y), names, max_bins=4)
    if family == "tree":
        return train_tree(X, y, max_depth=4, feature_names=names)
    if family == "forest":
        return train_random_forest(X, y, n_trees=4, seed=seed, feature_names=names)
    train = train_gbm if family == "gbm" else train_xgb
    return train(X, y, n_trees=4, max_depth=2, seed=seed, feature_names=names)


@st.composite
def saved_models(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.choice(np.array(GRID + [np.nan]), size=(n, p))
    X[0] = np.nan  # every WOE column gets a missing bin
    y = rng.integers(0, 2, n).astype(float)
    y[:2] = [0.0, 1.0]
    return family, X, y, rng, draw(st.integers(0, 40))


@settings(deadline=None, max_examples=200)
@given(case=saved_models())
def test_save_load_predict_byte_identical(tmp_path_factory, case):
    family, X, y, rng, m = case
    names = ["x%d" % j for j in range(X.shape[1])]
    model = train_family(family, X, y, names, seed=int(rng.integers(100)))
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(model, path)
    clone = load_model(path)
    # query cells: NaN, +-inf, grid values and every split point of the model
    splits = ([t.threshold[t.left >= 0] for t in trees_of(model)] if hasattr(clone, "trees")
              else [t.spec.cut_points for t in getattr(model, "tables", {}).values()])
    cells = np.concatenate([[np.nan, np.inf, -np.inf, 0.25], GRID] + splits)
    Q = rng.choice(cells, size=(m, X.shape[1]))
    with np.errstate(invalid="ignore"):  # logistic: 0 * inf
        assert clone.predict_proba(Q).tobytes() == model.predict_proba(Q).tobytes()
    if hasattr(clone, "trees"):
        for got, want in zip(trees_of(clone), trees_of(model), strict=True):
            for name in TREE_ARRAYS:
                assert getattr(got, name).dtype == getattr(want, name).dtype, name
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

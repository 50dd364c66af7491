import io
import json

import numpy as np
import pytest

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

from conftest import numeric_dataset


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


def test_artifact_bytes_deterministic(tmp_path, fixture_data):
    X, y, names = fixture_data
    model = train_gbm(X, y, n_trees=4, max_depth=2, min_leaf=5, seed=0,
                      feature_names=names)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_artifact_carries_schema_version(tmp_path, fixture_data):
    import json

    X, y, names = fixture_data
    path = tmp_path / "m.json"
    save_model(train_logistic(X, y, feature_names=names), path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
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

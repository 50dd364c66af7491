"""The packaged commented YAML is the only source of defaults, and every user
key is checked against it."""

import datetime
import json
import re
import tomllib
from pathlib import Path

import pytest
import yaml

from scorekit.cli import _write_resolved_config, main
from scorekit.config import DEFAULTS_PATH, _YAML_LOADER, load_config
from scorekit.errors import BadParameter


def test_shipped_config_matches_defaults():
    shipped = yaml.safe_load(DEFAULTS_PATH.read_text(encoding="utf-8"))
    assert load_config() == shipped
    # json tells 1 from 1.0 and True, and fails on a date the YAML left unquoted
    assert json.dumps(load_config()) == json.dumps(shipped)


def test_defaults_are_package_data():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        setuptools = tomllib.load(fh)["tool"]["setuptools"]
    assert DEFAULTS_PATH.name in setuptools["package-data"][DEFAULTS_PATH.parent.name]


def test_override_merging_is_deep():
    defaults = load_config()
    config = load_config(None, {"models": {"gbm": {"n_trees": 7}}})
    assert config["models"]["gbm"]["n_trees"] == 7
    assert config["models"]["gbm"]["max_depth"] == defaults["models"]["gbm"]["max_depth"]
    assert config["models"]["logistic"] == defaults["models"]["logistic"]


def test_each_call_gets_its_own_copy():
    first = load_config()
    first["models"]["gbm"]["n_trees"] = -1
    assert load_config()["models"]["gbm"]["n_trees"] != -1


def test_seed_flag_beats_config(tmp_path):
    user = tmp_path / "cfg.yaml"
    user.write_text("seed: 5\n", encoding="utf-8")
    assert load_config(user)["seed"] == 5
    assert load_config(user, {"seed": 9})["seed"] == 9


def test_config_loader_matches_safe_loader(tmp_path):
    resolved = _write_resolved_config(load_config(DEFAULTS_PATH), tmp_path)
    for path in (DEFAULTS_PATH, resolved):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.safe_load(text)


def test_resolved_config_is_a_fixed_point(tmp_path):
    config = load_config(None, {
        "data": {"csv": "data.csv", "schema": {"a": "numeric", "b": "categorical"}},
        "search": {"budget": 3, "spaces": {"forest": {"mtry": [1, 3]}}},
    })
    # schema names are free; a search space takes its family's parameters
    assert config["data"]["schema"] == {"a": "numeric", "b": "categorical"}
    assert config["search"]["spaces"]["forest"]["mtry"] == [1, 3]
    assert config["search"]["spaces"]["forest"]["n_trees"] == [40, 120]
    first = _write_resolved_config(config, tmp_path / "first")
    assert load_config(first) == config
    second = _write_resolved_config(load_config(first), tmp_path / "second")
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("override, message", [
    ({"split": {"test_fracton": 0.3}}, "unknown config key split.test_fracton"),
    ({"sede": 1}, "unknown config key sede"),
    ({"models": {"gbm": {"n_tress": 3}}}, "unknown config key models.gbm.n_tress"),
    ({"models": {"forest": {"hard_vote": True}}},
     "unknown config key models.forest.hard_vote"),
    ({"search": {"spaces": {"tree": {"min_lef": [1, 9]}}}},
     "unknown config key search.spaces.tree.min_lef"),
    ({"search": {"spaces": {"logistic": {"tol": [0.1, 0.2]}}}},
     "unknown config key search.spaces.logistic"),
    ({"explain": 5}, "config key explain needs a mapping, got 5"),
    ({"data": {"schema": None}}, "config key data.schema needs a mapping, got None"),
    ({"seed": {"value": 3}}, "config key seed takes a single value, not a mapping"),
    ({"models": {"tree": {"max_depth": {"max": 3}}}},
     "config key models.tree.max_depth takes a single value, not a mapping"),
    ({"models": {"tree": {"max_depth": "six"}}},
     "config key models.tree.max_depth takes int, got 'six'"),
    ({"models": {"gbm": {"learning_rate": "0.1"}}},
     "config key models.gbm.learning_rate takes int or float, got '0.1'"),
    ({"models": {"tree": {"min_leaf": 2.5}}},
     "config key models.tree.min_leaf takes int, got 2.5"),
    ({"seed": True}, "config key seed takes int, got True"),
    ({"models": {"forest": {"mtry": "3"}}},
     "config key models.forest.mtry takes null or int, got '3'"),
], ids=["misspelt", "top_level", "gbm_param", "forest_param", "space_param",
        "space_family", "scalar_for_mapping", "null_for_mapping", "mapping_for_scalar",
        "nested_mapping_for_scalar", "str_for_int", "str_for_float", "float_for_int",
        "bool_for_int", "str_for_null"])
def test_unknown_key_or_wrong_shape_rejected(tmp_path, override, message):
    user = tmp_path / "cfg.yaml"
    user.write_text(yaml.safe_dump(override), encoding="utf-8")
    with pytest.raises(BadParameter, match="^%s$" % re.escape(message)):
        load_config(user)
    with pytest.raises(BadParameter, match="^%s$" % re.escape(message)):
        load_config(None, override)


def test_value_types_that_are_accepted(tmp_path):
    user = tmp_path / "cfg.yaml"
    user.write_text("data:\n  csv: data.csv\n"
                    "split:\n  oot_start: 2018-08-31\n"
                    "models:\n  gbm: {subsample: 1}\n  forest: {max_depth: 12, mtry: null}\n",
                    encoding="utf-8")
    config = load_config(user)
    assert config["data"]["csv"] == "data.csv"
    assert config["split"]["oot_start"] == datetime.date(2018, 8, 31)
    assert config["models"]["gbm"]["subsample"] == 1
    assert config["models"]["forest"]["max_depth"] == 12
    assert config["models"]["forest"]["mtry"] is None


def test_config_that_does_not_parse_rejected(tmp_path):
    user = tmp_path / "cfg.yaml"
    user.write_text("split:\n  oot_start: 2018-13-01\n", encoding="utf-8")
    with pytest.raises(BadParameter, match="cfg.yaml does not parse: month must be in 1..12"):
        load_config(user)
    user.write_text("models: [1, 2\n", encoding="utf-8")
    with pytest.raises(BadParameter, match="cfg.yaml does not parse: while parsing"):
        load_config(user)


def test_unknown_key_exits_2_naming_it(tmp_path, capsys):
    user = tmp_path / "cfg.yaml"
    user.write_text("models:\n  gbm:\n    n_tress: 3\n", encoding="utf-8")
    assert main(["synth", "--config", str(user), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: BadParameter: unknown config key models.gbm.n_tress\n")
    assert not (tmp_path / "out").exists()

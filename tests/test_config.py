"""The shipped commented config must stay in sync with the built-in defaults."""

import datetime
from pathlib import Path

import yaml

from scorekit.cli import DEFAULT_CONFIG, _YAML_LOADER, _write_resolved_config, load_config


def normalize(node):
    if isinstance(node, dict):
        return {k: normalize(v) for k, v in node.items()}
    if isinstance(node, list):
        return [normalize(v) for v in node]
    if isinstance(node, datetime.date):
        return str(node)
    return node


def test_shipped_config_matches_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    shipped = normalize(yaml.safe_load(path.read_text(encoding="utf-8")))
    assert shipped == normalize(DEFAULT_CONFIG)


def test_override_merging_is_deep():
    config = load_config(None, {"models": {"gbm": {"n_trees": 7}}})
    assert config["models"]["gbm"]["n_trees"] == 7
    assert config["models"]["gbm"]["max_depth"] == DEFAULT_CONFIG["models"]["gbm"]["max_depth"]
    assert config["models"]["logistic"] == DEFAULT_CONFIG["models"]["logistic"]


def test_seed_flag_beats_config(tmp_path):
    user = tmp_path / "cfg.yaml"
    user.write_text("seed: 5\n", encoding="utf-8")
    assert load_config(user)["seed"] == 5
    assert load_config(user, {"seed": 9})["seed"] == 9


def test_config_loader_matches_safe_loader(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    resolved = _write_resolved_config(load_config(shipped), tmp_path)
    for path in (shipped, resolved):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.safe_load(text)

"""Run configuration for the CLI and the library: the commented
defaults.yaml next to this module, the only place the defaults are written
down, with a user YAML and then command-line overrides laid over it."""

from __future__ import annotations

import datetime
import functools
import json
from pathlib import Path

import yaml

from .errors import BadParameter

# libyaml's loader when PyYAML was built with it: same constructor and
# resolver as yaml.SafeLoader, and an order of magnitude faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULTS_PATH = Path(__file__).with_name("defaults.yaml")

# the types a single value may have, by the type of its default (a bool is
# never one); a null default is an unlimited depth or a derived mtry, and an
# unquoted YAML date loads as a date, which cmd_split reads with str()
_TAKES = {int: (int,), float: (int, float), str: (str,), type(None): (type(None), int)}
_TAKES_BY_KEY = {"data.csv": (type(None), str), "split.oot_start": (str, datetime.date),
                 "split.oot_end": (str, datetime.date)}


@functools.cache
def _defaults_json() -> str:
    # parsed once per process; callers get their own copy via json.loads
    with open(DEFAULTS_PATH, encoding="utf-8") as fh:
        return json.dumps(yaml.load(fh, Loader=_YAML_LOADER))


def _merge(base: dict, override, shape: dict, where: str = "") -> dict:
    """`base` with `override` laid over it, recursively. Each key must be one
    of `shape`'s (the defaults at the same place; under `data.schema` any
    key), must hold a mapping exactly where `shape` does, and a single value
    must have a type its default admits (the lists under `search.spaces`
    are not checked)."""
    if not isinstance(override, dict):
        raise BadParameter("config key %s needs a mapping, got %r"
                           % (where or "(top level)", override))
    out = dict(base)
    for key, value in override.items():
        dotted = "%s.%s" % (where, key) if where else str(key)
        if where == "data.schema":
            out[key] = value
        elif key not in shape:
            raise BadParameter("unknown config key %s" % dotted)
        elif isinstance(shape[key], dict):
            out[key] = _merge(base[key], value, shape[key], dotted)
        elif isinstance(value, dict):
            raise BadParameter("config key %s takes a single value, not a mapping" % dotted)
        else:
            types = _TAKES_BY_KEY.get(dotted) or _TAKES[type(shape[key])]
            if not where.startswith("search.spaces.") and (
                    isinstance(value, bool) or not isinstance(value, types)):
                raise BadParameter("config key %s takes %s, got %r" % (dotted, " or ".join(
                    "null" if t is type(None) else t.__name__ for t in types), value))
            out[key] = value
    return out


def load_config(path=None, overrides=None) -> dict:
    """The packaged defaults, then the YAML file at `path`, then
    `overrides`; raises BadParameter on a key the defaults do not have."""
    config = json.loads(_defaults_json())
    shape = json.loads(_defaults_json())
    # a search space ranges over the parameters of its family
    shape["search"]["spaces"] = {f: shape["models"][f] for f in shape["search"]["spaces"]}
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                user = yaml.load(fh, Loader=_YAML_LOADER) or {}
            except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date like 2018-13-01
                raise BadParameter("%s does not parse: %s"
                                   % (path, " ".join(str(exc).split()))) from None
        config = _merge(config, user, shape)
    if overrides:
        config = _merge(config, overrides, shape)
    return config

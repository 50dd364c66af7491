"""The demos run nowhere in the suite, so check what they import: every
name a demo imports from scorekit must exist. Parses, executes nothing."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scorekit":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scorekit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), "%s: %s has no %s" % (
                    demo.name, node.module, alias.name)

"""Source hygiene: every name a module imports is used in that module, and
every hess function the benchmark's tracer wraps exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hess"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from __future__ import annotations\n"
                 "import json\nimport os.path\nfrom x import a, b as c\n"
                 "print(os.sep, c)\n")
    assert unused_imports(p) == ["m.py:2 json", "m.py:4 a"]


def traced_names():
    """PAIRED, SINGLE and METHODS as perfbench/spans.py lists them."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    found = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("PAIRED", "SINGLE", "METHODS")}
    return found["PAIRED"] + found["SINGLE"], found["METHODS"]


def test_traced_names_resolve():
    # the tracer looks these up by attribute when it installs, so a rename
    # in hess would crash every traced benchmark run
    spans, methods = traced_names()
    for span in spans:
        if span in methods:
            mod, cls, meth = methods[span]
            owner = getattr(importlib.import_module(f"hess.{mod}"), cls)
            assert callable(getattr(owner, meth)), span
        else:
            mod, fn = span.split(".")
            assert callable(getattr(importlib.import_module(f"hess.{mod}"), fn)), span

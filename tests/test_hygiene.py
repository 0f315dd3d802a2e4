"""Source hygiene: every module hess imports is numpy, scipy, the standard
library or hess itself, and pyproject.toml declares exactly numpy and scipy;
every name a module imports is used in that module, every public top-level
name and every public method or property of a public class is referenced
somewhere besides its own definition, and every hess function the
benchmark's tracer wraps, and every hook its train workload patches,
exists, and tape records keep the form the tracer reads."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

from hess import optim, tensor
from hess.network import NetworkConfig, build, forward
from hess.synthetic import SynthConfig, make_samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hess"

# specification and reference functions, kept for the tests that pin them
REFERENCE_ONLY = {"spiking.lif_step", "spiking.constant_input_trajectory",
                  "energy.fit_energy_coefficients", "imgio.read_ppm"}
# methods the tests call: the single-time renderer that the data-path tests
# check against full-image masks
REFERENCE_ONLY_MEMBERS = {"synthetic.Scene.render"}


def foreign_imports(path):
    """Imports anywhere in the module, function-level ones included, of
    anything but the standard library, numpy, scipy or a relative module."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def test_imports_only_numpy_scipy_and_the_standard_library():
    assert [f for path in sorted(SRC.glob("*.py")) for f in foreign_imports(path)] == []


def test_declared_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+

    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps) == ["numpy", "scipy"]


def test_detects_a_foreign_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from __future__ import annotations\n"
                 "import os.path, yaml\nimport numpy as np\nfrom . import ops\n"
                 "from .tensor import Tensor\nfrom hess import voxel\n\n"
                 "def f():\n    from scipy import sparse\n    import torch\n")
    assert foreign_imports(p) == ["m.py:2 yaml", "m.py:6 hess", "m.py:10 torch"]


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


def test_train_workload_hooks_resolve(monkeypatch):
    # perfbench/workloads.py wraps optim.loss and optim.AdamW.step and reads
    # tensor._tape.records; train must look the loss up as a module global
    assert callable(optim.AdamW.step)
    assert isinstance(tensor._tape.records, list)
    calls, orig = [], optim.loss

    def counting(*args, **kwargs):
        calls.append(len(tensor._tape.records))
        return orig(*args, **kwargs)

    monkeypatch.setattr(optim, "loss", counting)
    samples = make_samples(0, SynthConfig(width=16, height=16, frame_count=2,
                                          num_shapes=1, min_size=3, max_size=6))
    net = build(NetworkConfig(scales=((2, 4), (4, 4)), bins=2, timesteps=2, k_points=1,
                              adaptor_ratio=2, num_classes=3))
    optim.train(net, samples, optim.TrainConfig(total_iterations=1, warmup_iterations=0,
                                                batch_size=1))
    assert len(calls) == 1 and calls[0] > 0


def test_tape_records_hold_a_backward_until_replay():
    # perfbench/spans.py wraps rec.backward of each record a traced call
    # appends to tensor._tape.records, and skips a record whose backward is
    # None: one that Tensor.backward has already replayed
    samples = make_samples(0, SynthConfig(width=16, height=16, frame_count=2,
                                          num_shapes=1, min_size=3, max_size=6))
    net = build(NetworkConfig(scales=((2, 4), (4, 4)), bins=2, timesteps=2, k_points=1,
                              adaptor_ratio=2, num_classes=3))
    frames, voxels, labels = optim.prepare_batches(samples[:1], 2)
    n0 = len(tensor._tape.records)
    out = optim.loss(forward(net, frames, voxels), labels)
    records = tensor._tape.records[n0:]
    assert records and records[-1] is out._record
    assert all(callable(rec.backward) and rec.output._record is rec for rec in records)
    out.backward()
    assert tensor._tape.records == []
    assert out._record.backward is None
    assert all(rec.backward is None for rec in records)


def unreferenced_names(src, others):
    """Public top-level names of the modules in ``src`` that no code in
    ``src`` or ``others`` refers to outside their own definition.

    A reference is a bare name in the defining module, or, from another
    module, ``from .mod import name``, ``mod.name`` or the string
    ``"mod.name"`` (how perfbench/spans.py names what it traces)."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    outside = [ast.parse(p.read_text()) for p in sorted(others.glob("*.py"))]
    missing = []
    for mod, tree in modules.items():
        external = set()
        for other in [t for m, t in modules.items() if m != mod] + outside:
            for node in ast.walk(other):
                if isinstance(node, ast.ImportFrom) and node.module \
                        and node.module.split(".")[-1] == mod:
                    external.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id == mod:
                    external.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.startswith(mod + "."):
                    external.add(node.value[len(mod) + 1:])
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            for name in names:
                if name.startswith("_") or name in external:
                    continue
                if not any(isinstance(n, ast.Name) and n.id == name and id(n) not in own
                           for n in ast.walk(tree)):
                    missing.append(f"{mod}.{name}")
    return missing


def test_every_public_name_is_referenced():
    # the allowlist is exact: a listed name that gains a caller leaves it
    assert sorted(unreferenced_names(SRC, ROOT / "perfbench")) == sorted(REFERENCE_ONLY)


def test_detects_an_unreferenced_name(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text("LIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
                              "def recursive():\n    return recursive()\n\n"
                              "def traced():\n    pass\n\nclass Dead:\n    pass\n")
    (src / "b.py").write_text("from .a import used\nused()\n")
    (bench / "spans.py").write_text('SINGLE = ("a.traced",)\n')
    assert unreferenced_names(src, bench) == ["a.recursive", "a.Dead"]


def unreferenced_members(src, others):
    """Public methods and properties of the public top-level classes in
    ``src`` that no code in ``src`` or ``others`` refers to outside their
    own definition; dunder methods are protocol hooks and exempt.

    A reference is any attribute access ``.name`` except on the numpy
    module (``np.exp`` does not use a method ``exp``) or a string constant
    ``"name"`` (how perfbench/spans.py names the methods it wraps): the
    receiver's type is unknown to ``ast``, so a name shared with a field of
    another class counts as referenced."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in sorted(others.glob("*.py"))]
    numpy = {id(t): {a.asname or a.name for n in ast.walk(t) if isinstance(n, ast.Import)
                     for a in n.names if a.name == "numpy"} for t in trees}

    def refers(t, n, name):
        if isinstance(n, ast.Attribute):
            return n.attr == name and not (isinstance(n.value, ast.Name)
                                           and n.value.id in numpy[id(t)])
        return isinstance(n, ast.Constant) and n.value == name

    missing = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                own = {id(n) for n in ast.walk(fn)}
                if not any(id(n) not in own and refers(t, n, fn.name)
                           for t in trees for n in ast.walk(t)):
                    missing.append(f"{mod}.{cls.name}.{fn.name}")
    return missing


def test_every_public_member_is_referenced():
    # the allowlist is exact: a listed member that gains a caller leaves it
    assert sorted(unreferenced_members(SRC, ROOT / "perfbench")) == sorted(REFERENCE_ONLY_MEMBERS)


def test_detects_an_unreferenced_member(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "import numpy as np\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 1\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def area(self):\n        return self.size\n"
        "    def grow(self):\n        return self.grow()\n"
        "    def shrink(self):\n        pass\n"
        "    def exp(self):\n        pass\n"
        "    def traced(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n\n"
        "class _Private:\n    def unused(self):\n        pass\n\n"
        "def use(box):\n    return box.area + np.exp(0)\n")
    (bench / "spans.py").write_text('METHODS = {"a.traced": ("a", "Box", "traced")}\n')
    assert unreferenced_members(src, bench) == ["a.Box.grow", "a.Box.shrink", "a.Box.exp"]

"""Repository hygiene: every import in the package and the scripts is
used, every function and class of the package has a caller outside the
tests, and the scripts run."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/mixsiam/*.py"), *ROOT.glob("scripts/*.py")])
CALLERS = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("perfbench/*.py")])


def unused_imports(source):
    """Names that an import binds at any level of `source` and that no
    expression reads. `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_finder_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.linalg\n"
              "from json import dumps, loads as ld\n"
              "def f(x: osp.Any):\n    import sys\n    return ld(x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "numpy"), (4, "dumps"), (6, "sys")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def uncalled_definitions(definitions, callers):
    """Top-level functions and classes of the `definitions` source that no
    source in `callers` names: as a Name, an Attribute or an import."""
    named = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(node.name for node in ast.parse(definitions).body
                  if isinstance(node, kinds) and node.name not in named)


def test_uncalled_definition_finder_sees_what_it_should():
    definitions = ("def a(): pass\ndef b(): pass\nclass C: pass\nclass D: pass\n"
                   "def e(): pass\ndef f():\n    def g(): pass\nH = 1\n")
    callers = [definitions, "from m import a\nimport m.b\nm.C()\nf(D)\n"]
    assert uncalled_definitions(definitions, callers) == ["e"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/mixsiam/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_has_a_caller_outside_the_tests(path):
    callers = [p.read_text() for p in CALLERS]
    assert uncalled_definitions(path.read_text(), callers) == []


def test_collapse_diagnostics_script_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "collapse_diagnostics.py"),
         "--epochs", "1", "--per-class", "8", "--batch-size", "8"],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for label in ("intact", "no stop-grad"):
        assert any(line.strip().startswith(f"{label}: per-epoch spread")
                   for line in lines), result.stdout
    assert sum("final embedding_std" in line for line in lines) == 2

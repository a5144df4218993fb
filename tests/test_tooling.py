"""Repository hygiene: every import in the package and the scripts is
used, and the scripts run."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/mixsiam/*.py"), *ROOT.glob("scripts/*.py")])


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

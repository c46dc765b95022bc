"""The test configuration and the source checks no linter makes here: a
failing property test is reported like any other failure, the tests after it
still run, and no module imports a name it never uses."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "metric_mend"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain():
    pass
'''


def test_a_failing_property_test_does_not_crash_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
                          "test_sample.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "FAILED test_sample.py::test_property_fails" in out
    assert "PASSED test_sample.py::test_plain" in out


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))  # it re-exports
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    quoted = [ast.parse(c.value, mode="eval")  # a quoted annotation uses names too
              for node in ast.walk(tree)
              for a in (getattr(node, "annotation", None), getattr(node, "returns", None)) if a
              for c in ast.walk(a) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    used = {n.id for root in [tree, *quoted] for n in ast.walk(root) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}

"""The test configuration and the source checks no linter makes here: a
failing property test is reported like any other failure, the tests after it
still run, no module imports a name it never uses, no top-level
definition of the package goes unused, and only the command line's renderer
prints."""

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


def _mentions(node: ast.AST) -> set[str]:
    """The names ``node`` mentions in code: bare, after a dot, or imported."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, class or constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_top_level_definition_is_used():
    """Each top-level function, class and constant of the package (dunders
    aside) is mentioned by some other top-level statement of ``src`` or the
    tests: a helper whose last caller is gone fails here."""
    sources = [*PACKAGE.glob("*.py"), *(PYPROJECT.parent / "tests").glob("*.py")]
    statements = [(path, stmt, _mentions(stmt)) for path in sources
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = [f"{path.name}:{stmt.lineno} {name}"
              for path, stmt, _ in statements if path.parent == PACKAGE
              for name in _defined(stmt) if not name.startswith("__")
              and not any(name in m for _, other, m in statements if other is not stmt)]
    assert unused == []


def _print_callers(node: ast.AST, where: str, found: set[str]) -> set[str]:
    """The innermost named definitions under ``node`` that call ``print``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "print":
            found.add(where)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        _print_callers(child, f"{where}.{child.name}" if named else where, found)
    return found


def test_only_the_cli_renderer_prints():
    """Reports are rendered in one place: in the package only ``cli.main``
    and the text renderer it calls write to standard output."""
    found: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        _print_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {"cli.main", "cli._emit_text"}

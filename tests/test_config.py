"""The test configuration itself: a failing property test is reported like
any other failure, and the tests after it still run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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

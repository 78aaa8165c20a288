"""pyproject.toml's test settings let a failing property test be reported by name."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after_it():
    pass
"""


def test_a_failing_property_test_is_named_and_the_tests_after_it_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "FAILED test_property.py::test_fails" in output

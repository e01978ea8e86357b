"""The pytest configuration in pyproject.toml, run on throwaway test files."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """filterwarnings turns warnings into errors. A warning that hypothesis
    raises while it reports a failing example must leave a plain failure, not
    an INTERNALERROR that skips every test after it."""
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_after.py").write_text("def test_runs():\n    pass\n")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in completed.stdout, output

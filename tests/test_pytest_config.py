"""The suite's own pytest settings, run on a throwaway test module."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just(1))
def test_property_fails(x):
    assert x == 0


def test_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # The falsifying-example report must be an ordinary failure under
    # the warnings-as-errors setting, and the next test must still run.
    # A generated example (here one with nothing to shrink) takes the
    # reporting path an explicit @example does not.
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1

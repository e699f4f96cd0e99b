"""The test settings in pyproject.toml: a failing test fails alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports mypy_extensions, whose TypedDict
    # warns; filterwarnings = ["error"] alone turns that warning into an
    # INTERNALERROR that ends the session before the passing test runs
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout

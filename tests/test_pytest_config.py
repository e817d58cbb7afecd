"""The suite's pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY_AND_PLAIN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(n):
    assert n < 0


def test_plain():
    pass
'''


def test_a_failing_property_fails_alone_under_the_warning_filters(tmp_path):
    # reporting a failing example must not raise inside pytest's hooks, or
    # the run stops with INTERNALERROR and the remaining tests never run
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_AND_PLAIN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

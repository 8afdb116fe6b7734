"""The warning filters of pyproject.toml let pytest report every failure.

``filterwarnings`` turns a ``DeprecationWarning`` into an error, and hypothesis's
report hook, on a failing example, imports ``libcst``, which warns on import. The
one narrowed exception must keep that hook working without letting any other
``DeprecationWarning`` pass.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
TESTS = """
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails_on_an_example(n):
    assert n < 10


def test_passes():
    pass


def test_warns_deprecation():
    warnings.warn(DeprecationWarning("old"))
"""


def test_a_failing_example_and_a_deprecation_warning_each_report_one_failure(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "2 failed, 1 passed" in output, output

"""Every module of the package imports on its own, in a fresh interpreter.

The package root imports no submodule, so an import cycle between two
submodules shows only when one of them is the first to be imported. The
benchmark's tracer imports them one by one, by name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "enas").glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-c", f"import enas.{module}"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

"""Every module of the package imports on its own, in a fresh interpreter.

The package root imports no submodule, so an import cycle between two
submodules shows only when one of them is the first to be imported. The
benchmark's tracer imports them one by one, by name. numpy is the one
runtime dependency that pyproject.toml declares, so a module may load no
other third-party package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "enas").glob("*.py") if path.stem != "__init__")
# Prints the top-level packages the import loads, other than numpy and the
# standard library's. A module already loaded under another name (such as
# multiprocessing's ``__mp_main__``) and what ``site`` loaded beforehand
# do not count.
IMPORT_AND_LIST_THIRD_PARTY = """
import sys
before = set(map(id, sys.modules.values()))
import enas.{module}
added = {{name.partition(".")[0] for name, m in sys.modules.items() if id(m) not in before}}
print(*sorted(added - set(sys.stdlib_module_names) - {{"enas", "numpy"}}))
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_AND_LIST_THIRD_PARTY.format(module=module)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"enas.{module} loads {proc.stdout.strip()}"

"""Every module of the package imports on its own, in a fresh interpreter.

The package root imports no submodule, so an import cycle between two
submodules shows only when one of them is the first to be imported. The
benchmark's tracer imports them one by one, by name. numpy is the one
runtime dependency that pyproject.toml declares, so a module may load no
other third-party package.
"""

import ast
import os
import re
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


REPO = SRC.parent
# A benchmark site string, "enas.<module>:<name>[.<attribute>]", names <name>.
SITE = re.compile(r"enas\.\w+:(\w+)")


def _referenced_names() -> set[str]:
    """Every name a Name or Attribute node of src/enas or perfbench uses, and every
    name a perfbench site string gives."""
    names = set()
    for root in (SRC / "enas", REPO / "perfbench"):
        for path in root.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and root.name == "perfbench":
                    names.update(SITE.findall(str(node.value)))
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    # A public function or class that only tests use is a wrapper kept for them.
    referenced = _referenced_names()
    unused = [
        f"{module}.{node.name}"
        for module in MODULES
        for node in ast.parse((SRC / "enas" / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unused == []

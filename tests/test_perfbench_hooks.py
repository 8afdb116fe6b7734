"""The benchmark wraps package functions by name from outside the package.

A rename in the package must fail here, not show up later as an ``absent``
layer in a traced benchmark pass. The benchmark's modules are imported
read-only: no bytecode is written next to them.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracer"), importlib.import_module("rep")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        sys.modules.pop("tracer", None)
        sys.modules.pop("rep", None)


def _unresolved(tracer, sites):
    return [site for site in sites if tracer.resolve(site) is None]


def test_every_traced_target_resolves(perfbench):
    tracer, _ = perfbench
    sites = [site for group in tracer.TARGETS.values() for site in group]
    assert sites and not _unresolved(tracer, sites)


@pytest.mark.parametrize("name", ["PROBE_SITES", "EVALUATION_SITES"])
def test_every_clocked_site_resolves(perfbench, name):
    tracer, rep = perfbench
    sites = getattr(rep, name)
    assert sites and not _unresolved(tracer, sites)

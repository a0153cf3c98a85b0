"""Every span the benchmark traces still names a function of the package.

perfbench's tracer records a target it cannot find as missing and reports
the metrics that depend on it as absent, so a rename inside ``treeaa``
would silently blind a layer.  This test reads the target table from
``perfbench/run.py`` (without running the benchmark) and resolves each
entry against the package under test.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from functools import cached_property
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_targets() -> tuple:
    name = "_perfbench_run_for_targets"
    saved_path = list(sys.path)  # run.py puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location(name, RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        del sys.modules[name]
    return module.TARGETS


TARGETS = _load_targets()


def test_the_table_was_read():
    assert any(t.span == "simnet.program_step" for t in TARGETS)


@pytest.mark.parametrize("target", TARGETS, ids=[f"{t.span}@{t.module}.{t.attr}" for t in TARGETS])
def test_target_resolves_in_the_package(target):
    owner = importlib.import_module(target.module)
    assert Path(owner.__file__).parent.name == "treeaa"
    for part in target.attr.split("."):
        assert hasattr(owner, part), f"{target.module}.{target.attr}: no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner) or isinstance(owner, (property, cached_property))

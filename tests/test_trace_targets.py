"""Every span the benchmark traces still names a function of the package,
and a traced run still passes through it.

perfbench's tracer records a target it cannot find as missing and reports
the metrics that depend on it as absent, so a rename inside ``treeaa``
would silently blind a layer; a call that bypasses the binding the tracer
wraps (a ``from ... import`` of a function that is traced at its module)
blinds it too.  These tests read the target table from ``perfbench/run.py``
(without running the benchmark), resolve each entry against the package
under test, and run one traced protocol run per mode.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from treeaa import harness

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
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
    return module


RUN = _load_run()
TARGETS = RUN.TARGETS


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


GRADECAST = tuple(dict.fromkeys(t.span for t in TARGETS if t.span.startswith("gradecast.")))
EVERY_RUN = ("simnet.run_simulation", "simnet.program_step", "real_aa.plan_iterations",
             "real_aa.trim_mean_update", *GRADECAST, "tree_aa.run", "harness.run_one",
             "adversaries.byzantine_send", "bounds.lb_rounds")
MUST_REACH = {
    "final": EVERY_RUN + ("paths.supported_prefix", "paths.decode_tree_path"),
    "legacy": EVERY_RUN,
}


@pytest.mark.parametrize("mode", sorted(MUST_REACH))
def test_a_traced_run_records_every_layer_it_passes(mode):
    tree, kind = harness.resolve_tree("random:30")
    inputs = harness.assign_inputs(tree, 7, "random", random.Random(f"trace:{mode}"))
    tracer = RUN.Tracer()
    tracer.install(TARGETS)
    try:
        harness.run_one(tree, kind, 7, 2, mode, "equivocator", inputs, 1)
    finally:
        tracer.uninstall()
    assert tracer.missing == {} and tracer.errors == Counter()
    calls = Counter(tracer.names[nid] for nid in tracer.name)
    assert len(GRADECAST) == 3
    assert [span for span in MUST_REACH[mode] if calls[span] == 0] == []

"""Every run behind ``perfbench/golden.json`` still writes the same transcript.

The golden file holds the SHA-256 of each transcript of the first traced
cycle of every benchmark workload at the default seed (see
``perfbench/make_golden.py``).  A digest that moves means the package sends
different bytes for a fixed (config, seed): a protocol change.  This test
reads ``perfbench/run.py`` (without running the benchmark), replays each of
those runs on the package under test and compares the digests.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from treeaa import harness, real_aa, simnet

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    name = "_perfbench_run_for_golden"
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
GOLDEN = json.loads(RUN.GOLDEN.read_text(encoding="utf-8"))


def test_every_workload_has_golden_digests():
    assert set(GOLDEN) == set(RUN.WORKLOADS)
    assert sum(len(digests) for digests in GOLDEN.values()) == 93


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_transcripts_match_the_golden_digests(workload, monkeypatch):
    # run.setup re-imports the package, which would split the classes the
    # other tests hold; build its Env from the package already imported.
    cells = RUN.WORKLOADS[workload].cells
    trees = {spec: harness.resolve_tree(spec) for spec in dict.fromkeys(c.tree for c in cells)}
    rounds = {c: RUN.expected_rounds(real_aa.plan_iterations, trees[c.tree][0], c.n, c.t, c.mode)
              for c in cells}
    mods = SimpleNamespace(harness=harness, simnet=simnet, real_aa=real_aa)
    env = RUN.Env(workload, RUN.DEFAULT_SEED, mods, trees, rounds)

    last = []
    run_simulation = simnet.run_simulation

    def recording(*args, **kwargs):
        result = run_simulation(*args, **kwargs)
        last.append(result[1])
        return result

    monkeypatch.setattr(simnet, "run_simulation", recording)
    wrong = []
    golden = GOLDEN[workload]
    for i in map(int, golden):
        cell, inputs, sim_seed = env.spec(i)
        tree, kind = trees[cell.tree]
        harness.run_one(tree, kind, cell.n, cell.t, cell.mode, cell.adversary, inputs, sim_seed)
        facts = RUN.transcript_facts(last[-1], rounds[cell][1])
        if facts["sha256"] != golden[str(i)]:
            wrong.append((i, cell))
    assert wrong == []
    assert len(last) == len(golden)

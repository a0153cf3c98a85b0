"""Checks of the benchmark's own arithmetic: percentiles, self time, failure counting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from types import SimpleNamespace

import pytest

import run
from tracer import Target, Tracer, self_times


def test_p90_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == 90.0  # 10 samples (91..100) lie beyond
    assert run.percentile(list(reversed(values)), 50) == 50.0
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)  # rank 90 of 99 leaves only 9 beyond


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 70]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == [50, 20, 10, 20]
    assert sum(own) == end[0] - start[0]


def _fake_module(name: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n"
        "class Box:\n"
        "    @classmethod\n"
        "    def make(cls, x):\n"
        "        return outer(x)\n",
        mod.__dict__,
    )
    sys.modules[name] = mod
    return mod


def test_tracer_nests_spans_restores_originals_and_notes_missing_names():
    mod = _fake_module("perfbench_fake_layer")
    originals = (mod.inner, mod.outer, mod.Box.__dict__["make"])
    tracer = Tracer()
    tracer.install([
        Target("fake.inner", "perfbench_fake_layer", "inner"),
        Target("fake.outer", "perfbench_fake_layer", "outer"),
        Target("fake.make", "perfbench_fake_layer", "Box.make"),
        Target("fake.gone", "perfbench_fake_layer", "Removed.method"),
        Target("fake.nomodule", "perfbench_no_such_module", "f"),
    ])
    try:
        tracer.run_id = 7
        assert mod.Box.make(1) == 4
    finally:
        tracer.uninstall()
        del sys.modules["perfbench_fake_layer"]
    assert (mod.inner, mod.outer, mod.Box.__dict__["make"]) == originals
    assert tracer.missing == {
        "fake.gone": "perfbench_fake_layer.Removed.method",
        "fake.nomodule": "perfbench_no_such_module.f",
    }
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["fake.make", "fake.outer", "fake.inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.run) == [7, 7, 7]
    own = tracer.self_times()
    assert min(own) >= 0
    assert sum(own) == tracer.end[0] - tracer.start[0]


def test_tracer_counts_errors_and_closes_the_span():
    mod = _fake_module("perfbench_fake_raise")
    tracer = Tracer()
    tracer.install([Target("fake.inner", "perfbench_fake_raise", "inner")])
    try:
        with pytest.raises(TypeError):
            mod.inner("not a number")
    finally:
        tracer.uninstall()
        del sys.modules["perfbench_fake_raise"]
    assert tracer.errors == {"fake.inner": 1}
    assert tracer.end[0] >= tracer.start[0] > 0


def _report(valid=True, max_dist=1, rounds=18):
    return SimpleNamespace(valid=valid, max_dist=max_dist, rounds=rounds, transcript_path=None)


def test_gate_names_every_breach():
    assert run.gate(_report(), 18) is None
    reason = run.gate(_report(valid=False, max_dist=2, rounds=21), 18)
    assert "hull" in reason and "max_dist 2" in reason and "rounds 21 != formula 18" in reason


def test_failures_are_counted_and_never_abort_the_workload():
    # Run i of a 3-cell cycle: 0 passes, 1 raises, 2 breaches the round formula.
    def fake_run_one(tree, kind, n, t, mode, adversary, inputs, seed, emit_dir):
        if seed % 3 == 1:
            raise RuntimeError("boom")
        return _report(rounds=18 if seed % 3 == 0 else 17)

    harness = SimpleNamespace(run_one=fake_run_one, assign_inputs=lambda *args: {})
    cells = run.WORKLOADS["long-path"].cells
    env = run.Env("long-path", 0, SimpleNamespace(harness=harness),
                  {"path:2000": (object(), "path(2000)")}, {c: (18, 3) for c in cells})
    records = run.run_cycles(env, 0, None, min_runs=6)
    assert len(records) == 6
    failures = [r.failure for r in records if r.failure is not None]
    assert len(failures) == 4
    assert sum(f.startswith("RuntimeError: boom") for f in failures) == 2
    assert sum(f == "rounds 17 != formula 18" for f in failures) == 2
    assert all(r.wall_ns > 0 for r in records)


def test_timed_pass_alternates_program_and_reference_and_keeps_fastest(monkeypatch):
    # 2 cycles of 3 cells = 6 inputs; input k's r-th run on a side takes 10 * k + 5 - r ns
    # on the program and twice that on the reference.
    calls: list[tuple[str, int]] = []

    def fake_one_run(env, i, readback, tracer=None):
        calls.append((env.workload, i))
        r = calls.count((env.workload, i))
        scale = 2 if env.workload == "ref" else 1
        return run.Record(i, env.cells[i % 3], wall_ns=scale * (10 * i + 5 - r),
                          cpu_ns=scale * (20 * i + 5 - r))

    work = run.Workload(run.WORKLOADS["long-path"].cells, count_runs=3, peak_runs=3, timed_cycles=2)
    monkeypatch.setattr(run, "one_run", fake_one_run)
    monkeypatch.setattr(run, "WORKLOADS", {"prog": work, "ref": work})
    env = run.Env("prog", 0, SimpleNamespace(), {}, {})
    ref = run.Env("ref", 0, SimpleNamespace(), {}, {})
    timed, ref_timed, best, ref_best = run.timed_pass(env, ref, 0, seconds=0.0)
    assert len(timed) == len(ref_timed) == run.MIN_REPEATS * 6
    assert calls[:4] == [("prog", 0), ("ref", 0), ("prog", 1), ("ref", 1)]
    assert calls[12:14] == [("ref", 0), ("prog", 0)]  # second repeat: reference first
    last = 5 - run.MIN_REPEATS
    assert best.wall == [10 * k + last for k in range(6)]
    assert best.cpu == [20 * k + last for k in range(6)]
    assert ref_best.wall == [2 * (10 * k + last) for k in range(6)]

"""treeaa benchmark: graded protocol runs in a closed loop, plus a traced pass.

Run from the repository root; ``treeaa`` is imported from ``src/``:

    python3 perfbench/run.py --workload long-path --seed 0 --seconds 20 --trace 0

One process executes one run at a time (closed loop, no threads).  The
workload's inputs (input vertices, adversary rotation, simulation seeds)
come from ``--seed``; the trees are fixed per workload.  Every run is
graded: it passes only if its outputs are valid, pairwise within distance
1, and took the number of rounds the README formula gives, re-derived here
from ``plan_iterations``.  A run that raises or breaches the gate counts as
failed and the workload carries on.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

1. set-up (import, generate the trees, warm ``diameter`` and ``euler``),
   repeated ``SETUP_REPS`` times, median reported as ``setup_s``;
2. one warm-up run of the program and one of the reference, not counted;
3. the timed pass: a fixed set of inputs (``timed_cycles`` whole cycles),
   run in order again and again for at least ``--seconds`` and at least
   ``MIN_REPEATS`` times, each input on the program and then on the
   reference (the other way round on odd repeats).  Each input's fastest
   repeat gives its wall and CPU time: ``run_time_vs_ref`` and
   ``cpu_time_vs_ref`` (program total / reference total) and
   ``run_time_vs_ref_p50`` (median over inputs of program / reference).
   The program's own ``runs_per_s``, ``run_ms_p50``, ``run_ms_p90`` and
   ``cpu_ms_per_run`` over all its timed runs are printed beside the
   reference's; they move with the host's load.  The pass comes first so
   that the program and the reference have run equally often before it;
4. a count pass of ``count_runs`` runs, each emitting its transcript through
   ``run_one(emit_dir=...)`` and reading it back with
   ``Transcript.from_jsonl``: ``payload_mb_per_run``, ``envelopes_per_run``;
5. a peak pass of ``peak_runs`` runs under ``tracemalloc``: ``peak_mb``, the
   mean over its runs of each run's peak heap.

The reference, ``reference/treeaa_ref``, is a frozen copy of ``src/treeaa``
as it was when the benchmark was written; it is never edited.  The host is
shared, and on a 2-core machine the same run's CPU time moves by 25% or
more from one minute to the next as other load comes and goes.  Times taken
minutes apart on such a host are not comparable, so the time metrics are
ratios to the reference timed on the same input a moment before or after.
A program change that makes runs slower or faster moves the ratios;
a busy host moves both sides and not the ratio.  Keeping each input's
fastest repeat drops runs slowed by a burst of other load.

Every pass runs whole cycles (each cell of the workload once per cycle),
so each pass sees the same mix of cells.

``--trace 1`` wraps the package's functions (see ``TARGETS``), runs whole
cycles for at least half of ``--seconds`` traced, then the same number of
cycles untraced, and reports per-layer metrics and the tracing overhead.
For the default seed it also compares every traced transcript's SHA-256
with ``golden.json``.  Spans are written to ``.bench_out/`` at the end.

Garbage is collected between runs and never during one.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import statistics
import struct
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Target, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
REFERENCE = Path(__file__).resolve().parent / "reference"  # holds the package treeaa_ref

SETUP_REPS = 21
MIN_REPEATS = 3  # of each timed input
DEFAULT_SEED = 0
MB = 1e6
ADVERSARIES = ("silent", "skew-high", "skew-low", "equivocator", "split-world", "adaptive-late")


@dataclass(frozen=True)
class Cell:
    tree: str  # generator spec, resolved by harness.resolve_tree
    mode: str
    n: int
    t: int
    adversary: str


@dataclass(frozen=True)
class Workload:
    cells: tuple[Cell, ...]
    # Runs in the count and in the peak pass.  Per-run bytes and memory
    # follow the random input paths, so these passes need several runs to be
    # steady; a run under tracemalloc costs about three untraced ones.
    count_runs: int
    peak_runs: int
    # Whole cycles of distinct inputs in the timed pass.  Each input runs at
    # least MIN_REPEATS times on the program and on the reference; more
    # inputs average out per-input noise, more repeats make each fastest
    # time more certain.  The values gave the steadiest ratios in 20 s.
    timed_cycles: int
    readback: str | None = None  # what every run does with its transcript; see one_run


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "long-path": Workload(
        tuple(Cell("path:2000", "final", 16, 5, adv)
              for adv in ("silent", "split-world", "equivocator")),
        count_runs=12,
        peak_runs=9,
        timed_cycles=5,
    ),
    "many-rounds": Workload(
        tuple(Cell(tree, "legacy", n, t, adv)
              for tree in ("random:200", "binary:255", "caterpillar:300", "star:50")
              for n, t in ((4, 1), (7, 2), (10, 3))
              for adv in ADVERSARIES),
        count_runs=72,
        peak_runs=72,
        timed_cycles=2,
    ),
    "transcript-audit": Workload(
        tuple(Cell(tree, mode, 7, 2, adv)
              for tree in ("random:300", "caterpillar:300", "path:500")
              for mode in ("final", "legacy")
              for adv in ("equivocator", "split-world", "adaptive-late")),
        count_runs=72,
        peak_runs=72,
        timed_cycles=1,
        readback="audit",
    ),
}


# -- tracer targets ------------------------------------------------------------------


def _observe_decode_vector(tr: Tracer, args: tuple, result: Any) -> None:
    body = args[0]
    tr.counters["wire.decode_vector.bytes"] += len(body)
    tr.distinct.add(body)
    if result is None:
        tr.counters["wire.decode_rejects"] += 1


def _observe_decode_path(tr: Tracer, args: tuple, result: Any) -> None:
    if result is None:
        tr.counters["wire.decode_rejects"] += 1


def _observe_simulation(tr: Tracer, args: tuple, result: Any) -> None:
    tr.transcript = result[1]


TARGETS = (
    Target("wire.decode_vector", "treeaa.gradecast", "decode_vector", _observe_decode_vector),
    Target("wire.encode_vector", "treeaa.gradecast", "encode_vector"),
    Target("wire.encode_path", "treeaa.paths", "encode_path"),
    Target("wire.decode_path", "treeaa.paths", "decode_path", _observe_decode_path),
    Target("gradecast.received_vectors", "treeaa.gradecast", "received_vectors"),
    Target("gradecast.compute_candidates", "treeaa.gradecast", "compute_candidates"),
    Target("gradecast.grade_votes", "treeaa.gradecast", "grade_votes"),
    Target("real_aa.plan_iterations", "treeaa.real_aa", "plan_iterations"),
    Target("real_aa.plan_iterations", "treeaa.paths", "plan_iterations"),
    Target("real_aa.plan_iterations", "treeaa.tree_aa", "plan_iterations"),
    Target("real_aa.trim_mean_update", "treeaa.real_aa", "trim_mean_update"),
    Target("paths.supported_prefix", "treeaa.paths", "supported_prefix"),
    Target("paths.decode_tree_path", "treeaa.paths", "decode_tree_path"),
    Target("tree_aa.run", "treeaa.harness", "run_final_tree_aa"),
    Target("tree_aa.run", "treeaa.harness", "run_tree_aa_old"),
    Target("simnet.run_simulation", "treeaa.simnet", "run_simulation", _observe_simulation),
    Target("simnet.program_step", "treeaa.simnet", "GeneratorProgram.on_round"),
    Target("simnet.to_jsonl", "treeaa.simnet", "Transcript.to_jsonl"),
    Target("simnet.from_jsonl", "treeaa.simnet", "Transcript.from_jsonl"),
    Target("simnet.replay_transcript", "treeaa.simnet", "replay_transcript"),
    Target("adversaries.byzantine_send", "treeaa.adversaries", "RegistryAdversary.byzantine_send"),
    Target("adversaries.corrupt_decision", "treeaa.adversaries",
           "RegistryAdversary.corrupt_decision"),
    Target("harness.run_one", "treeaa.harness", "run_one"),
    # run_one writes the emitted transcript with FilePath(...).write_text.
    Target("harness.emit", "treeaa.harness", "FilePath.write_text"),
    Target("trees.convex_hull", "treeaa.trees", "LabeledTree.convex_hull"),
    Target("trees.distance", "treeaa.trees", "LabeledTree.distance"),
    Target("trees.path_from_root", "treeaa.trees", "LabeledTree.path_from_root"),
    Target("trees.is_path", "treeaa.trees", "LabeledTree.is_path"),
    Target("trees.euler", "treeaa.trees", "LabeledTree.euler"),
    Target("bounds.lb_rounds", "treeaa.bounds", "lb_rounds"),
    Target("generators.generate_tree", "treeaa.harness", "generate_tree"),
)


# -- set-up and one run ----------------------------------------------------------------


def expected_rounds(plan: Callable, tree, n: int, t: int, mode: str) -> tuple[int, int]:
    """(total rounds, path-finder rounds) by the README formulas."""
    if tree.diameter <= 1:
        return 0, 0
    agree = 3 * plan(n, t, float(tree.diameter), 1.0)
    finder = 3 if mode == "final" else 3 * plan(n, t, 2.0 * len(tree), 1.0)
    return finder + agree, finder


@dataclass
class Env:
    workload: str
    seed: int
    mods: SimpleNamespace
    trees: dict[str, tuple[Any, str]]
    rounds: dict[Cell, tuple[int, int]]

    @property
    def work(self) -> Workload:
        return WORKLOADS[self.workload]

    @property
    def cells(self) -> tuple[Cell, ...]:
        return self.work.cells

    def spec(self, i: int) -> tuple[Cell, dict[int, str], int]:
        """Run i of the workload's stream: cell, inputs, simulation seed.

        Any len(cells) consecutive runs cover every cell exactly once.
        """
        cell = self.cells[(self.seed + i) % len(self.cells)]
        tree, _ = self.trees[cell.tree]
        rng = random.Random(f"perfbench:{self.workload}:{self.seed}:{i}")
        inputs = self.mods.harness.assign_inputs(tree, cell.n, "random", rng)
        return cell, inputs, self.seed * 1_000_003 + i


def import_package(package: str) -> SimpleNamespace:
    """A fresh import of the package, as a new process would pay for it."""
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    importlib.import_module(package)
    return SimpleNamespace(
        harness=importlib.import_module(f"{package}.harness"),
        simnet=importlib.import_module(f"{package}.simnet"),
        real_aa=importlib.import_module(f"{package}.real_aa"),
    )


def setup(workload: str, seed: int, tracer: Tracer | None, rep: int,
          package: str = "treeaa") -> tuple[float, Env]:
    """Import, generate the workload's trees and warm their cached structures."""
    t0 = time.perf_counter()
    mods = import_package(package)
    if tracer is not None:
        tracer.install(TARGETS)
        tracer.run_id = -1 - rep
    trees = {}
    cells = WORKLOADS[workload].cells
    for spec in dict.fromkeys(cell.tree for cell in cells):
        tree, kind = mods.harness.resolve_tree(spec)
        _ = tree.diameter, tree.euler  # builds the LCA index and the Euler list
        trees[spec] = (tree, kind)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    plan = mods.real_aa.plan_iterations
    rounds = {
        cell: expected_rounds(plan, trees[cell.tree][0], cell.n, cell.t, cell.mode)
        for cell in cells
    }
    return elapsed, Env(workload, seed, mods, trees, rounds)


class AuditError(Exception):
    pass


def read_back(env: Env, report: Any, cell: Cell, sim_seed: int,
              roundtrip: bool) -> tuple[int, int]:
    """Read an emitted transcript back and check it; (envelopes, payload bytes)."""
    simnet = env.mods.simnet
    text = Path(report.transcript_path).read_text(encoding="utf-8")
    transcript = simnet.Transcript.from_jsonl(text, n=cell.n, t=cell.t, seed=sim_seed)
    if roundtrip and transcript.to_jsonl() != text:
        raise AuditError("from_jsonl(text).to_jsonl() differs from the emitted text")
    simnet.replay_transcript(transcript)
    if transcript.rounds_used != report.rounds:
        raise AuditError(f"read-back has {transcript.rounds_used} rounds, "
                         f"report says {report.rounds}")
    envelopes = transcript.envelopes
    return len(envelopes), sum(len(e.payload) for e in envelopes)


def gate(report: Any, expected: int) -> str | None:
    """Why a graded run fails, or None when it passes."""
    problems = []
    if not report.valid:
        problems.append("an output lies outside the honest input hull")
    if report.max_dist > 1:
        problems.append(f"max_dist {report.max_dist} > 1")
    if report.rounds != expected:
        problems.append(f"rounds {report.rounds} != formula {expected}")
    return "; ".join(problems) or None


@dataclass
class Record:
    index: int
    cell: Cell
    wall_ns: int = 0
    cpu_ns: int = 0
    failure: str | None = None
    traceback: str = ""
    envelopes: int = 0
    payload: int = 0


def one_run(env: Env, i: int, readback: str | None, tracer: Tracer | None = None) -> Record:
    """Run i of the stream, timed and graded.

    With ``readback`` "count" the run also emits its transcript and reads it
    back (``Transcript.from_jsonl``, ``replay_transcript``) for exact counts;
    "audit" adds the check that re-serialising gives the emitted text.
    """
    cell, inputs, sim_seed = env.spec(i)
    tree, kind = env.trees[cell.tree]
    emit_dir = str(OUT / "transcripts") if readback else None
    rec = Record(i, cell)
    report = None
    if tracer is not None:
        tracer.run_id = i
        root = tracer.open(tracer.name_id("bench.run"))
    c0 = time.process_time_ns()
    t0 = time.perf_counter_ns()
    try:
        report = env.mods.harness.run_one(tree, kind, cell.n, cell.t, cell.mode,
                                          cell.adversary, inputs, sim_seed, emit_dir)
        if readback:
            rec.envelopes, rec.payload = read_back(env, report, cell, sim_seed,
                                                   roundtrip=readback == "audit")
    except Exception as exc:  # a failed run is counted, never fatal
        rec.failure = f"{type(exc).__name__}: {exc}"
        rec.traceback = traceback.format_exc()
    finally:
        rec.wall_ns = time.perf_counter_ns() - t0
        rec.cpu_ns = time.process_time_ns() - c0
        if tracer is not None:
            tracer.close(root)
    if report is not None:
        if rec.failure is None:
            rec.failure = gate(report, env.rounds[cell][0])
        if report.transcript_path:
            Path(report.transcript_path).unlink(missing_ok=True)
    return rec


# -- passes ----------------------------------------------------------------------------


def run_cycles(env: Env, start: int, readback: str | None, *, seconds: float = 0.0,
               min_runs: int = 0, tracer: Tracer | None = None,
               after: Callable[[Record], None] | None = None) -> list[Record]:
    """Whole cycles from run `start`, at least one, until every limit given is reached."""
    size = len(env.cells)
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    i = start
    while True:
        for _ in range(size):
            rec = one_run(env, i, readback, tracer)
            if after is not None:
                after(rec)
            records.append(rec)
            i += 1
            gc.collect()
        if len(records) >= min_runs and time.perf_counter() >= deadline:
            return records


class Best:
    """Fastest wall and CPU time in ns per timed input."""

    def __init__(self, size: int) -> None:
        self.wall = [math.inf] * size
        self.cpu = [math.inf] * size

    def add(self, k: int, rec: Record) -> None:
        self.wall[k] = min(self.wall[k], rec.wall_ns)
        self.cpu[k] = min(self.cpu[k], rec.cpu_ns)


def timed_pass(env: Env, ref: Env, start: int,
               seconds: float) -> tuple[list[Record], list[Record], Best, Best]:
    """Run each timed input on the program and on the reference, back to back.

    The inputs repeat in order until `seconds` and MIN_REPEATS are reached;
    which of the two goes first alternates by repeat.  Returns every program
    and reference record, and per input the fastest wall and CPU time in ns
    of the program and of the reference.
    """
    size = env.work.timed_cycles * len(env.cells)
    records: tuple[list[Record], list[Record]] = ([], [])
    best = (Best(size), Best(size))
    deadline = time.perf_counter() + seconds
    repeat = 0
    while repeat < MIN_REPEATS or time.perf_counter() < deadline:
        order = (0, 1) if repeat % 2 == 0 else (1, 0)
        for k in range(size):
            for side in order:
                rec = one_run((env, ref)[side], start + k, env.work.readback)
                gc.collect()
                records[side].append(rec)
                best[side].add(k, rec)
        repeat += 1
    return records[0], records[1], best[0], best[1]


def peak_pass(env: Env, start: int) -> tuple[list[float], list[Record]]:
    """Each run's peak traced heap, in MB.

    Tracing stays on from the first run to the last, so what earlier runs
    left behind counts toward every later run's peak.
    """
    size = len(env.cells)
    cycles = math.ceil(env.work.peak_runs / size)
    tracemalloc.start()
    try:
        records: list[Record] = []
        peaks = []
        for i in range(start, start + cycles * size):
            tracemalloc.reset_peak()
            records.append(one_run(env, i, env.work.readback))
            peaks.append(tracemalloc.get_traced_memory()[1] / MB)
            gc.collect()
        return peaks, records
    finally:
        tracemalloc.stop()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank p-th percentile, refused unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < 10:
        raise ValueError(f"p{p:g} of {len(ordered)} samples has {beyond} beyond it, need 10")
    return ordered[rank - 1]


def memo_gauge(env: Env) -> tuple[int, float]:
    """Entries and MB of the decode memo paths.decode_tree_path leaves on the trees."""
    entries, size = 0, 0
    for tree, _ in env.trees.values():
        memo = tree.__dict__.get("_wire_path_cache")
        if memo:
            entries += len(memo)
            size += deep_size(memo, {id(v) for v in tree.vertices})
    return entries, size / MB


def deep_size(obj: Any, seen: set[int]) -> int:
    """Bytes held by obj and the containers and strings inside it, each counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (tuple, list, set, frozenset)):
        size += sum(deep_size(x, seen) for x in obj)
    return size


# -- end-to-end (trace 0) --------------------------------------------------------------


def end_to_end(env: Env, ref: Env, setup_s: float,
               seconds: float) -> tuple[list[Record], list[Record], dict]:
    readback = env.work.readback
    marks = [time.perf_counter()]
    warm = [one_run(env, 0, readback)]
    ref_records = [one_run(ref, 0, readback)]
    gc.collect()
    gc.freeze()  # set-up objects are never garbage; keep them out of every collection
    marks.append(time.perf_counter())
    timed, ref_timed, best, ref_best = timed_pass(env, ref, 1, seconds)
    ref_records += ref_timed
    marks.append(time.perf_counter())
    start = 1 + len(best.wall)
    counted = run_cycles(env, start, readback or "count", min_runs=env.work.count_runs)
    marks.append(time.perf_counter())
    peaks, peaked = peak_pass(env, start + len(counted))
    marks.append(time.perf_counter())
    print("pass seconds: " + ", ".join(
        f"{name} {b - a:.1f}" for name, a, b in zip(("warm-up", "timed", "count", "peak"),
                                                     marks, marks[1:])))
    inputs = len(best.wall)
    repeats = f"fastest of {len(timed) // inputs} repeats of each of {inputs} inputs"
    metrics = {
        "run_time_vs_ref": (sum(best.wall) / sum(ref_best.wall), "ratio"),
        "run_time_vs_ref_p50":
            (statistics.median(p / r for p, r in zip(best.wall, ref_best.wall)), "ratio"),
        "cpu_time_vs_ref": (sum(best.cpu) / sum(ref_best.cpu), "ratio"),
        "peak_mb": (statistics.mean(peaks), "MB"),
        "payload_mb_per_run": (sum(r.payload for r in counted) / MB / len(counted), "MB"),
        "envelopes_per_run": (sum(r.envelopes for r in counted) / len(counted), "count"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "run_time_vs_ref": f"total wall time, program / reference; {repeats}",
        "run_time_vs_ref_p50": "median over inputs of program / reference wall time",
        "cpu_time_vs_ref": f"total CPU time, program / reference; {repeats}",
        "peak_mb": f"mean of per-run tracemalloc peaks over {len(peaked)} untimed runs",
        "payload_mb_per_run": f"read back from {len(counted)} emitted transcripts",
        "envelopes_per_run": f"read back from {len(counted)} emitted transcripts",
        "setup_s": f"median of {SETUP_REPS} set-ups",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({notes[name]})")
    for who, runs in (("program", timed), ("reference", ref_timed)):
        walls = [r.wall_ns / 1e6 for r in runs]
        p90 = (f"{percentile(walls, 90):.4g} ms" if len(walls) >= 100
               else "not reported, fewer than 100 runs")
        print(f"{who}: runs_per_s {len(runs) / (sum(walls) / 1e3):.4g} 1/s, "
              f"run_ms_p50 {statistics.median(walls):.4g} ms, run_ms_p90 {p90}, "
              f"cpu_ms_per_run {sum(r.cpu_ns for r in runs) / 1e6 / len(runs):.4g} ms  "
              f"({len(runs)} timed runs, every repeat)")
    print(f"peak over the whole peak pass = {max(peaks):.6g} MB")
    records = warm + timed + counted + peaked
    entries, memo_mb = memo_gauge(env)
    print(f"paths.path_memo_entries = {entries} count, {memo_mb:.4g} MB  "
          f"(left on the trees after {len(records)} runs)")
    metrics_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return records, ref_records, metrics_json


# -- per layer (trace 1) ---------------------------------------------------------------

CLASS_OF_TAG = {1: "value", 2: "echo", 3: "vote"}


def transcript_facts(transcript: Any, finder_rounds: int) -> dict[str, Any]:
    """SHA-256 over the envelope sequence and bytes per tag and phase.

    The digest covers (round, sender, receiver, payload) of every envelope
    in order, which is everything the JSONL transcript format encodes.
    """
    digest = hashlib.sha256()
    sizes = dict.fromkeys(("value", "echo", "vote", "other", "finder", "agreement"), 0)
    head = struct.Struct(">IIII")
    for env in transcript.envelopes:
        payload = env.payload
        digest.update(head.pack(env.round, env.sender, env.receiver, len(payload)))
        digest.update(payload)
        sizes[CLASS_OF_TAG.get(payload[0] if payload else 0, "other")] += len(payload)
        sizes["finder" if env.round <= finder_rounds else "agreement"] += len(payload)
    return {"sha256": digest.hexdigest(), "bytes": sizes,
            "envelopes": len(transcript.envelopes), "rounds": transcript.rounds_used}


# metric -> (unit, better, span names it is computed from)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {}


def _layer(name: str, unit: str, better: str, *needs: str) -> None:
    PER_LAYER[name] = (unit, better, needs)


for _span in ("wire.decode_vector", "wire.encode_vector", "wire.encode_path", "wire.decode_path",
              "gradecast.received_vectors", "gradecast.compute_candidates",
              "gradecast.grade_votes", "real_aa.plan_iterations", "real_aa.trim_mean_update",
              "paths.supported_prefix", "paths.decode_tree_path", "simnet.run_simulation",
              "simnet.program_step", "simnet.to_jsonl", "simnet.from_jsonl",
              "simnet.replay_transcript", "harness.emit", "adversaries.byzantine_send",
              "adversaries.corrupt_decision", "harness.run_one", "trees.convex_hull",
              "bounds.lb_rounds", "trees.path_from_root", "trees.is_path", "tree_aa.run"):
    _layer(f"{_span}.self_ms", "ms", "lower", _span)
for _span in ("wire.decode_vector", "real_aa.plan_iterations", "paths.decode_tree_path",
              "trees.distance"):
    _layer(f"{_span}.calls", "count", "lower", _span)
_layer("wire.decode_vector.mb", "MB", "lower", "wire.decode_vector")
_layer("wire.decode_vector.distinct_ratio", "ratio", "higher", "wire.decode_vector")
_layer("wire.decode_rejects", "count", "lower", "wire.decode_vector", "wire.decode_path")
_layer("paths.path_memo_entries", "count", "lower")
_layer("paths.path_memo_mb", "MB", "lower")
_layer("simnet.rounds", "count", "lower", "simnet.run_simulation")
for _part in ("value", "echo", "vote", "finder", "agreement"):
    _layer(f"simnet.bytes.{_part}", "MB", "lower", "simnet.run_simulation")
_layer("simnet.envelopes", "count", "lower", "simnet.run_simulation")
_layer("adversaries.shadow_steps", "count", "lower",
       "simnet.program_step", "adversaries.byzantine_send")
_layer("generators.generate_tree.ms", "ms", "lower", "generators.generate_tree")
_layer("trees.euler.ms", "ms", "lower", "trees.euler")
_layer("trace.overhead_pct", "%", "lower")
_layer("trace.spans_per_run", "count", "lower")
_layer("trace.errors", "count", "lower")


def per_layer(env: Env, tracer: Tracer, seconds: float) -> tuple[list[Record], dict, bool]:
    readback = env.work.readback
    golden = {}
    if env.seed == DEFAULT_SEED and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(env.workload, {})
    warm = [one_run(env, 0, readback)]
    gc.collect()
    gc.freeze()

    facts: dict[int, dict[str, Any]] = {}

    def after(rec: Record) -> None:
        tracer.counters["wire.decode_vector.distinct"] += len(tracer.distinct)
        tracer.distinct.clear()
        if tracer.transcript is not None:
            facts[rec.index] = transcript_facts(tracer.transcript, env.rounds[rec.cell][1])
            tracer.transcript = None
            want = golden.get(str(rec.index))
            if want is not None and facts[rec.index]["sha256"] != want and rec.failure is None:
                rec.failure = f"transcript digest {facts[rec.index]['sha256']} != golden {want}"

    tracer.install(TARGETS)
    try:
        traced = run_cycles(env, 1, readback, seconds=seconds / 2, tracer=tracer, after=after)
    finally:
        tracer.uninstall()
    untraced = run_cycles(env, 1 + len(traced), readback, min_runs=len(traced))

    # Self time per span, and the check that no run's self times exceed its wall time.
    own = tracer.self_times()
    names = tracer.names
    root_id = tracer.name_id("bench.run")
    runs = len(traced)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, list[int]] = {}  # set-up spans, inclusive time per set-up
    run_self: dict[int, int] = {}
    run_wall: dict[int, int] = {}
    bad_spans = 0
    shadow_steps = 0
    step_id, send_id = tracer.name_id("simnet.program_step"), tracer.name_id("adversaries.byzantine_send")
    in_send = [False] * len(own)
    spans_in_runs = 0
    for i, nid in enumerate(tracer.name):
        run = tracer.run[i]
        parent = tracer.parent[i]
        in_send[i] = nid == send_id or (parent >= 0 and in_send[parent])
        if run < 0:
            name = names[nid]
            per_setup = total_ns.setdefault(name, [0] * SETUP_REPS)
            per_setup[-1 - run] += tracer.end[i] - tracer.start[i]
            continue
        spans_in_runs += 1
        if own[i] < 0:
            bad_spans += 1
        if nid == root_id:
            run_wall[run] = tracer.end[i] - tracer.start[i]
        run_self[run] = run_self.get(run, 0) + own[i]
        if nid == step_id and parent >= 0 and in_send[parent]:
            shadow_steps += 1
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[i]
    bad_runs = sum(1 for run, wall in run_wall.items() if run_self[run] > wall)

    traced_rps = runs / (sum(r.wall_ns for r in traced) / 1e9)
    untraced_rps = len(untraced) / (sum(r.wall_ns for r in untraced) / 1e9)
    fact_list = list(facts.values())
    entries, memo_mb = memo_gauge(env)
    counters = tracer.counters

    def mean_fact(get: Callable[[dict], float]) -> float:
        return sum(get(f) for f in fact_list) / len(fact_list) if fact_list else 0.0

    values: dict[str, float] = {}
    for name in PER_LAYER:
        span = name.rsplit(".", 1)[0]
        if name.endswith(".self_ms"):
            values[name] = self_ns.get(span, 0) / 1e6 / runs
        elif name.endswith(".calls"):
            values[name] = calls.get(span, 0) / runs
        elif name.endswith(".ms"):
            per_setup = total_ns.get(span)
            values[name] = statistics.median(per_setup) / 1e6 if per_setup else 0.0
    decode_calls = calls.get("wire.decode_vector", 0)
    values.update({
        "wire.decode_vector.mb": counters["wire.decode_vector.bytes"] / MB / runs,
        "wire.decode_vector.distinct_ratio":
            counters["wire.decode_vector.distinct"] / decode_calls if decode_calls else 0.0,
        "wire.decode_rejects": counters["wire.decode_rejects"] / runs,
        "paths.path_memo_entries": entries,
        "paths.path_memo_mb": memo_mb,
        "simnet.rounds": mean_fact(lambda f: f["rounds"]),
        "simnet.envelopes": mean_fact(lambda f: f["envelopes"]),
        "adversaries.shadow_steps": shadow_steps / runs,
        "trace.overhead_pct": 100 * (untraced_rps - traced_rps) / untraced_rps,
        "trace.spans_per_run": spans_in_runs / runs,
        "trace.errors": sum(tracer.errors.values()),
    })
    for part in ("value", "echo", "vote", "finder", "agreement"):
        values[f"simnet.bytes.{part}"] = mean_fact(lambda f, p=part: f["bytes"][p] / MB)

    metrics = {}
    for name, (unit, _better, needs) in PER_LAYER.items():
        gone = [tracer.missing[s] for s in needs if s in tracer.missing]
        if gone:
            metrics[name] = {"value": None, "unit": unit, "absent": f"not found: {', '.join(gone)}"}
            print(f"{name} = absent ({metrics[name]['absent']})")
        else:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}")
    checked = sum(1 for i in facts if str(i) in golden)
    print(f"traced runs = {runs}, untraced runs = {len(untraced)}, "
          f"runs_per_s traced {traced_rps:.4g} vs untraced {untraced_rps:.4g} 1/s")
    print(f"golden digests checked = {checked}"
          + ("" if env.seed == DEFAULT_SEED else f" (only seed {DEFAULT_SEED} has golden digests)"))
    print(f"spans with negative self time = {bad_spans}, "
          f"runs whose self times exceed their wall time = {bad_runs}")
    if tracer.errors:
        print(f"errors raised per span: {dict(tracer.errors)}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{env.workload}.tsv"  # one file per workload, last run wins
    tracer.write_tsv(spans_file)
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return warm + traced + untraced, metrics, bad_spans == 0 and bad_runs == 0


# -- main ------------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treeaa" / "__init__.py").is_file():
        print(f"perfbench: no treeaa package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None
    setups = []
    for rep in range(SETUP_REPS):
        elapsed, env = setup(args.workload, args.seed, tracer, rep)
        setups.append(elapsed)
    setup_s = statistics.median(setups)
    print(f"workload {args.workload}, seed {args.seed}, {len(env.cells)} cells per cycle, "
          f"trace {args.trace}")
    ref_failures: list[Record] = []
    gc.disable()
    try:
        if tracer is None:
            sys.path.insert(0, str(REFERENCE))
            _, ref = setup(args.workload, args.seed, None, 0, package="treeaa_ref")
            records, ref_records, metrics = end_to_end(env, ref, setup_s, args.seconds)
            ref_failures = [r for r in ref_records if r.failure is not None]
            consistent = not ref_failures
        else:
            print(f"setup_s = {setup_s:.6g} s  (median of {SETUP_REPS}, traced)")
            records, metrics, consistent = per_layer(env, tracer, args.seconds)
    finally:
        gc.enable()
        gc.unfreeze()
    failures = [r for r in records if r.failure is not None]
    for who, failed in (("", failures), ("reference ", ref_failures)):
        for rec in failed[:3]:
            print(f"FAILED {who}run {rec.index} {rec.cell}: {rec.failure}\n{rec.traceback}",
                  file=sys.stderr)
    print(f"failed_share = {len(failures)}/{len(records)} = {len(failures) / len(records):.4g}")
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The heavy matrices fan out over a small process pool; every run
stays deterministic in its seed, so repeated invocations are bit-stable.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from bisect import bisect_left
from itertools import product

import pytest

import oracles
from oracles import guaranteed_spread, spread
from byzhelpers import InstanceScript, check_consistency

from treeaa import (
    closest_int,
    parse_tree,
    plan_iterations,
    planned_rounds,
    run_simulation,
)
from treeaa.adversaries import REGISTRY, context_for_real_aa, make_adversary
from treeaa.bounds import (
    k_bound,
    k_bound_simple,
    lb_rounds,
    max_product_partition,
)
from treeaa.harness import assign_inputs, resolve_tree, run_one
from treeaa.gradecast import gradecast_all
from treeaa.real_aa import real_aa_machine
from treeaa.simnet import Transcript
from treeaa.trees import LabeledTree

EIGHT_DOC = "v1 v2\nv2 v3\nv3 v6\nv3 v7\nv2 v4\nv4 v8\nv2 v5\n"
EIGHT_EULER = (
    "v1", "v2", "v3", "v6", "v3", "v7", "v3", "v2",
    "v4", "v8", "v4", "v2", "v5", "v2", "v1",
)

MATRIX_TREES = ("path:1000", "star:50", "caterpillar:300", "binary:255", "eight", "random:200")
MATRIX_NT = ((4, 1), (7, 2), (10, 3))
MATRIX_D = (1e2, 1e3, 1e6)
ADVERSARIES = tuple(sorted(REGISTRY))
MODES = ("final", "legacy")
SEEDS = 100


def _report(num: int, name: str, violations: list[str],
            elapsed: float | None = None, limit: float | None = None) -> None:
    if elapsed is not None and limit is not None and elapsed >= limit:
        violations = violations + [f"runtime {elapsed:.3f}s exceeded limit {limit}s"]
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    timing = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:>2} {name}: {status}{timing}", flush=True)
    assert not violations, f"criterion {num} ({name}): " + " | ".join(violations[:8])


def _pool_map(func, tasks):
    if len(tasks) <= 1 or os.cpu_count() == 1:
        return [func(task) for task in tasks]
    with multiprocessing.Pool(min(os.cpu_count() or 1, 4)) as pool:
        return pool.map(func, tasks, chunksize=1)


_TREE_CACHE: dict[str, tuple[LabeledTree, str]] = {}


def _tree(spec: str) -> tuple[LabeledTree, str]:
    if spec not in _TREE_CACHE:
        if spec == "eight":
            tree = parse_tree(EIGHT_DOC)
            tree.diameter  # warm the caches shared across runs
            _TREE_CACHE[spec] = (tree, "eight")
        else:
            tree, kind = resolve_tree(spec)
            tree.diameter
            _TREE_CACHE[spec] = (tree, kind)
    return _TREE_CACHE[spec]


# -- criterion 1: exact Euler visit list ------------------------------------------


def test_criterion_01_euler_list_exactness():
    tree = parse_tree(EIGHT_DOC)
    start = time.perf_counter()
    euler = tree.euler_list("v1")
    elapsed = time.perf_counter() - start
    violations = []
    if euler.entries != EIGHT_EULER:
        violations.append(f"visit list mismatch: {euler.entries}")
    if len(euler.entries) != 15:
        violations.append("expected 15 entries")
    _report(1, "euler-list-exactness", violations, elapsed, limit=0.001)


# -- criterion 2: visit-list property suite over 500 random trees -------------------


def _check_euler_tree(seed: int) -> list[str]:
    rng = random.Random(f"euler-acc:{seed}")
    size = rng.randint(1, 60)
    edges = oracles.random_edge_list(rng, size)
    tree = LabeledTree(edges) if edges else LabeledTree((), vertices=["n000"])
    adj = oracles.adjacency(tree)
    root = min(adj)
    parent = oracles.rooted_parents(adj, root)
    chains = {v: oracles.ancestors(parent, v) for v in adj}
    anc_sets = {v: set(c) for v, c in chains.items()}
    euler = tree.euler_list(root)
    entries = euler.entries
    bad = []
    if len(adj) > 1:
        for a, b in zip(entries, entries[1:]):
            if b not in adj[a]:
                bad.append(f"seed {seed}: non-adjacent entries {a},{b}")
    if len(entries) > 2 * len(adj):
        bad.append(f"seed {seed}: list too long")
    if set(entries) != set(adj):
        bad.append(f"seed {seed}: vertex coverage")
    pos = euler.index_of
    lo = {v: p[0] for v, p in pos.items()}
    hi = {v: p[-1] for v, p in pos.items()}
    verts = sorted(adj)
    for v in verts:
        for u in verts:
            inside = lo[v] <= lo[u] and hi[u] <= hi[v]
            if inside != (v in anc_sets[u]):
                bad.append(f"seed {seed}: subtree window {v},{u}")
    for v in verts:
        for u in verts:
            cu = anc_sets[u]
            lca = next(x for x in chains[v] if x in cu)
            lpos = pos[lca]
            for i in pos[v]:
                for j in pos[u]:
                    a, b = (i, j) if i <= j else (j, i)
                    k = bisect_left(lpos, a)
                    if k >= len(lpos) or lpos[k] > b:
                        bad.append(f"seed {seed}: lca window {v},{u}")
    return bad


def test_criterion_02_euler_property_suite():
    start = time.perf_counter()
    violations = []
    for seed in range(500):
        violations.extend(_check_euler_tree(seed))
    _report(2, "euler-visit-list-properties-500-trees", violations,
            time.perf_counter() - start, limit=10.0)


# -- criterion 3: gradecast definition under exhaustive and registry attack ---------


_GC_VALUES4 = {pid: b"hv-%d" % pid for pid in range(1, 5)}
_GC_ALPHABET = (b"v", b"w", None)


def gradecast_once(n, t, values, adversary=None, seed=0):
    """({honest pid: {sender pid: GradedValue}}, transcript) of one invocation."""
    return run_simulation(n, t, [gradecast_all(n, t, values[pid]) for pid in range(1, n + 1)],
                          adversary, seed)


def _gc_enumeration_chunk(c1) -> list[str]:
    bad = []
    r1 = dict(zip((1, 2, 3), c1))
    for c2 in product(_GC_ALPHABET, repeat=3):
        for c3 in product(_GC_ALPHABET, repeat=3):
            script = InstanceScript(4, 4, r1, dict(zip((1, 2, 3), c2)),
                                    dict(zip((1, 2, 3), c3)))
            outputs, transcript = gradecast_once(4, 1, _GC_VALUES4, script)
            if transcript.rounds_used != 3:
                bad.append(f"rounds {transcript.rounds_used} for {c1},{c2},{c3}")
            try:
                check_consistency(outputs, 4)
            except AssertionError as exc:
                bad.append(f"consistency {c1},{c2},{c3}: {exc}")
            for receiver in (1, 2, 3):
                for sender in (1, 2, 3):
                    if outputs[receiver][sender] != (_GC_VALUES4[sender], 2):
                        bad.append(f"integrity {c1},{c2},{c3}")
    return bad


def _gc_integrity_chunk(c2) -> list[str]:
    bad = []
    target = 2
    for c3 in product(_GC_ALPHABET, repeat=3):
        script = InstanceScript(4, target, {}, dict(zip((1, 2, 3), c2)),
                                dict(zip((1, 2, 3), c3)))
        outputs, _ = gradecast_once(4, 1, _GC_VALUES4, script)
        for receiver in (1, 2, 3):
            if outputs[receiver][target] != (_GC_VALUES4[target], 2):
                bad.append(f"honest-sender integrity {c2},{c3}")
    return bad


def _gc_registry_chunk(args) -> list[str]:
    n, t, name, seeds = args
    bad = []
    values = {pid: b"reg-%d" % pid for pid in range(1, n + 1)}
    for seed in seeds:
        ctx = context_for_real_aa(n, t, 100.0, 1.0)
        adversary = make_adversary(name, ctx)
        outputs, transcript = gradecast_once(n, t, values, adversary, seed=seed)
        if transcript.rounds_used != 3:
            bad.append(f"{name} n={n} seed={seed}: rounds {transcript.rounds_used}")
        try:
            check_consistency(outputs, n)
        except AssertionError as exc:
            bad.append(f"{name} n={n} seed={seed}: {exc}")
        honest = set(outputs)
        for receiver in honest:
            for sender in honest:
                if outputs[receiver][sender] != (values[sender], 2):
                    bad.append(f"{name} n={n} seed={seed}: integrity sender {sender}")
    return bad


def test_criterion_03_gradecast_definition():
    start = time.perf_counter()
    violations = []
    for chunk in _pool_map(_gc_enumeration_chunk, list(product(_GC_ALPHABET, repeat=3))):
        violations.extend(chunk)
    for chunk in _pool_map(_gc_integrity_chunk, list(product(_GC_ALPHABET, repeat=3))):
        violations.extend(chunk)
    registry_tasks = [
        (n, t, name, range(0, 200))
        for (n, t) in ((7, 2), (10, 3))
        for name in ADVERSARIES
    ]
    for chunk in _pool_map(_gc_registry_chunk, registry_tasks):
        violations.extend(chunk)
    _report(3, "gradecast-definition", violations, time.perf_counter() - start, limit=60.0)


# -- criterion 4: real-valued agreement validity and convergence claims -------------


def _real_aa_chunk(args) -> list[str]:
    n, t, d, name, seeds = args
    bad = []
    plan = plan_iterations(n, t, d, 1.0)
    for seed in seeds:
        rng = random.Random(f"realaa-inputs:{n}:{d}:{seed}")
        inputs = {pid: rng.uniform(0.0, d) for pid in range(1, n + 1)}
        adversary = make_adversary(name, context_for_real_aa(n, t, d, 1.0))
        results, transcript = run_simulation(
            n, t, [real_aa_machine(n, t, inputs[pid], d, 1.0) for pid in range(1, n + 1)],
            adversary, seed,
        )
        outputs = {pid: res.value for pid, res in results.items()}
        tag = f"{name} n={n} d={d:g} seed={seed}"
        honest = sorted(outputs)
        v0 = [inputs[pid] for pid in honest]
        lo, hi = min(v0), max(v0)
        for pid in honest:
            for v in results[pid].history:
                if not lo <= v <= hi:
                    bad.append(f"{tag}: validity breach {v} outside [{lo},{hi}]")
        final = spread([outputs[pid] for pid in honest])
        bound = guaranteed_spread(n, t, plan, lo, hi)
        if final > bound:
            bad.append(f"{tag}: range {float(final)} above bound {float(bound)}")
        if transcript.rounds_used != 3 * plan:
            bad.append(f"{tag}: rounds {transcript.rounds_used} != {3 * plan}")
        honest_set = set(honest)
        for pid in honest:
            if results[pid].blacklist & honest_set:
                bad.append(f"{tag}: honest party blacklisted an honest party")
    return bad


def test_criterion_04_real_aa_validity_convergence():
    start = time.perf_counter()
    tasks = [
        (n, t, d, name, range(lo, lo + 50))
        for (n, t) in MATRIX_NT
        for d in MATRIX_D
        for name in ADVERSARIES
        for lo in (0, 50)
    ]
    violations = []
    for chunk in _pool_map(_real_aa_chunk, tasks):
        violations.extend(chunk)
    _report(4, "real-aa-validity-and-convergence", violations, time.perf_counter() - start)


# -- criterion 5: iteration plan stays under the asymptotic cap ---------------------


def test_criterion_05_iteration_cap():
    start = time.perf_counter()
    violations = []
    for n, t in MATRIX_NT:
        for delta in (16.0, 1e3, 1e6, 1e9):
            rounds = 3 * plan_iterations(n, t, delta, 1.0)
            cap = 7 * math.log2(delta) / math.log2(math.log2(delta)) + 3
            if not rounds < cap:
                violations.append(f"n={n} t={t} delta={delta:g}: {rounds} >= {cap}")
    _report(5, "iteration-plan-cap", violations, time.perf_counter() - start, limit=1.0)


# -- criteria 6 + 7 (+ observed rounds for 8): the end-to-end matrix ----------------


def _matrix_chunk(args):
    spec, n, t, mode, name, seeds = args
    tree, kind = _tree(spec)
    expected = planned_rounds(tree, n, t, mode)
    agreement_bad: list[str] = []
    rounds_bad: list[str] = []
    for seed in seeds:
        rng = random.Random(f"inputs:{seed}")
        inputs = assign_inputs(tree, n, "random", rng)
        rep = run_one(tree, kind, n, t, mode, name, inputs, seed)
        tag = f"{spec} n={n} {mode} {name} seed={seed}"
        if not rep.valid:
            agreement_bad.append(f"{tag}: output outside honest hull")
        if rep.max_dist > 1:
            agreement_bad.append(f"{tag}: max output distance {rep.max_dist}")
        if rep.rounds != expected:
            rounds_bad.append(f"{tag}: rounds {rep.rounds} != {expected}")
    return agreement_bad, rounds_bad, (spec, n, t, mode, expected)


@pytest.fixture(scope="module")
def matrix_results():
    start = time.perf_counter()
    tasks = [
        (spec, n, t, mode, name, range(lo, lo + 50))
        for spec in MATRIX_TREES
        for (n, t) in MATRIX_NT
        for mode in MODES
        for name in ADVERSARIES
        for lo in (0, 50)
    ]
    agreement: list[str] = []
    rounds: list[str] = []
    observed: dict[tuple, int] = {}
    for agreement_bad, rounds_bad, (spec, n, t, mode, expected) in _pool_map(_matrix_chunk, tasks):
        agreement.extend(agreement_bad)
        rounds.extend(rounds_bad)
        observed[(spec, n, t, mode)] = expected
    elapsed = time.perf_counter() - start
    runs = len(tasks) * 50
    print(f"\n[matrix: {runs} runs in {elapsed:.1f}s]", flush=True)
    return {"agreement": agreement, "rounds": rounds, "observed": observed,
            "elapsed": elapsed, "runs": runs}


def test_criterion_06_end_to_end_agreement(matrix_results):
    _report(6, "end-to-end-validity-and-1-agreement", matrix_results["agreement"],
            matrix_results["elapsed"], limit=300.0)


def test_criterion_07_round_accounting(matrix_results):
    violations = list(matrix_results["rounds"])
    for (spec, n, t, mode), expected in sorted(matrix_results["observed"].items()):
        tree, _ = _tree(spec)
        if mode == "final":
            formula = 3 + 3 * plan_iterations(n, t, float(tree.diameter), 1.0)
        else:
            formula = (3 * plan_iterations(n, t, 2.0 * len(tree), 1.0)
                       + 3 * plan_iterations(n, t, float(tree.diameter), 1.0))
        if expected != formula:
            violations.append(f"{spec} n={n} {mode}: predicted {expected} != formula {formula}")
    _report(7, "round-accounting-exact", violations)


# -- criterion 8: bounds consistency -------------------------------------------------


def test_criterion_08a_lower_bound_below_observed(matrix_results):
    violations = []
    for (spec, n, t, mode), rounds in sorted(matrix_results["observed"].items()):
        if mode != "final":
            continue
        tree, _ = _tree(spec)
        lb = lb_rounds(n, t, float(tree.diameter))
        if lb > rounds:
            violations.append(f"{spec} n={n}: lb_rounds {lb} > observed {rounds}")
    _report(8, "bounds-8a-lower-vs-observed", violations)


def test_criterion_08b_partition_bound_dominates_simple_form():
    # As stated: the partition form should dominate the closed form whenever
    # t >= R.  The integer partition maximum is at most the real balanced
    # product (t/R)^R, with equality only when R divides t, so for t=3, R=2
    # the partition form is strictly below the closed form; the check is
    # expected to fail there and is asserted as stated regardless.
    violations = []
    for n, t in MATRIX_NT:
        for r in range(1, t + 1):
            kb = k_bound(n, t, r, 1000.0)
            ks = k_bound_simple(n, t, r, 1000.0)
            if not kb >= ks:
                violations.append(f"n={n} t={t} R={r}: k_bound {kb:.6g} < k_bound_simple {ks:.6g}")
    _report(8, "bounds-8b-partition-vs-simple", violations)


def test_criterion_08c_balanced_partition_optimality():
    start = time.perf_counter()
    violations = []
    for t in range(0, 13):
        for r in range(1, 13):
            got = max_product_partition(t, r)
            want = oracles.enumerate_max_product(t, r)
            if got != want:
                violations.append(f"t={t} R={r}: balanced {got} != enumerated {want}")
    _report(8, "bounds-8c-balanced-partition-optimality", violations,
            time.perf_counter() - start)


# -- criterion 9: closest-integer rounding properties --------------------------------


def test_criterion_09_closest_int_randomized():
    # The limit is on this process's CPU time: on a shared host, other load
    # lengthens the wall time of the unchanged code.
    start = time.process_time()
    rng = random.Random("closest-int-acceptance")
    violations = []
    for _ in range(10**6):
        j = rng.uniform(-1e6, 1e6)
        c = closest_int(j)
        z = math.floor(j)
        # Exact half-up oracle: j - z < 1/2 iff 2j < 2z + 1; both sides are
        # exactly representable at these magnitudes.
        expected = z if 2.0 * j < 2 * z + 1 else z + 1
        if c != expected:
            violations.append(f"half-up rule at {j!r}: {c} != {expected}")
            break
        if not (2 * c - 1 <= 2.0 * j <= 2 * c + 1):
            violations.append(f"|j - closest_int(j)| > 1/2 at {j!r}")
            break
        d = rng.uniform(0.0, 1.0)
        j2 = j + d
        if j2 - j <= 1.0 and abs(closest_int(j2) - c) > 1:
            violations.append(f"1-close inputs round 2 apart at {j!r}, {j2!r}")
            break
        a = rng.randint(-10**6, 10**6)
        b = a + rng.randint(0, 100)
        inside = a + rng.uniform(0.0, 1.0) * (b - a)
        ci = closest_int(inside)
        if not a <= ci <= b:
            violations.append(f"interval escape: closest_int({inside!r}) = {ci} not in [{a},{b}]")
            break
    _report(9, "closest-int-randomized", violations, time.process_time() - start, limit=5.0)


# -- criterion 10: bit-identical replay files ----------------------------------------


def test_criterion_10_transcript_determinism(tmp_path):
    start = time.perf_counter()
    violations = []
    cases = [
        ("random:200", 7, 2, mode, name, 17 + i)
        for i, (mode, name) in enumerate(product(MODES, ADVERSARIES))
    ] + [("path:1000", 10, 3, "final", "equivocator", 99)]
    for spec, n, t, mode, name, seed in cases:
        tree, kind = _tree(spec)
        inputs = assign_inputs(tree, n, "random", random.Random(f"inputs:{seed}"))
        payloads = []
        for repeat in range(2):
            rep = run_one(tree, kind, n, t, mode, name, inputs, seed,
                          emit_dir=str(tmp_path / f"r{repeat}"))
            with open(rep.transcript_path, "rb") as fh:
                payloads.append(fh.read())
        if payloads[0] != payloads[1]:
            violations.append(f"{spec} {mode} {name} seed={seed}: transcript differs")
        if not payloads[0]:
            violations.append(f"{spec} {mode} {name} seed={seed}: empty transcript")
        back = Transcript.from_jsonl(payloads[0].decode("utf-8"), n=n)
        if back.rounds_used == 0:
            violations.append(f"{spec} {mode} {name} seed={seed}: no rounds in file")
    _report(10, "transcript-determinism", violations, time.perf_counter() - start)

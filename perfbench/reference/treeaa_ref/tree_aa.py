"""End-to-end approximate agreement on trees.

Both full protocols reduce tree agreement to real-valued agreement on
vertex positions along a path:

* final mode runs the 3-round prefix finder, projects each input onto the
  party's path p, agrees on the projected position, and reads the answer
  off the longer path q (3 + 3 * plan(n, t, D, 1) rounds);
* legacy mode first agrees on a path via the Euler-list finder, then
  repeats the projection step on that path, clamping a landed position
  that falls just past a shorter path's end to the path's last vertex.

Trees of diameter at most 1 make the problem trivial; runners short-circuit
to returning each party's own input in zero rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams, ProtocolViolation
from .paths import (
    LegacyPathResult,
    PathPair,
    legacy_path_finder_machine,
    legacy_rounds,
    prefix_path_finder_machine,
)
from .real_aa import RealAAResult, closest_int, plan_iterations, real_aa_machine
from .trees import LabeledTree, Path

__all__ = [
    "closest_int",
    "TreeAAConfig",
    "TreeAAResult",
    "tree_aa_machine",
    "final_tree_aa_machine",
    "tree_aa_old_machine",
    "final_rounds",
    "old_rounds",
    "run_tree_aa",
    "run_final_tree_aa",
    "run_tree_aa_old",
]


@dataclass(frozen=True)
class TreeAAConfig:
    """Validated experiment parameters for the tree protocols."""

    tree: LabeledTree
    n: int
    t: int
    mode: str = "final"

    def __post_init__(self):
        if self.mode not in ("final", "legacy"):
            raise InvalidParams(f"mode must be final or legacy, got {self.mode!r}")
        if self.t < 0 or self.n <= 3 * self.t:
            raise InvalidParams(f"need 0 <= t < n/3, got n={self.n} t={self.t}")


@dataclass(frozen=True)
class TreeAAResult:
    """Per-party protocol outcome with the intermediates tests assert on."""

    output: str
    p: Path
    q: Path
    start_index: int  # projection position fed into the real agreement
    landed_index: int  # rounded agreement output
    clamped: bool  # legacy mode only: landed past the own path's end
    real: RealAAResult
    finder: LegacyPathResult | None = None


def _projection_index(tree: LabeledTree, path: Path, vertex: str) -> int:
    """1-based position of the projection of ``vertex`` onto ``path``.

    For a path starting at the canonical root the projection is the last
    vertex shared with the root-to-vertex path (the walk toward any later
    path vertex must pass through it), which avoids per-vertex distance
    queries on long paths.
    """
    if path[0] == tree.root:
        mine = tree.path_from_root(vertex)
        limit = min(len(mine), len(path))
        i = 0
        while i < limit and mine[i] == path[i]:
            i += 1
        return i
    return path.index(tree.project_onto_path(path, vertex)) + 1


def tree_aa_machine(tree: LabeledTree, n: int, t: int, pid: int, input_vertex: str,
                    p: Path, q: Path):
    """Agreement given paths (p, q) meeting the prefix-finder guarantees."""
    index = _projection_index(tree, p, input_vertex)
    result = yield from real_aa_machine(n, t, pid, float(index), float(tree.diameter), 1.0)
    landed = closest_int(result.value)
    if not 1 <= landed <= len(q):
        raise ProtocolViolation(
            f"landed index {landed} outside 1..{len(q)}; (p, q) preconditions violated"
        )
    return TreeAAResult(q[landed - 1], p, q, index, landed, False, result)


def final_tree_aa_machine(tree: LabeledTree, n: int, t: int, pid: int, input_vertex: str):
    pair: PathPair = yield from prefix_path_finder_machine(tree, n, t, pid, input_vertex)
    result = yield from tree_aa_machine(tree, n, t, pid, input_vertex, pair.p, pair.q)
    return result


def _counted(machine):
    """Drive a sub-machine, measuring the rounds it consumes."""
    rounds = 0
    try:
        out = machine.send(None)
        while True:
            rounds += 1
            inbox = yield out
            out = machine.send(inbox)
    except StopIteration as stop:
        return rounds, stop.value


def tree_aa_old_machine(tree: LabeledTree, n: int, t: int, pid: int, input_vertex: str):
    finder_window = legacy_rounds(tree, n, t)
    consumed, finder = yield from _counted(
        legacy_path_finder_machine(tree, n, t, pid, input_vertex)
    )
    if consumed > finder_window:
        raise ProtocolViolation(f"finder took {consumed} rounds, window is {finder_window}")
    # Wait out the finder window so all parties enter the second agreement
    # together; with the fixed iteration plan everyone already has, so this
    # never actually idles.
    for _ in range(finder_window - consumed):
        yield []
    path = finder.path
    k = len(path)
    index = _projection_index(tree, path, input_vertex)
    result = yield from real_aa_machine(n, t, pid, float(index), float(tree.diameter), 1.0)
    landed = closest_int(result.value)
    if landed < 1:
        raise ProtocolViolation(f"landed index {landed} below 1")
    clamped = landed > k
    output = path[k - 1] if clamped else path[landed - 1]
    return TreeAAResult(output, path, path, index, landed, clamped, result, finder)


def final_rounds(tree: LabeledTree, n: int, t: int) -> int:
    """Exact simulated round count of the final protocol."""
    if tree.diameter <= 1:
        return 0
    return 3 + 3 * plan_iterations(n, t, float(tree.diameter), 1.0)


def old_rounds(tree: LabeledTree, n: int, t: int) -> int:
    """Exact simulated round count of the legacy protocol."""
    if tree.diameter <= 1:
        return 0
    return legacy_rounds(tree, n, t) + 3 * plan_iterations(n, t, float(tree.diameter), 1.0)


def _run(tree, n, t, inputs, machine_factory, planned, adversary=None, seed=0):
    from .simnet import GeneratorProgram, Transcript, run_simulation

    for pid in range(1, n + 1):
        tree._require(inputs[pid])
    if tree.diameter <= 1:
        outputs = {pid: inputs[pid] for pid in range(1, n + 1)}
        results = {
            pid: TreeAAResult(inputs[pid], (inputs[pid],), (inputs[pid],), 1, 1, False,
                              RealAAResult(1.0, frozenset(), (1.0,), 0))
            for pid in range(1, n + 1)
        }
        return outputs, Transcript(n, t, seed), results
    programs = [
        GeneratorProgram(machine_factory(tree, n, t, pid, inputs[pid]))
        for pid in range(1, n + 1)
    ]
    cap = 10 * (3 + planned)
    results, transcript = run_simulation(n, t, programs, adversary, seed, cap)
    outputs = {pid: res.output for pid, res in results.items()}
    return outputs, transcript, results


def run_tree_aa(tree, n, t, inputs, pairs, adversary=None, seed=0):
    """Agreement from explicit per-party (p, q) paths.

    ``pairs`` maps pid to a PathPair; returns ({honest pid: label},
    transcript, {honest pid: TreeAAResult}).
    """
    from .simnet import GeneratorProgram, run_simulation

    for pid in range(1, n + 1):
        tree.validate_path(pairs[pid].p)
        tree.validate_path(pairs[pid].q)
    programs = [
        GeneratorProgram(
            tree_aa_machine(tree, n, t, pid, inputs[pid], pairs[pid].p, pairs[pid].q)
        )
        for pid in range(1, n + 1)
    ]
    cap = 10 * (3 + 3 * plan_iterations(n, t, float(tree.diameter), 1.0))
    results, transcript = run_simulation(n, t, programs, adversary, seed, cap)
    outputs = {pid: res.output for pid, res in results.items()}
    return outputs, transcript, results


def run_final_tree_aa(tree, n, t, inputs, adversary=None, seed=0):
    return _run(tree, n, t, inputs, final_tree_aa_machine, final_rounds(tree, n, t),
                adversary, seed)


def run_tree_aa_old(tree, n, t, inputs, adversary=None, seed=0):
    return _run(tree, n, t, inputs, tree_aa_old_machine, old_rounds(tree, n, t),
                adversary, seed)

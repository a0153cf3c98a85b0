"""End-to-end approximate agreement on trees.

Both full protocols reduce tree agreement to real-valued agreement on
vertex positions along a path:

* final mode runs the 3-round prefix finder, projects each input onto the
  party's path p, agrees on the projected position, and reads the answer
  off the longer path q;
* legacy mode first agrees on a path via the Euler-list finder, then
  repeats the projection step on that path, clamping a landed position
  that falls just past a shorter path's end to the path's last vertex.

``MACHINES`` is the one table of modes and ``planned_rounds`` the one
round formula: the finder's rounds plus 3 * plan(n, t, D, 1).  Trees of
diameter at most 1 make the problem trivial; runners short-circuit to
returning each party's own input in zero rounds.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import simnet
from .bounds import plan_iterations
from .errors import InvalidParams, ProtocolViolation
from .paths import (
    LegacyPathResult,
    PathPair,
    legacy_path_finder_machine,
    legacy_rounds,
    prefix_path_finder_machine,
)
from .real_aa import RealAAResult, closest_int, real_aa_machine
from .trees import LabeledTree, Path


class TreeAAResult(NamedTuple):
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

    The projection is the median of ``vertex`` and the path's two ends
    (``LabeledTree.median``), so its position is one more than its distance
    from the first vertex: O(log |V|) chain hops for any path, with no walk
    along it.
    """
    return tree.distance(path[0], tree.median(path[0], path[-1], vertex)) + 1


def tree_aa_machine(tree: LabeledTree, n: int, t: int, input_vertex: str, p: Path, q: Path):
    """Agreement given paths (p, q) meeting the prefix-finder guarantees."""
    index = _projection_index(tree, p, input_vertex)
    result = yield from real_aa_machine(n, t, float(index), float(tree.diameter), 1.0)
    landed = closest_int(result.value)
    if not 1 <= landed <= len(q):
        raise ProtocolViolation(
            f"landed index {landed} outside 1..{len(q)}; (p, q) preconditions violated"
        )
    return simnet._new(TreeAAResult, (q[landed - 1], p, q, index, landed, False, result, None))


def final_tree_aa_machine(tree: LabeledTree, n: int, t: int, input_vertex: str):
    pair: PathPair = yield from prefix_path_finder_machine(tree, n, t, input_vertex)
    return (yield from tree_aa_machine(tree, n, t, input_vertex, pair.p, pair.q))


def tree_aa_old_machine(tree: LabeledTree, n: int, t: int, input_vertex: str):
    finder = yield from legacy_path_finder_machine(tree, n, t, input_vertex)
    path = finder.path
    k = len(path)
    index = _projection_index(tree, path, input_vertex)
    result = yield from real_aa_machine(n, t, float(index), float(tree.diameter), 1.0)
    landed = closest_int(result.value)
    if landed < 1:
        raise ProtocolViolation(f"landed index {landed} below 1")
    clamped = landed > k
    output = path[k - 1] if clamped else path[landed - 1]
    return simnet._new(TreeAAResult, (output, path, path, index, landed, clamped, result, finder))


class Protocol(NamedTuple):
    machine: Callable  # (tree, n, t, input vertex) -> generator returning TreeAAResult
    finder_rounds: Callable[[LabeledTree, int, int], int]  # (tree, n, t) -> rounds


MACHINES = {
    "final": Protocol(final_tree_aa_machine, lambda tree, n, t: 3),  # one gradecast
    "legacy": Protocol(tree_aa_old_machine, legacy_rounds),
}


def protocol(mode: str) -> Protocol:
    """MACHINES[mode]; InvalidParams for an unknown mode."""
    try:
        return MACHINES[mode]
    except KeyError:
        raise InvalidParams(f"mode must be one of {sorted(MACHINES)}, got {mode!r}") from None


def planned_rounds(tree: LabeledTree, n: int, t: int, mode: str) -> int:
    """Exact simulated round count of the ``mode`` protocol on ``tree``."""
    finder_rounds = protocol(mode).finder_rounds
    if tree.diameter <= 1:
        return 0
    return finder_rounds(tree, n, t) + 3 * plan_iterations(n, t, float(tree.diameter), 1.0)


def _run(tree, n, t, inputs, mode, adversary, seed, machines=None):
    """({honest pid: label}, transcript, {honest pid: TreeAAResult}) of one run.

    Party pid runs ``machines[pid - 1]`` (by default the ``mode`` machine on
    its input); ``mode``'s planned rounds set the round cap.
    """
    machine = protocol(mode).machine
    for pid in range(1, n + 1):
        tree._require(inputs[pid])
    if tree.diameter <= 1:
        own = {pid: inputs[pid] for pid in range(1, n + 1)}
        trivial = RealAAResult(1.0, frozenset(), (1.0,), 0)
        results = {pid: TreeAAResult(v, (v,), (v,), 1, 1, False, trivial) for pid, v in own.items()}
        transcript = simnet.Transcript(n, t, seed)
    else:
        # Through the module, so a wrapper installed on simnet.run_simulation sees the run.
        results, transcript = simnet.run_simulation(
            n, t, machines or [machine(tree, n, t, inputs[pid]) for pid in range(1, n + 1)],
            adversary, seed, round_cap=10 * (3 + planned_rounds(tree, n, t, mode)),
        )
    return {pid: res.output for pid, res in results.items()}, transcript, results


def run_tree_aa(tree, n, t, inputs, pairs, adversary=None, seed=0):
    """Agreement from explicit per-party (p, q) paths.

    ``pairs`` maps pid to a PathPair; returns ({honest pid: label},
    transcript, {honest pid: TreeAAResult}).
    """
    for pid in range(1, n + 1):
        tree.validate_path(pairs[pid].p)
        tree.validate_path(pairs[pid].q)
    machines = [tree_aa_machine(tree, n, t, inputs[pid], pairs[pid].p, pairs[pid].q)
                for pid in range(1, n + 1)]
    # This is final mode without its finder, so final's round count caps it.
    return _run(tree, n, t, inputs, "final", adversary, seed, machines)


def run_final_tree_aa(tree, n, t, inputs, adversary=None, seed=0):
    return _run(tree, n, t, inputs, "final", adversary, seed)


def run_tree_aa_old(tree, n, t, inputs, adversary=None, seed=0):
    return _run(tree, n, t, inputs, "legacy", adversary, seed)

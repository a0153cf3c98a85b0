"""Path agreement subprotocols.

Two ways for the parties to converge on (nearly) the same path of the
input tree:

* the prefix finder gradecasts every party's path from the root to
  its input and keeps the longest prefix supported by n - t senders, once
  at grade 2 (the party's own path P) and once at grade >= 1 (the more
  permissive path Q every honest P is a prefix of).  Inside a run the
  root-path bytes of a vertex are built once per (tree, vertex), both to
  send and to check received paths against, and each distinct graded
  view gets one PathPair, shared by the parties that hold it;
* the legacy finder agrees on a position of the tree's Euler visit list by
  running real-valued agreement on list indices, then returns the path
  from the root to the landed vertex.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import ne
from typing import Mapping, NamedTuple, Sequence

from .bounds import plan_iterations
from .errors import NoSupport
from .gradecast import gradecast_all
from .real_aa import RealAAResult, closest_int, real_aa_machine
from .simnet import _new, memoised
from .trees import LabeledTree, Path
# decode_path and encode_path go unused here; perfbench traces them at this name.
from .wire import _MAX_PATH_VERTICES, _U32, decode_path, encode_path

def root_path_bytes(tree: LabeledTree, v: str) -> bytes:
    """``encode_path(tree.path_from_root(v))``, joined from one slice of each
    heavy chain's record blob."""
    wire = tree.wire_chains
    parts = []
    for c, k in tree.root_slices(v):
        blob, ends = wire[c]
        parts.append(blob[:ends[k]])
    parts.append(_U32.pack(tree.depth(v) + 1))
    parts.reverse()
    return b"".join(parts)


def own_path_bytes(tree: LabeledTree, v: str) -> bytes:
    """``root_path_bytes``, built once per (tree, v) in a run and shared by
    the party sending it and by every decoder checking a path to v."""
    return memoised("own_path", (tree, v), root_path_bytes, tree, v)


def decode_tree_path(tree: LabeledTree, data: bytes) -> Path | None:
    """Decode and validate a wire path: simple, adjacent, starting at the root.

    Anything else, the empty path included, is None; a Byzantine sender's
    malformed bytes count for nothing.  A non-empty simple path of adjacent
    vertices from the root is exactly ``path_from_root`` of its last vertex,
    and the encoding is canonical (exact lengths, strict UTF-8), so the data
    is valid iff it equals ``own_path_bytes`` of that vertex.  The last
    vertex's record ends the data; every record length is tried, as one
    label's bytes may end in another label's record.  ``_path_pair`` is
    memoised per graded view, so a run decodes a sender's bytes once per view.
    """
    if len(data) < 4:
        return None
    (size,) = _U32.unpack_from(data)
    if not 0 < size <= _MAX_PATH_VERTICES:
        return None
    _, labels, lengths = tree.wire_records
    for length in lengths:
        v = labels.get(data[-length:])
        if v is not None and tree.depth(v) == size - 1 and own_path_bytes(tree, v) == data:
            return tree.path_from_root(v)
    return None


def supported_prefix(paths: Sequence[Path], threshold: int) -> Path:
    """Longest path that prefixes at least ``threshold`` of ``paths``.

    Uniqueness at every depth holds because two distinct extensions have
    disjoint supporter sets and the protocol calls this with 2 * threshold
    > n; the deterministic (count, label) tie-break only matters for direct
    calls with weaker thresholds.

    Python work happens only at branch points.  The pooled paths share
    exactly what the smallest shares with the largest (cut to the
    smallest's length, as nothing past it can be shared); while the pool
    holds ``threshold`` paths that run is supported, so it is taken whole.
    Each branch step then drops at least one path from the pool.
    """
    prefix: list[str] = []
    while paths and len(paths) >= threshold:
        lo = min(paths)
        hi = max(path[: len(lo)] for path in paths)
        start = len(prefix)
        # First index past the common run, found by C iterators, not a Python loop.
        mismatches = map(ne, islice(lo, start, None), islice(hi, start, None))
        depth = next(compress(count(start), mismatches), len(hi))
        prefix.extend(lo[start:depth])
        counts: dict[str, int] = {}
        for path in paths:
            if len(path) > depth:
                v = path[depth]
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            break
        best = max(counts, key=lambda v: (counts[v], v))
        if counts[best] < threshold:
            break
        prefix.append(best)
        paths = [p for p in paths if len(p) > depth and p[depth] == best]
    if not prefix:
        raise NoSupport(f"no prefix supported by {threshold} paths")
    return tuple(prefix)


class PathPair(NamedTuple):
    """Output of the prefix finder: own path p, permissive extension q."""

    p: Path
    q: Path


def prefix_path_finder_machine(tree: LabeledTree, n: int, t: int, input_vertex: str):
    """3-round machine returning a PathPair (one gradecast invocation)."""
    graded = yield from gradecast_all(n, t, own_path_bytes(tree, input_vertex))
    # Honest parties mostly share grades: one PathPair per distinct graded view.
    return memoised("path_pair", (tree, n, t, tuple(graded.values())),
                    _path_pair, tree, n, t, graded)


def _path_pair(tree: LabeledTree, n: int, t: int, graded: Mapping) -> PathPair:
    """The longest prefixes n - t senders support at grade 2 (p) and >= 1 (q):
    the one reader of grades.  Only a value of grade >= 1 is decoded, and one
    that decodes to no path supports neither."""
    p_pool: list[Path] = []
    q_pool: list[Path] = []
    for value, grade in graded.values():
        if grade and (path := decode_tree_path(tree, value)) is not None:
            q_pool.append(path)
            if grade == 2:
                p_pool.append(path)
    return _new(PathPair, (supported_prefix(p_pool, n - t), supported_prefix(q_pool, n - t)))


class LegacyPathResult(NamedTuple):
    path: Path
    start_index: int  # the Euler index this party fed into the agreement
    landed_index: int  # the rounded agreement output
    real: RealAAResult


def legacy_rounds(tree: LabeledTree, n: int, t: int) -> int:
    """Exact round count of the legacy finder; Euler indices lie within 2|V|."""
    return 3 * plan_iterations(n, t, 2 * len(tree), 1.0)


def legacy_path_finder_machine(tree: LabeledTree, n: int, t: int, input_vertex: str):
    """Euler-index agreement; returns a LegacyPathResult."""
    euler = tree.euler
    index = euler.index_of[input_vertex][0]  # smallest index of the input vertex
    result = yield from real_aa_machine(n, t, float(index), 2 * len(tree), 1.0)
    landed = closest_int(result.value)
    # Validity keeps the landed index inside the honest index range, hence
    # inside 1..|L|; vertex_at raising would mean a protocol bug.
    endpoint = euler.vertex_at(landed)
    return _new(LegacyPathResult, (tree.path_from_root(endpoint), index, landed, result))

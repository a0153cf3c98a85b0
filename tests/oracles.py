"""Brute-force reference implementations used as test oracles.

Everything here works from a raw adjacency mapping with its own BFS or
exhaustive enumeration, independent of the structures the package builds,
so the two sides can legitimately disagree when the package is wrong.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import deque
from fractions import Fraction

from treeaa.errors import CorruptTranscript, InvalidParams, NoSupport, TreeAAError
from treeaa.simnet import Envelope, Record, Transcript
from treeaa.wire import decode_path


def guaranteed_spread(n: int, t: int, r: int, lo: float, hi: float) -> Fraction:
    """(hi - lo) * t^r / (r (n - 2t))^r, the spread the trimmed mean
    guarantees after r iterations from honest inputs in [lo, hi], exactly:
    the floats are exact rationals, so no slack absorbs rounding."""
    return (Fraction(hi) - Fraction(lo)) * Fraction(t**r, (r * (n - 2 * t)) ** r)


def spread(values) -> Fraction:
    """max(values) - min(values), exactly."""
    return Fraction(max(values)) - Fraction(min(values))


def adjacency(tree) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in tree.vertices}
    for a, b in tree.edges():
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_dists(adj: dict[str, set[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque((source,))
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_path(adj: dict[str, set[str]], u: str, v: str) -> tuple[str, ...]:
    parent: dict[str, str | None] = {u: None}
    queue = deque((u,))
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for w in adj[x]:
            if w not in parent:
                parent[w] = x
                queue.append(w)
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return tuple(reversed(path))


def path_between(tree, u: str, v: str) -> tuple[str, ...]:
    """The unique simple path from u to v in ``tree``, inclusive, found by
    walking parent pointers up from both ends to the vertex where they meet;
    UnknownVertex for a label not in the tree."""
    left, right = [u], [v]
    du, dv = tree.depth(u), tree.depth(v)
    while du > dv:
        u = tree.parent(u)
        left.append(u)
        du -= 1
    while dv > du:
        v = tree.parent(v)
        right.append(v)
        dv -= 1
    while u != v:
        u, v = tree.parent(u), tree.parent(v)
        left.append(u)
        right.append(v)
    right.pop()  # drop the meeting vertex, already at the end of `left`
    return tuple(left + right[::-1])


def brute_hull(adj: dict[str, set[str]], members: set[str]) -> set[str]:
    """Union of all pairwise paths (the definitional characterization)."""
    hull: set[str] = set()
    members = sorted(members)
    for i, u in enumerate(members):
        for v in members[i:]:
            hull.update(bfs_path(adj, u, v))
    return hull


def brute_projection(adj: dict[str, set[str]], path: tuple[str, ...], v: str) -> str:
    dist = bfs_dists(adj, v)
    best = min(path, key=lambda w: (dist[w], path.index(w)))
    ties = [w for w in path if dist[w] == dist[best]]
    assert len(ties) == 1, f"projection not unique: {ties}"
    return best


def brute_diameter(adj: dict[str, set[str]]) -> int:
    return max(max(bfs_dists(adj, v).values()) for v in adj)


def ancestors(parent: dict[str, str | None], v: str) -> list[str]:
    chain = [v]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])  # type: ignore[arg-type]
    return chain


def rooted_parents(adj: dict[str, set[str]], root: str) -> dict[str, str | None]:
    parent: dict[str, str | None] = {root: None}
    queue = deque((root,))
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def brute_lca(parent: dict[str, str | None], u: str, v: str) -> str:
    au = ancestors(parent, u)
    av_set = set(ancestors(parent, v))
    for x in au:
        if x in av_set:
            return x
    raise AssertionError("no common ancestor")


def brute_subtree(parent: dict[str, str | None], v: str) -> set[str]:
    return {u for u in parent if v in ancestors(parent, u)}


def random_edge_list(rng: random.Random, size: int) -> list[tuple[str, str]]:
    """A uniform-ish random labeled tree, with labels shuffled so that the
    lexicographic root is unrelated to the construction order."""
    labels = [f"n{i:03d}" for i in range(size)]
    rng.shuffle(labels)
    return [(labels[rng.randrange(i)], labels[i]) for i in range(1, size)]


def enumerate_max_product(t: int, r: int) -> int:
    """Exhaustive max over all r-tuples of positive ints with sum <= t."""
    if t < r:
        return 0
    best = 0

    def explore(parts_left: int, budget: int, prod: int) -> None:
        nonlocal best
        if parts_left == 0:
            best = max(best, prod)
            return
        for x in range(1, budget - (parts_left - 1) + 1):
            explore(parts_left - 1, budget - x, prod * x)

    explore(r, t, 1)
    return best


def k_bound_exact(n: int, t: int, r: int, d: float) -> float:
    """bounds.k_bound with every power formed exactly."""
    return d * float(Fraction(enumerate_max_product(t, r), (n + t) ** r))


def k_bound_simple_exact(n: int, t: int, r: int, d: float) -> float:
    """bounds.k_bound_simple with every power formed exactly."""
    return d * float(Fraction(t**r, (r * (n + t)) ** r))


def enumerate_supported_prefix(entries, min_grade: int, threshold: int):
    """Longest prefix by direct enumeration of every prefix of every path."""
    qualifying = [p for p, g in entries if p is not None and g >= min_grade]
    best = None
    for path in qualifying:
        for cut in range(1, len(path) + 1):
            prefix = path[:cut]
            support = sum(1 for q in qualifying if q[: len(prefix)] == prefix)
            if support >= threshold and (best is None or len(prefix) > len(best)):
                best = prefix
    return best


def supported_prefix_by_depth(entries, min_grade: int, threshold: int):
    """The original supported_prefix: one (count, label) vote per depth."""
    pool = [path for path, grade in entries if path is not None and grade >= min_grade]
    prefix: list[str] = []
    depth = 0
    while True:
        counts: dict[str, int] = {}
        for path in pool:
            if len(path) > depth:
                v = path[depth]
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            break
        best = max(counts, key=lambda v: (counts[v], v))
        if counts[best] < threshold:
            break
        prefix.append(best)
        pool = [p for p in pool if len(p) > depth and p[depth] == best]
        depth += 1
    if not prefix:
        raise NoSupport(f"no prefix supported by {threshold} entries")
    return tuple(prefix)


def _tally(column) -> dict[bytes, int]:
    counts: dict[bytes, int] = {}
    for value in column:
        if value is not None:
            counts[value] = counts.get(value, 0) + 1
    return counts


def candidates_by_tally(n: int, t: int, echoes) -> list:
    """The original compute_candidates: one dict tally per sender's column."""
    candidates = [None] * n
    for s in range(n):
        counts = _tally(vec[s] for vec in echoes if vec is not None)
        if counts:
            best = max(counts, key=lambda v: (counts[v], v))
            if counts[best] >= n - t:
                candidates[s] = best
    return candidates


def grades_by_tally(n: int, t: int, votes) -> dict[int, tuple]:
    """The original grade_votes: {sender: (value, grade)} from one dict tally per column."""
    outputs = {}
    for s in range(n):
        counts = _tally(vec[s] for vec in votes if vec is not None)
        value, grade = None, 0
        if counts:
            best = max(counts, key=lambda v: (counts[v], v))
            if counts[best] >= n - t:
                value, grade = best, 2
            elif counts[best] >= t + 1:
                value, grade = best, 1
        outputs[s + 1] = (value, grade)
    return outputs


def checked_path_by_decode(tree, data: bytes):
    """The original decode_tree_path check: reference decode, root, is_path.

    The empty path is None too (the original raised IndexError on it).
    """
    path = decode_path(data)
    if not path or path[0] != tree.root or not tree.is_path(path):
        return None
    return path


def is_prefix(p: tuple[str, ...], q: tuple[str, ...]) -> bool:
    """True iff q equals p or extends it (a path is a prefix of itself)."""
    return len(p) <= len(q) and q[: len(p)] == p


class DistinctStart(TreeAAError):
    """Two paths expected to share their first vertex do not."""


def longest_common_prefix(p: tuple[str, ...], q: tuple[str, ...]) -> tuple[str, ...]:
    """Longest path that is a prefix of both p and q.

    Requires a shared first vertex; the result is then non-empty and ends at
    the lowest common ancestor of the two endpoints in the tree rooted at it.
    """
    if not p or not q or p[0] != q[0]:
        raise DistinctStart("paths do not share a first vertex")
    n = min(len(p), len(q))
    i = 1
    while i < n and p[i] == q[i]:
        i += 1
    return p[:i]


def transcript_from_envelopes(n: int, t: int, seed: int, envelopes,
                              rounds_used: int = 0) -> Transcript:
    """The transcript of ``envelopes`` in order; consecutive envelopes of
    one round and sender share a record."""
    records: list[Record] = []
    for r, s, q, p in envelopes:
        if not records or records[-1][:2] != (r, s):
            records.append(Record(r, s, []))
        records[-1].pairs.append((q, p))
    return Transcript(n, t, seed, records, [], rounds_used)


def max_distance_by_pairs(adj: dict[str, set[str]], labels) -> int:
    """The largest BFS distance over all pairs of ``labels`` (0 for fewer than two)."""
    labels = list(labels)
    return max((bfs_dists(adj, u)[v] for i, u in enumerate(labels) for v in labels[i + 1:]),
               default=0)


def to_jsonl_by_json(envelopes) -> str:
    """The original Transcript.to_jsonl: one json.dumps call per envelope."""
    lines = [
        json.dumps(
            {
                "round": env.round,
                "sender": env.sender,
                "receiver": env.receiver,
                "payload_hex": env.payload.hex(),
            },
            separators=(",", ":"),
        )
        for env in envelopes
    ]
    return "\n".join(lines) + ("\n" if lines else "")


_RECORD = re.compile(
    r'\{"round":(0|[1-9][0-9]*),"sender":(0|[1-9][0-9]*),"receiver":(0|[1-9][0-9]*),'
    r'"payload_hex":"([^"]*)"\}\n'
)


def from_jsonl_by_regex(text: str) -> list:
    """The previous Transcript.from_jsonl: one whole-line pattern, every hex decoded.

    Returns the envelopes; raises CorruptTranscript naming the first other line.
    """
    envelopes = []
    end = 0
    for m in _RECORD.finditer(text):
        if m.start() != end:
            break
        try:
            env = Envelope(int(m[1]), int(m[2]), int(m[3]), bytes.fromhex(m[4]))
        except ValueError:
            break
        if env.payload.hex() != m[4]:
            break
        envelopes.append(env)
        end = m.end()
    if end != len(text):
        line = text.count("\n", 0, end) + 1
        bad = text[end:end + 80].partition("\n")[0]
        raise CorruptTranscript(f"line {line} is not a canonical envelope record: {bad!r}")
    return envelopes


def closed_form_iterations(delta: float) -> int:
    """ceil(20/9 * log2(delta) / log2(log2(delta))); defined for delta > 2.

    A cross-check ceiling on ``plan_iterations``; the plan itself comes from
    the exact search, which is total for any d/eps.
    """
    if delta <= 2:
        raise InvalidParams("closed form needs delta > 2")
    lg = math.log2(delta)
    return math.ceil(20.0 / 9.0 * lg / math.log2(lg))

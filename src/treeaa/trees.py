"""Labeled trees and their path algebra.

Vertices are arbitrary UTF-8 text labels ordered bytewise-lexicographically.
A tree is immutable after construction; every derived structure (rooting,
Euler visit list) is computed once and cached, so one tree instance can be
shared by many concurrent simulations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    CycleDetected,
    Disconnected,
    DistinctStart,
    DuplicateEdge,
    EmptyInput,
    EmptySet,
    InvalidPath,
    ParseError,
    UnknownVertex,
)
from .wire import path_entry

Path = tuple[str, ...]

FROM_ROOT_CACHE_LABELS = 1 << 18
"""Most labels ``path_from_root`` keeps cached per tree (2 MB of tuple slots):
131 whole paths of path:2000, more than one run of a few dozen parties asks
for, so a run's paths stay shared objects; past it the cache starts over."""


@dataclass(frozen=True)
class EulerList:
    """DFS visit list of a rooted tree.

    ``entries`` records the vertex of every visit (a vertex reappears each
    time the traversal returns to it).  ``index_of`` maps a label to its
    1-based positions in ``entries``.
    """

    entries: tuple[str, ...]
    index_of: dict[str, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.entries)

    def vertex_at(self, index: int) -> str:
        """Vertex at a 1-based position."""
        if not 1 <= index <= len(self.entries):
            raise IndexError(f"euler index {index} out of range 1..{len(self.entries)}")
        return self.entries[index - 1]


class LabeledTree:
    """An undirected tree over text labels.

    The canonical root is the lexicographically smallest label; it doubles
    as the start vertex of every path-distribution protocol so that all
    parties derive identical structures from the same tree.
    """

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        adj: dict[str, set[str]] = {}
        for v in vertices:
            adj.setdefault(v, set())
        seen: set[frozenset[str]] = set()
        n_edges = 0
        for a, b in edges:
            if a == b:
                raise CycleDetected(f"self-loop at {a!r}")
            key = frozenset((a, b))
            if key in seen:
                raise DuplicateEdge(f"edge {a!r} -- {b!r} listed twice")
            seen.add(key)
            n_edges += 1
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        if not adj:
            raise EmptyInput("no vertices")
        if n_edges > len(adj) - 1:
            raise CycleDetected(f"{n_edges} edges over {len(adj)} vertices")
        self._adj: dict[str, tuple[str, ...]] = {
            v: tuple(sorted(nbrs)) for v, nbrs in adj.items()
        }
        self.vertices: frozenset[str] = frozenset(self._adj)
        self.root: str = min(self._adj)
        self._rooted()
        self._from_root_cache: dict[str, Path] = {}
        self._from_root_labels = 0  # total length of the cached paths

    # -- construction helpers -------------------------------------------------

    def _rooted(self) -> None:
        """BFS from the canonical root: parents, depths, pre-order; a vertex
        it does not reach raises Disconnected."""
        parent: dict[str, str | None] = {self.root: None}
        depth: dict[str, int] = {self.root: 0}
        order = [self.root]
        queue = deque((self.root,))
        while queue:
            v = queue.popleft()
            dv = depth[v]
            for w in self._adj[v]:
                if w not in depth:
                    parent[w] = v
                    depth[w] = dv + 1
                    order.append(w)
                    queue.append(w)
        if len(order) != len(self._adj):
            raise Disconnected(f"{len(self._adj) - len(order)} vertices unreachable")
        self._parent = parent
        self._depth = depth
        self._order = tuple(order)

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, label: str) -> bool:
        return label in self.vertices

    def neighbors(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._adj[v]

    def edges(self) -> Iterator[tuple[str, str]]:
        for v, nbrs in self._adj.items():
            for w in nbrs:
                if v < w:
                    yield (v, w)

    def depth(self, v: str) -> int:
        self._require(v)
        return self._depth[v]

    def parent(self, v: str) -> str | None:
        self._require(v)
        return self._parent[v]

    def _require(self, v: str) -> None:
        if v not in self.vertices:
            raise UnknownVertex(f"{v!r} is not a vertex of this tree")

    # -- paths ----------------------------------------------------------------

    def distance(self, u: str, v: str) -> int:
        """Number of edges on the unique path between u and v."""
        return len(self.path_between(u, v)) - 1

    def path_between(self, u: str, v: str) -> Path:
        """The unique simple path from u to v, inclusive, found by walking
        parent pointers up from both ends to the vertex where they meet."""
        self._require(u)
        self._require(v)
        parent, depth = self._parent, self._depth
        left = [u]
        right = [v]
        du, dv = depth[u], depth[v]
        while du > dv:
            u = parent[u]  # type: ignore[assignment]
            left.append(u)
            du -= 1
        while dv > du:
            v = parent[v]  # type: ignore[assignment]
            right.append(v)
            dv -= 1
        while u != v:
            u = parent[u]  # type: ignore[assignment]
            v = parent[v]  # type: ignore[assignment]
            left.append(u)
            right.append(v)
        right.pop()  # drop the meeting vertex, already at the end of `left`
        left.extend(reversed(right))
        return tuple(left)

    def path_from_root(self, v: str) -> Path:
        """Path from the canonical root to v; memoised up to
        ``FROM_ROOT_CACHE_LABELS`` labels, protocols call it often."""
        cached = self._from_root_cache.get(v)
        if cached is None:
            cached = self.path_between(self.root, v)
            if self._from_root_labels + len(cached) > FROM_ROOT_CACHE_LABELS:
                self._from_root_cache.clear()
                self._from_root_labels = 0
            if len(cached) <= FROM_ROOT_CACHE_LABELS:
                self._from_root_cache[v] = cached
                self._from_root_labels += len(cached)
        return cached

    @cached_property
    def wire_records(self) -> tuple[dict[str, bytes], dict[bytes, str], tuple[int, ...]]:
        """Each label's ``wire.path_entry``, the reverse map, and the distinct
        entry lengths; built on first use, so trees never sent as paths do
        not pay for it."""
        records = {v: path_entry(v) for v in self._order}
        lengths = tuple(sorted({len(r) for r in records.values()}))
        return records, {r: v for v, r in records.items()}, lengths

    def is_path(self, seq: tuple[str, ...]) -> bool:
        """True iff seq is a non-empty simple path of adjacent vertices."""
        if not seq or len(set(seq)) != len(seq):
            return False
        if seq[0] not in self.vertices:
            return False
        adj = self._adj
        for a, b in zip(seq, seq[1:]):
            if b not in self.vertices or b not in adj[a]:
                return False
        return True

    def validate_path(self, seq: tuple[str, ...]) -> None:
        for v in seq:
            self._require(v)
        if not self.is_path(seq):
            raise InvalidPath(f"{seq!r} is not a simple path of this tree")

    # -- convexity ------------------------------------------------------------

    def convex_hull(self, members: Iterable[str]) -> set[str]:
        """Vertex set of the smallest connected subtree containing ``members``.

        A vertex belongs to the hull iff it is a member or separates two
        members (equivalently: lies on the path between some member pair).
        """
        mset = set(members)
        if not mset:
            raise EmptySet("convex hull of an empty set")
        for v in mset:
            self._require(v)
        if len(mset) == 1:
            return mset
        parent = self._parent
        total = len(mset)
        count: dict[str, int] = {}
        # Subtree member counts, children before parents (reverse pre-order).
        for v in reversed(self._order):
            c = count.get(v, 0) + (1 if v in mset else 0)
            count[v] = c
            p = parent[v]
            if p is not None:
                count[p] = count.get(p, 0) + c
        hull = set()
        for v in self._order:
            if v in mset:
                hull.add(v)
                continue
            below = count.get(v, 0)
            sides = 1 if total > below else 0
            for w in self._adj[v]:
                if parent[w] == v and count.get(w, 0) > 0:
                    sides += 1
                    if sides >= 2:
                        hull.add(v)
                        break
        return hull

    def project_onto_path(self, path: tuple[str, ...], v: str) -> str:
        """The unique vertex of ``path`` at minimum distance from v."""
        self.validate_path(path)
        self._require(v)
        if v in path:
            return v
        best = None
        best_d = None
        for w in path:
            d = self.distance(v, w)
            if best_d is None or d < best_d:
                best, best_d = w, d
        return best  # type: ignore[return-value]

    # -- Euler list -----------------------------------------------------------

    @cached_property
    def euler(self) -> EulerList:
        """Visit list rooted at the canonical root."""
        return self.euler_list(self.root)

    def euler_list(self, root: str) -> EulerList:
        """DFS visit list from ``root``, neighbors explored in label order.

        Purely a function of (tree, root): every party computes the same list.
        Iterative so that path-shaped trees do not hit the recursion limit.
        """
        self._require(root)
        adj = self._adj
        visited = {root}
        entries = [root]
        stack: list[tuple[str, Iterator[str]]] = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            pushed = False
            for w in it:
                if w not in visited:
                    visited.add(w)
                    entries.append(w)
                    stack.append((w, iter(adj[w])))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                if stack:
                    entries.append(stack[-1][0])
        index_of: dict[str, list[int]] = {}
        for i, v in enumerate(entries, start=1):
            index_of.setdefault(v, []).append(i)
        return EulerList(tuple(entries), {v: tuple(ix) for v, ix in index_of.items()})

    # -- global measures --------------------------------------------------------

    @cached_property
    def diameter(self) -> int:
        """Length (edge count) of the longest path in the tree."""
        return self.distance(*self.diameter_endpoints)

    @cached_property
    def diameter_endpoints(self) -> tuple[str, str]:
        """Endpoints of one longest path, found by double BFS."""
        a = self._farthest_from(self.root)
        b = self._farthest_from(a)
        return (a, b) if a <= b else (b, a)

    @cached_property
    def deepest(self) -> str:
        """A vertex of maximum depth; the largest label among ties."""
        depth = self._depth
        return max(self._order, key=lambda v: (depth[v], v))

    def _farthest_from(self, s: str) -> str:
        dist = {s: 0}
        queue = deque((s,))
        far, far_d = s, 0
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w in self._adj[v]:
                if w not in dist:
                    dist[w] = dv + 1
                    if dv + 1 > far_d or (dv + 1 == far_d and w < far):
                        far, far_d = w, dv + 1
                    queue.append(w)
        return far


# -- path predicates ------------------------------------------------------------


def is_prefix(p: tuple[str, ...], q: tuple[str, ...]) -> bool:
    """True iff q equals p or extends it (a path is a prefix of itself)."""
    return len(p) <= len(q) and q[: len(p)] == p


def longest_common_prefix(p: tuple[str, ...], q: tuple[str, ...]) -> Path:
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


# -- parsing ----------------------------------------------------------------------


def parse_tree(text: str) -> LabeledTree:
    """Build a tree from an edge-list document.

    One edge per line as two whitespace-separated labels; ``#`` starts a
    comment; blank lines are skipped.  A single-label line is allowed only
    when it is the entire document (a one-vertex tree).
    """
    edges: list[tuple[str, str]] = []
    singles: list[str] = []
    n_lines = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        n_lines += 1
        tokens = line.split()
        if len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
        elif len(tokens) == 1:
            singles.append(tokens[0])
        else:
            raise ParseError(f"expected 1 or 2 labels per line, got {len(tokens)}: {raw!r}")
    if n_lines == 0:
        raise EmptyInput("document has no edges or vertices")
    if singles:
        if edges or len(singles) > 1:
            raise ParseError("single-label line allowed only as the whole document")
        return LabeledTree((), vertices=singles)
    return LabeledTree(edges)

"""Labeled trees and their path algebra.

Vertices are arbitrary UTF-8 text labels ordered bytewise-lexicographically.
A tree is immutable after construction; every derived structure is
computed once and cached, so one tree instance can be shared by many
concurrent simulations:

* the rooting (parents, depths, BFS order), built with the tree;
* on first use: the heavy-path chains, each vertex's wire record and one
  record blob per chain, the Euler visit list and the diameter.

One BFS routine (``_bfs``) serves both the rooting and the diameter's
second sweep, from a deepest vertex of the rooting.

A root path crosses at most floor(log2 |V|) + 1 heavy chains, so it is
joined from that many tuple (or bytes) slices with no per-label walk, and
the LCA of two vertices is found in as many chain hops per vertex.  The
distance and the projection onto any path (the median of the vertex and
the path's ends) take O(log |V|) through the LCA, and hull membership
O(log |V|) per member, with no further table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptyInput,
    EmptySet,
    InvalidPath,
    ParseError,
    UnknownVertex,
)
from .wire import path_entry

Path = tuple[str, ...]


@dataclass(frozen=True)
class EulerList:
    """DFS visit list of a rooted tree.

    ``entries`` records the vertex of every visit (a vertex reappears each
    time the traversal returns to it).  ``index_of`` maps a label to its
    1-based positions in ``entries``.
    """

    entries: tuple[str, ...]
    index_of: dict[str, tuple[int, ...]]

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
        n_edges = 0
        for a, b in edges:
            if a == b:
                raise CycleDetected(f"self-loop at {a!r}")
            if b in adj.get(a, ()):
                raise DuplicateEdge(f"edge {a!r} -- {b!r} listed twice")
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
        order, self._parent, self._depth = self._bfs(self.root)
        if len(order) != len(self._adj):
            raise Disconnected(f"{len(self._adj) - len(order)} vertices unreachable")
        self._order = tuple(order)

    # -- construction helpers -------------------------------------------------

    def _bfs(self, source: str) -> tuple[list[str], dict[str, str | None], dict[str, int]]:
        """Breadth-first order from ``source``, neighbors in label order, with
        each reached vertex's parent and depth; the growing order is the queue."""
        parent: dict[str, str | None] = {source: None}
        depth = {source: 0}
        order = [source]
        for v in order:
            dw = depth[v] + 1
            for w in self._adj[v]:
                if w not in depth:
                    parent[w] = v
                    depth[w] = dw
                    order.append(w)
        return order, parent, depth

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

    @cached_property
    def heavy_chains(self) -> tuple[tuple[Path, ...], dict[str, tuple[int, int]],
                                    tuple[str | None, ...]]:
        """Heavy-path decomposition: the chains, each listed top down; each
        vertex's (chain index, 1-based position); each chain top's parent.

        A vertex continues its parent's chain when its subtree is the
        largest among its siblings (the smallest label among equals).  A
        vertex starting a new chain has at most half its parent's subtree,
        so a root path crosses at most floor(log2 |V|) + 1 chains.
        """
        parent = self._parent
        size = dict.fromkeys(self._order, 1)
        heavy: dict[str, str] = {}
        for v in reversed(self._order[1:]):  # children before parents
            p = parent[v]
            size[p] += size[v]  # type: ignore[index]
            if size[v] >= size[heavy.get(p, v)]:  # type: ignore[arg-type]
                heavy[p] = v  # type: ignore[index]
        chains: list[Path] = []
        at: dict[str, tuple[int, int]] = {}
        for v in self._order:
            if v not in at:
                run = [v]
                while run[-1] in heavy:
                    run.append(heavy[run[-1]])
                for k, w in enumerate(run, start=1):
                    at[w] = (len(chains), k)
                chains.append(tuple(run))
        return tuple(chains), at, tuple(parent[run[0]] for run in chains)

    def root_slices(self, v: str) -> Iterator[tuple[int, int]]:
        """The root path of v as (chain index, k) pairs, from v up: the path
        is the concatenation, root first, of each chain's first k vertices."""
        _, at, up = self.heavy_chains
        if v not in at:
            self._require(v)
        while v is not None:
            c, k = at[v]
            yield c, k
            v = up[c]  # type: ignore[assignment]

    def path_from_root(self, v: str) -> Path:
        """Path from the canonical root to v, one tuple slice per heavy chain."""
        chains = self.heavy_chains[0]
        path: Path = ()
        for c, k in self.root_slices(v):
            path = chains[c][:k] + path
        return path

    def lca(self, u: str, v: str) -> str:
        """Nearest common ancestor of u and v in the rooting, in at most
        2 * (floor(log2 |V|) + 1) heavy-chain hops: while u and v lie on
        different chains, the one whose chain top is deeper moves to that
        top's parent; on one chain, the one nearer its top is the answer.
        With the root as either argument (every path the machines project
        onto starts there) the answer is the root, with no hop."""
        chains, at, up = self.heavy_chains
        if u not in at:
            self._require(u)
        if v not in at:
            self._require(v)
        if u == self.root or v == self.root:
            return self.root
        depth = self._depth
        cu, ku = at[u]
        cv, kv = at[v]
        while cu != cv:
            if depth[chains[cu][0]] >= depth[chains[cv][0]]:
                u = up[cu]  # type: ignore[assignment]
                cu, ku = at[u]
            else:
                v = up[cv]  # type: ignore[assignment]
                cv, kv = at[v]
        return u if ku <= kv else v

    def distance(self, u: str, v: str) -> int:
        """Number of edges on the unique path between u and v, through their LCA."""
        top = self.lca(u, v)  # UnknownVertex before any depth lookup
        depth = self._depth
        return depth[u] + depth[v] - 2 * depth[top]

    @cached_property
    def wire_records(self) -> tuple[dict[str, bytes], dict[bytes, str], tuple[int, ...]]:
        """Each label's ``wire.path_entry``, the reverse map, and the distinct
        entry lengths; built on first use, so trees never sent as paths do
        not pay for it."""
        records = {v: path_entry(v) for v in self._order}
        lengths = tuple(sorted({len(r) for r in records.values()}))
        return records, {r: v for v, r in records.items()}, lengths

    @cached_property
    def wire_chains(self) -> tuple[tuple[bytes, tuple[int, ...]], ...]:
        """Per chain: its vertices' wire records joined into one blob, and
        the blob length after each of its first k records (index k)."""
        records = self.wire_records[0]
        out = []
        for run in self.heavy_chains[0]:
            parts = [records[v] for v in run]
            out.append((b"".join(parts), tuple(accumulate(map(len, parts), initial=0))))
        return tuple(out)

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

    def _hull_top(self, members: Iterable[str]) -> tuple[dict[str, None], str]:
        """The distinct members, in order, and their LCA: the top of their
        hull, which is the union of the paths from each member up to it."""
        distinct = dict.fromkeys(members)
        if not distinct:
            raise EmptySet("convex hull of an empty set")
        for v in distinct:
            self._require(v)
        return distinct, reduce(self.lca, distinct)

    def convex_hull(self, members: Iterable[str]) -> set[str]:
        """Vertex set of the smallest connected subtree containing ``members``.

        Each member climbs its parent pointers until it meets the top or a
        vertex already taken: O(|hull|) Python steps, plus the chain hops
        of the members' LCA.
        """
        members, top = self._hull_top(members)
        parent = self._parent
        hull = {top}
        for v in members:
            while v not in hull:
                hull.add(v)
                v = parent[v]  # type: ignore[assignment]
        return hull

    def hull_contains(self, members: Iterable[str], labels: Iterable[str]) -> bool:
        """True iff every label lies in ``convex_hull(members)``, without
        building the hull: a label is in it iff the members' LCA is its
        ancestor and it is an ancestor of some member.  Each distinct label
        costs O(|members| log |V|) chain hops.
        """
        members, top = self._hull_top(members)
        lca = self.lca
        return all(lca(label, top) == top
                   and (label in members or any(lca(label, m) == label for m in members))
                   for label in dict.fromkeys(labels))

    def median(self, u: str, v: str, w: str) -> str:
        """The one vertex on all three paths between u, v and w.  Of their
        pairwise LCAs two coincide, at or above the third, which is the median."""
        x, y = self.lca(u, w), self.lca(v, w)
        if x == y:
            return self.lca(u, v)
        return x if self._depth[x] > self._depth[y] else y

    def project_onto_path(self, path: tuple[str, ...], v: str) -> str:
        """The unique vertex of ``path`` at minimum distance from v: the
        median of v and the path's two ends."""
        self.validate_path(path)
        return self.median(path[0], path[-1], v)

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
        entries = [root]
        stack: list[tuple[str, str | None, Iterator[str]]] = [(root, None, iter(adj[root]))]
        while stack:
            v, up, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if stack:
                    entries.append(stack[-1][0])
            elif w != up:  # the parent is the one neighbor already visited
                entries.append(w)
                stack.append((w, v, iter(adj[w])))
        index_of: dict[str, list[int]] = {}
        for i, v in enumerate(entries, start=1):
            index_of.setdefault(v, []).append(i)
        return EulerList(tuple(entries), {v: tuple(ix) for v, ix in index_of.items()})

    # -- global measures --------------------------------------------------------

    @cached_property
    def diameter(self) -> int:
        """Length (edge count) of the longest path in the tree."""
        return self._longest_path[1]

    @cached_property
    def diameter_endpoints(self) -> tuple[str, str]:
        """Endpoints of one longest path, in label order."""
        return self._longest_path[0]

    @cached_property
    def _longest_path(self) -> tuple[tuple[str, str], int]:
        """Double BFS whose first pass is the rooting's: a deepest vertex a,
        then the vertex b farthest from a; the smallest label wins ties."""
        depth = self._depth
        a = min(self._order, key=lambda v: (-depth[v], v))
        dist = self._bfs(a)[2]
        b = min(dist, key=lambda v: (-dist[v], v))
        return ((a, b) if a <= b else (b, a)), dist[b]

    @cached_property
    def deepest(self) -> str:
        """A vertex of maximum depth; the largest label among ties."""
        depth = self._depth
        return max(self._order, key=lambda v: (depth[v], v))


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

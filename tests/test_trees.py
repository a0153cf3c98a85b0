import random

import pytest
from hypothesis import given, settings, strategies as st

from treeaa import LabeledTree, parse_tree
from treeaa.errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptyInput,
    EmptySet,
    InvalidParams,
    InvalidPath,
    ParseError,
    UnknownVertex,
)
from treeaa.tree_aa import _projection_index

import oracles
from conftest import EIGHT_VERTEX_EULER
from oracles import DistinctStart, is_prefix, longest_common_prefix, path_between


def random_tree(seed, max_size=12, min_size=1):
    rng = random.Random(f"trees:{seed}")
    size = rng.randint(min_size, max_size)
    edges = oracles.random_edge_list(rng, size)
    if not edges:
        return LabeledTree((), vertices=["n000"]), rng
    return LabeledTree(edges), rng


class TestParse:
    def test_eight_vertex_document(self, eight_vertex_tree):
        assert len(eight_vertex_tree) == 8
        assert eight_vertex_tree.vertices == {f"v{i}" for i in range(1, 9)}
        assert eight_vertex_tree.neighbors("v2") == ("v1", "v3", "v4", "v5")

    def test_single_vertex(self):
        tree = parse_tree("v1\n")
        assert tree.vertices == {"v1"}
        assert tree.diameter == 0

    def test_comments_and_blanks(self):
        tree = parse_tree("# a comment\n\na b  # trailing\n\nb c\n")
        assert tree.vertices == {"a", "b", "c"}

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_tree("a b\nb a\n")

    def test_self_loop_is_cycle(self):
        with pytest.raises(CycleDetected):
            parse_tree("a a\n")

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            parse_tree("a b\nb c\nc a\n")

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            parse_tree("a b\nc d\n")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_tree("# nothing here\n\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_tree("a b c\n")

    def test_single_label_must_be_whole_document(self):
        with pytest.raises(ParseError):
            parse_tree("a b\nc\n")


class TestPaths:
    def test_example_path(self, eight_vertex_tree):
        assert path_between(eight_vertex_tree, "v6", "v8") == ("v6", "v3", "v2", "v4", "v8")

    def test_identity(self, eight_vertex_tree):
        assert path_between(eight_vertex_tree, "v5", "v5") == ("v5",)

    def test_adjacent(self, eight_vertex_tree):
        assert path_between(eight_vertex_tree, "v1", "v2") == ("v1", "v2")

    def test_unknown_vertex(self, eight_vertex_tree):
        with pytest.raises(UnknownVertex):
            path_between(eight_vertex_tree, "v1", "nope")

    def test_matches_bfs_oracle(self):
        for seed in range(60):
            tree, _ = random_tree(seed)
            adj = oracles.adjacency(tree)
            labels = sorted(tree.vertices)
            rng = random.Random(f"pick:{seed}")
            for _ in range(10):
                u, v = rng.choice(labels), rng.choice(labels)
                path = path_between(tree, u, v)
                assert path == oracles.bfs_path(adj, u, v)
                assert len(path) - 1 == tree.distance(u, v)
                assert tree.distance(u, v) == oracles.bfs_dists(adj, u)[v]

    def test_every_inner_vertex_in_pair_hull(self):
        for seed in range(30):
            tree, rng = random_tree(seed, min_size=2)
            labels = sorted(tree.vertices)
            u, v = rng.choice(labels), rng.choice(labels)
            hull = tree.convex_hull({u, v})
            for w in path_between(tree, u, v):
                assert w in hull


class TestHull:
    def test_example(self, hull_example_tree):
        assert hull_example_tree.convex_hull({"u1", "u2", "u3"}) == {
            "u1", "u2", "u3", "u4", "u5",
        }

    def test_singleton(self, eight_vertex_tree):
        assert eight_vertex_tree.convex_hull({"v7"}) == {"v7"}

    def test_empty_set(self, eight_vertex_tree):
        with pytest.raises(EmptySet):
            eight_vertex_tree.convex_hull(set())

    def test_unknown_member(self, eight_vertex_tree):
        with pytest.raises(UnknownVertex):
            eight_vertex_tree.convex_hull({"v1", "zz"})

    def test_matches_pairwise_oracle(self):
        for seed in range(80):
            tree, rng = random_tree(seed)
            adj = oracles.adjacency(tree)
            labels = sorted(tree.vertices)
            members = set(rng.sample(labels, rng.randint(1, len(labels))))
            assert tree.convex_hull(members) == oracles.brute_hull(adj, members)

    def test_members_on_one_root_path(self):
        # Every member lies on one root path, in either order: the hull is
        # the root path's run between the end members.
        tree = LabeledTree(oracles.random_edge_list(random.Random("one-root-path"), 40))
        deep = max(tree.vertices, key=lambda v: (tree.depth(v), v))
        path = tree.path_from_root(deep)
        assert len(path) >= 4
        members = [deep, path[len(path) // 2], path[1]]
        assert tree.convex_hull(members) == set(path[1:])
        assert tree.convex_hull(reversed(members)) == set(path[1:])

    def test_hull_whose_top_is_the_root(self, eight_vertex_tree):
        # "a" joins two branches without being a member; v1 is a member.
        tree = LabeledTree([("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")])
        assert tree.root == "a"
        assert tree.convex_hull(["d", "e"]) == {"a", "b", "c", "d", "e"}
        assert tree.convex_hull(["e", "b"]) == {"a", "b", "c", "e"}
        assert eight_vertex_tree.root == "v1"
        for members in (["v6", "v1"], ["v1", "v6"]):
            assert eight_vertex_tree.convex_hull(members) == {"v1", "v2", "v3", "v6"}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.data())
def test_hull_matches_brute_oracle_on_random_trees(seed, size, data):
    rng = random.Random(seed)
    edges = oracles.random_edge_list(rng, size)
    tree = LabeledTree(edges) if edges else LabeledTree((), vertices=["n000"])
    labels = sorted(tree.vertices)
    members = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
    assert tree.convex_hull(members) == oracles.brute_hull(oracles.adjacency(tree), set(members))


@st.composite
def edge_list_trees(draw, max_size=60):
    """A tree over ``oracles.random_edge_list`` with 1..max_size vertices."""
    size = draw(st.integers(1, max_size))
    edges = oracles.random_edge_list(random.Random(draw(st.integers(0, 2**32))), size)
    return LabeledTree(edges) if edges else LabeledTree((), vertices=["n000"])


@settings(max_examples=200, deadline=None)
@given(edge_list_trees(), st.data())
def test_lca_and_distance_match_brute_oracles(tree, data):
    adj = oracles.adjacency(tree)
    parent = oracles.rooted_parents(adj, tree.root)
    labels = sorted(tree.vertices)
    picked = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=10))
    for u in picked:
        dist = oracles.bfs_dists(adj, u)
        for v in picked:
            assert tree.lca(u, v) == oracles.brute_lca(parent, u, v)
            assert tree.distance(u, v) == dist[v]
    for call in (tree.lca, tree.distance):
        with pytest.raises(UnknownVertex):
            call(picked[0], "zz")
        with pytest.raises(UnknownVertex):
            call("zz", picked[0])


@settings(max_examples=100, deadline=None)
@given(edge_list_trees())
def test_the_root_is_its_own_lca_with_every_vertex(tree):
    root = tree.root
    for v in tree.vertices:
        assert tree.lca(root, v) == tree.lca(v, root) == root
        assert tree.distance(root, v) == tree.distance(v, root) == tree.depth(v)
    with pytest.raises(UnknownVertex):
        tree.lca(root, "zz")
    with pytest.raises(UnknownVertex):
        tree.lca("zz", root)


@settings(max_examples=200, deadline=None)
@given(edge_list_trees(), st.data())
def test_hull_membership_matches_brute_hull(tree, data):
    labels = sorted(tree.vertices)
    # Repeated members are drawn on purpose; the query dedupes them.
    members = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
    hull = oracles.brute_hull(oracles.adjacency(tree), set(members))
    for label in labels:  # every vertex, so labels inside and outside the hull
        assert tree.hull_contains(members, [label]) == (label in hull)
    outside = sorted(tree.vertices - hull)
    probes = data.draw(st.lists(st.sampled_from(sorted(hull)), min_size=1, max_size=6))
    assert tree.hull_contains(members, probes + probes)
    if outside:
        stray = data.draw(st.sampled_from(outside))
        assert not tree.hull_contains(members, [*probes, stray, *probes])
    assert tree.hull_contains(members, [])
    with pytest.raises(EmptySet):
        tree.hull_contains([], labels)
    with pytest.raises(UnknownVertex):
        tree.hull_contains([*members, "zz"], labels)
    with pytest.raises(UnknownVertex):
        tree.hull_contains(members, ["zz"])


@settings(max_examples=200, deadline=None)
@given(edge_list_trees(), st.data())
def test_projection_index_matches_brute_projection(tree, data):
    adj = oracles.adjacency(tree)
    labels = sorted(tree.vertices)
    root_path = oracles.bfs_path(adj, tree.root, data.draw(st.sampled_from(labels)))
    prefix = root_path[:data.draw(st.integers(1, len(root_path)))]
    u, w = data.draw(st.sampled_from(labels)), data.draw(st.sampled_from(labels))
    for path in (prefix, oracles.bfs_path(adj, u, w)):
        for v in labels:
            expected = path.index(oracles.brute_projection(adj, path, v)) + 1
            assert _projection_index(tree, path, v) == expected


@settings(max_examples=200, deadline=None)
@given(edge_list_trees(), st.data())
def test_median_is_the_one_vertex_on_all_three_paths(tree, data):
    adj = oracles.adjacency(tree)
    labels = sorted(tree.vertices)
    u, v, w = (data.draw(st.sampled_from(labels)) for _ in range(3))
    paths = [set(oracles.bfs_path(adj, a, b)) for a, b in ((u, v), (u, w), (v, w))]
    assert set.intersection(*paths) == {tree.median(u, v, w)}
    with pytest.raises(UnknownVertex):
        tree.median(u, v, "zz")


class TestProjection:
    def test_spine_example(self, spine_tree):
        spine = tuple(f"v{i}" for i in range(1, 9))
        assert spine_tree.project_onto_path(spine, "u1") == "v3"
        assert spine_tree.project_onto_path(spine, "u2") == "v4"
        assert spine_tree.project_onto_path(spine, "u3") == "v6"

    def test_vertex_on_path_projects_to_itself(self, spine_tree):
        spine = tuple(f"v{i}" for i in range(1, 9))
        assert spine_tree.project_onto_path(spine, "v5") == "v5"

    def test_invalid_path(self, eight_vertex_tree):
        with pytest.raises(InvalidPath):
            eight_vertex_tree.project_onto_path(("v1", "v3"), "v5")
        with pytest.raises(UnknownVertex):
            eight_vertex_tree.project_onto_path(("v1", "zz"), "v5")

    def test_matches_distance_scan(self):
        for seed in range(60):
            tree, rng = random_tree(seed, min_size=2)
            adj = oracles.adjacency(tree)
            labels = sorted(tree.vertices)
            u, v = rng.choice(labels), rng.choice(labels)
            path = path_between(tree, u, v)
            w = rng.choice(labels)
            assert tree.project_onto_path(path, w) == oracles.brute_projection(adj, path, w)

    def test_projection_stays_in_hull(self):
        # A projection of a member onto a hull-intersecting path lands in
        # both the path and the hull.
        for seed in range(60):
            tree, rng = random_tree(seed, min_size=2)
            labels = sorted(tree.vertices)
            members = set(rng.sample(labels, rng.randint(1, len(labels))))
            hull = tree.convex_hull(members)
            u, v = rng.choice(labels), rng.choice(labels)
            path = path_between(tree, u, v)
            if not (set(path) & hull):
                continue
            for m in members:
                proj = tree.project_onto_path(path, m)
                assert proj in hull and proj in path


class TestDiameter:
    def test_example(self, eight_vertex_tree):
        assert eight_vertex_tree.diameter == 4

    def test_single_vertex(self):
        assert parse_tree("x\n").diameter == 0

    def test_path_graph(self):
        k = 17
        edges = [(f"p{i:02d}", f"p{i + 1:02d}") for i in range(k)]
        assert LabeledTree(edges).diameter == k

    def test_matches_double_bfs_oracle(self):
        for seed in range(60):
            tree, _ = random_tree(seed)
            assert tree.diameter == oracles.brute_diameter(oracles.adjacency(tree))


class TestEulerList:
    def test_exact_example(self, eight_vertex_tree):
        euler = eight_vertex_tree.euler_list("v1")
        assert euler.entries == EIGHT_VERTEX_EULER
        assert euler.index_of["v3"] == (3, 5, 7)
        assert euler.index_of["v6"] == (4,)
        assert euler.index_of["v5"] == (13,)

    def test_single_vertex(self):
        euler = parse_tree("solo\n").euler_list("solo")
        assert euler.entries == ("solo",)

    def test_two_vertices(self):
        euler = parse_tree("a b\n").euler_list("a")
        assert euler.entries == ("a", "b", "a")

    def test_unknown_root(self, eight_vertex_tree):
        with pytest.raises(UnknownVertex):
            eight_vertex_tree.euler_list("zz")

    def test_list_properties_small(self):
        # The 500-tree, 60-vertex version runs in the acceptance suite;
        # this keeps a fast regression net on every run.
        check_euler_properties(range(40), max_size=24)


def check_euler_properties(seeds, max_size):
    """The four visit-list properties against brute-force oracles."""
    for seed in seeds:
        tree, _ = random_tree(seed, max_size=max_size)
        adj = oracles.adjacency(tree)
        root = tree.root
        parent = oracles.rooted_parents(adj, root)
        euler = tree.euler_list(root)
        entries = euler.entries
        # 1: consecutive entries adjacent (when more than one vertex).
        if len(tree) > 1:
            for a, b in zip(entries, entries[1:]):
                assert b in adj[a]
        # 2: bounded length, every vertex present.
        assert len(entries) <= 2 * len(tree)
        assert set(entries) == tree.vertices
        for v in tree.vertices:
            assert euler.index_of[v]
        # 3: subtree membership == index containment.
        for v in sorted(tree.vertices):
            lo, hi = euler.index_of[v][0], euler.index_of[v][-1]
            subtree = oracles.brute_subtree(parent, v)
            for u in sorted(tree.vertices):
                inside = all(lo <= i <= hi for i in euler.index_of[u])
                assert inside == (u in subtree)
        # 4: the LCA appears between any pair of occurrence indices.
        for v in sorted(tree.vertices):
            for u in sorted(tree.vertices):
                lca = oracles.brute_lca(parent, v, u)
                positions = euler.index_of[lca]
                for i in euler.index_of[v]:
                    for j in euler.index_of[u]:
                        lo, hi = min(i, j), max(i, j)
                        assert any(lo <= k <= hi for k in positions)


class TestPrefixes:
    def test_path_is_prefix_of_itself(self):
        assert is_prefix(("v1", "v2"), ("v1", "v2"))

    def test_extension(self):
        assert is_prefix(("v1", "v2"), ("v1", "v2", "v3"))
        assert not is_prefix(("v2", "v3"), ("v1", "v2", "v3"))

    def test_lcp_example(self, eight_vertex_tree):
        p = path_between(eight_vertex_tree, "v1", "v6")
        q = path_between(eight_vertex_tree, "v1", "v8")
        assert longest_common_prefix(p, q) == ("v1", "v2")

    def test_lcp_of_path_with_itself(self, eight_vertex_tree):
        p = path_between(eight_vertex_tree, "v1", "v7")
        assert longest_common_prefix(p, p) == p

    def test_lcp_immediate_divergence(self, eight_vertex_tree):
        p = ("v2", "v1")
        q = ("v2", "v3")
        assert longest_common_prefix(p, q) == ("v2",)

    def test_lcp_distinct_start(self):
        with pytest.raises(DistinctStart):
            longest_common_prefix(("a", "b"), ("b", "a"))

    def test_lcp_ends_in_hull_of_endpoints(self):
        for seed in range(60):
            tree, rng = random_tree(seed, min_size=2)
            labels = sorted(tree.vertices)
            a, b = rng.choice(labels), rng.choice(labels)
            p = path_between(tree, tree.root, a)
            q = path_between(tree, tree.root, b)
            lcp = longest_common_prefix(p, q)
            assert lcp
            assert lcp[-1] in tree.convex_hull({a, b})


class TestWireTables:
    def test_deepest_is_the_largest_label_at_maximum_depth(self):
        for seed in range(40):
            tree, _ = random_tree(seed)
            parent = oracles.rooted_parents(oracles.adjacency(tree), tree.root)
            depth = {v: len(oracles.ancestors(parent, v)) - 1 for v in tree.vertices}
            assert tree.deepest == max(tree.vertices, key=lambda v: (depth[v], v))

    def test_records_round_trip(self):
        tree = LabeledTree([("a", "\x00"), ("a", "\u00e9\u4e2d")])
        records, labels, lengths = tree.wire_records
        assert records["\u00e9\u4e2d"] == b"\x00\x05\xc3\xa9\xe4\xb8\xad"
        assert {labels[r]: r for r in records.values()} == records
        assert lengths == (3, 7)

    def test_label_too_long_for_a_path_entry(self):
        tree = LabeledTree([("a", "b"), ("b", "x" * 70_000)])  # building is fine
        with pytest.raises(InvalidParams, match="70000 UTF-8 bytes.*65535"):
            tree.wire_records
        assert LabeledTree([("a", "x" * 65_535)]).wire_records[2] == (3, 65_537)

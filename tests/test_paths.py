import random
import sys
from itertools import chain

import pytest

from hypothesis import given, settings, strategies as st

from treeaa import generate_tree, supported_prefix
from treeaa.adversaries import REGISTRY, AdversaryContext
from treeaa.errors import NoSupport, UnknownVertex
from treeaa.gradecast import grade_votes, received_vectors
from treeaa.harness import run_one
from treeaa.paths import (
    PathPair,
    _path_pair,
    decode_tree_path,
    root_path_bytes,
    legacy_path_finder_machine,
    legacy_rounds,
    prefix_path_finder_machine,
)
from treeaa.simnet import replay_transcript, run_simulation
from treeaa.tree_aa import run_final_tree_aa
from treeaa.trees import LabeledTree
from treeaa.wire import TAG_VOTE, encode_path

import oracles
from byzhelpers import InstanceScript
from oracles import is_prefix, longest_common_prefix, path_between


def run_finder(machine, tree, n, t, inputs, adversary=None, seed=0):
    """({honest pid: finder output}, transcript) of one finder invocation."""
    return run_simulation(n, t, [machine(tree, n, t, inputs[pid]) for pid in range(1, n + 1)],
                          adversary, seed)


class TestSupportedPrefix:
    def test_unanimous(self):
        entries = [(("a", "b"), 2)] * 4
        assert supported_prefix(entries, 2, 3) == ("a", "b")

    def test_majority_prefix(self):
        entries = [
            (("a", "b", "c"), 2),
            (("a", "b", "c"), 2),
            (("a", "b", "d"), 2),
            (("a",), 2),
        ]
        assert supported_prefix(entries, 2, 3) == ("a", "b")

    def test_invalid_entries_count_for_nothing(self):
        entries = [(("a", "b"), 2)] * 3 + [(None, 0)]
        assert supported_prefix(entries, 2, 3) == ("a", "b")

    def test_min_grade_filter(self):
        entries = [(("a", "b"), 2), (("a", "b"), 2), (("a", "b"), 1), (("a",), 2)]
        assert supported_prefix(entries, 2, 3) == ("a",)
        assert supported_prefix(entries, 1, 3) == ("a", "b")

    def test_weak_threshold_tie_goes_to_larger_label(self):
        entries = [(("a", "b"), 2), (("a", "c"), 2), (("a", "c"), 2), (("a", "b"), 2)]
        assert supported_prefix(entries, 2, 2) == ("a", "c")
        assert oracles.supported_prefix_by_depth(entries, 2, 2) == ("a", "c")

    def test_no_support(self):
        entries = [(("a", "b"), 2), (("b", "a"), 2), (None, 0)]
        with pytest.raises(NoSupport):
            supported_prefix(entries, 2, 3)

    def test_matches_enumeration_oracle(self):
        rng = random.Random("prefix")
        labels = ["r", "x", "y", "z", "w"]
        for _ in range(300):
            entries = []
            for _ in range(rng.randint(1, 7)):
                if rng.random() < 0.15:
                    entries.append((None, rng.randint(0, 2)))
                else:
                    depth = rng.randint(1, 4)
                    path = ("r", *rng.sample(labels[1:], depth - 1))
                    entries.append((path, rng.randint(0, 2)))
            threshold = rng.randint(1, len(entries))
            min_grade = rng.randint(1, 2)
            if threshold <= len(entries) // 2:
                continue  # uniqueness needs a majority threshold
            expected = oracles.enumerate_supported_prefix(entries, min_grade, threshold)
            if expected is None:
                with pytest.raises(NoSupport):
                    supported_prefix(entries, min_grade, threshold)
            else:
                assert supported_prefix(entries, min_grade, threshold) == expected


@st.composite
def prefix_cases(draw):
    """Entries over a random tree: a spine of up to 2,000 vertices with
    branches, paths from its root (some cut short), None entries, every
    grade, and thresholds weak enough for ties."""
    depth = draw(st.integers(1, 2000))
    parent = {f"s{i}": f"s{i - 1}" for i in range(1, depth)}
    for b in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, depth - 1))
        for i in range(draw(st.integers(1, 40))):
            parent[f"b{b}.{i}"] = f"s{at}" if i == 0 else f"b{b}.{i - 1}"
    vertices = ["s0", *parent]
    leaves = sorted(set(vertices) - set(parent.values()))

    def from_root(v):
        path = [v]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    entries = []
    for _ in range(draw(st.integers(0, 9))):
        grade = draw(st.integers(0, 2))
        if draw(st.integers(0, 5)) == 0:
            entries.append((None, grade))
            continue
        # Leaves make paths diverge at the branch points, where ties arise.
        path = from_root(draw(st.sampled_from(leaves) | st.sampled_from(vertices)))
        entries.append((path[: draw(st.integers(1, len(path)))], grade))
    threshold = draw(st.integers(0, 2) | st.integers(0, len(entries) + 1))
    return entries, draw(st.integers(0, 2)), threshold


@settings(max_examples=150, deadline=None)
@given(prefix_cases())
def test_supported_prefix_matches_per_depth_reference(case):
    entries, min_grade, threshold = case
    try:
        expected = oracles.supported_prefix_by_depth(entries, min_grade, threshold)
    except NoSupport:
        with pytest.raises(NoSupport):
            supported_prefix(entries, min_grade, threshold)
    else:
        assert supported_prefix(entries, min_grade, threshold) == expected


class TestDecodeTreePath:
    def test_valid(self, eight_vertex_tree):
        path = path_between(eight_vertex_tree, "v1", "v8")
        assert decode_tree_path(eight_vertex_tree, encode_path(path)) == path

    def test_wrong_start(self, eight_vertex_tree):
        path = path_between(eight_vertex_tree, "v2", "v8")
        assert decode_tree_path(eight_vertex_tree, encode_path(path)) is None

    def test_non_path(self, eight_vertex_tree):
        assert decode_tree_path(eight_vertex_tree, encode_path(("v1", "v3"))) is None
        assert decode_tree_path(eight_vertex_tree, b"\xde\xad") is None

    def test_empty_path_is_refused(self, eight_vertex_tree):
        assert decode_tree_path(eight_vertex_tree, encode_path(())) is None

    def test_label_ending_in_another_labels_record(self):
        # "x\0\1a" ends in the record of "a", the shortest record length:
        # trying that length alone would find "a" and refuse the path.
        tree = LabeledTree([("a", "b"), ("b", "x\x00\x01a")])
        path = tree.path_from_root("x\x00\x01a")
        assert encode_path(path).endswith(tree.wire_records[0]["a"])
        assert decode_tree_path(tree, encode_path(path)) == path
        assert decode_tree_path(tree, encode_path(("a",))) == ("a",)

    def test_run_leaves_no_memo_on_the_tree(self):
        tree = generate_tree("path", 1000)
        far = max(tree.vertices, key=tree.depth)
        inputs = {1: far, 2: far, 3: far, 4: tree.root}
        outputs, _ = run_finder(prefix_path_finder_machine, tree, 4, 1, inputs)
        assert all(pair.q == tree.path_from_root(far) for pair in outputs.values())
        assert "_wire_path_cache" not in tree.__dict__


LABELS = st.text(st.characters(codec="utf-8"), max_size=5)  # NUL, controls, multi-byte


@st.composite
def wire_trees(draw):
    """A random tree over arbitrary UTF-8 labels, sometimes with a label whose
    bytes end in another label's record."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=30, unique=True))
    if draw(st.booleans()):
        raw = labels[0].encode("utf-8")
        shadow = draw(LABELS) + (len(raw).to_bytes(2, "big") + raw).decode("utf-8")
        if shadow not in labels:
            labels.append(shadow)
    labels = draw(st.permutations(labels))
    edges = [(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, len(labels))]
    return LabeledTree(edges, vertices=labels)


@st.composite
def wire_inputs(draw, tree):
    """Bytes near a valid root path: the path itself or one corruption of it."""
    labels = sorted(tree.vertices)
    path = tree.path_from_root(draw(st.sampled_from(labels)))
    good = encode_path(path)
    kind = draw(st.sampled_from([
        "valid", "truncated", "appended", "flipped", "shuffled", "non-root",
        "non-adjacent", "count off by one", "count over limit", "empty", "random",
    ]))
    if kind == "valid":
        return good
    if kind == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if kind == "appended":
        return good + draw(st.binary(min_size=1, max_size=8))
    if kind == "flipped":
        i = draw(st.integers(0, len(good) - 1))
        return good[:i] + bytes([good[i] ^ draw(st.integers(1, 255))]) + good[i + 1:]
    if kind == "shuffled":
        return encode_path(tuple(draw(st.permutations(path))))
    if kind == "non-root":
        u, w = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        return encode_path(path_between(tree, u, w))
    if kind == "non-adjacent":
        return encode_path(tuple(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6))))
    if kind == "count off by one":
        return (len(path) + draw(st.sampled_from([-1, 1]))).to_bytes(4, "big") + good[4:]
    if kind == "count over limit":
        return ((1 << 20) + draw(st.integers(1, 1 << 11))).to_bytes(4, "big") + good[4:]
    if kind == "empty":
        return encode_path(())
    return draw(st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_tree_path_matches_reference_decode(data):
    tree = data.draw(wire_trees())
    for v in tree.vertices:
        assert root_path_bytes(tree, v) == encode_path(tree.path_from_root(v))
    for _ in range(5):
        raw = data.draw(wire_inputs(tree))
        assert decode_tree_path(tree, raw) == oracles.checked_path_by_decode(tree, raw)


def prefix_ctx(tree, n, t):
    return AdversaryContext(
        machine=lambda v: prefix_path_finder_machine(tree, n, t, v),
        lo_input=tree.root,
        hi_input=tree.deepest,
        planned_rounds=3,
    )


def legacy_ctx(tree, n, t):
    return AdversaryContext(
        machine=lambda v: legacy_path_finder_machine(tree, n, t, v),
        lo_input=tree.root,
        hi_input=tree.deepest,
        planned_rounds=legacy_rounds(tree, n, t),
    )


def check_prefix_finder_outputs(tree, pairs, honest_inputs):
    hull = tree.convex_hull(honest_inputs)
    lcp = tree.path_from_root(honest_inputs[0])
    for v in honest_inputs[1:]:
        lcp = longest_common_prefix(lcp, tree.path_from_root(v))
    values = list(pairs.values())
    for pair in values:
        assert pair.p and pair.q
        assert set(pair.p) & hull, "P misses the honest input hull"
        assert is_prefix(pair.p, pair.q)
        assert is_prefix(lcp, pair.p), "P does not extend the honest inputs' lcp"
    for a in values:
        for b in values:
            assert is_prefix(a.p, b.q), "cross-party prefix property"


class TestPrefixPathFinder:
    def test_unanimous_inputs(self, eight_vertex_tree):
        inputs = {pid: "v8" for pid in range(1, 5)}
        pairs, transcript = run_finder(
            prefix_path_finder_machine, eight_vertex_tree, 4, 1, inputs
        )
        expected = path_between(eight_vertex_tree, "v1", "v8")
        assert transcript.rounds_used == 3
        for pair in pairs.values():
            assert pair.p == expected and pair.q == expected

    def test_two_honest_inputs_meet_at_lcp(self, eight_vertex_tree):
        inputs = {1: "v6", 2: "v8", 3: "v6", 4: "v8"}
        pairs, _ = run_finder(prefix_path_finder_machine, eight_vertex_tree, 4, 0, inputs)
        for pair in pairs.values():
            assert pair.p == ("v1", "v2")
            assert pair.q == ("v1", "v2")

    def test_registry_property_run(self, eight_vertex_tree):
        tree = eight_vertex_tree
        n, t = 4, 1
        labels = sorted(tree.vertices)
        for name in sorted(REGISTRY):
            for seed in range(15):
                rng = random.Random(f"fox:{name}:{seed}")
                inputs = {pid: rng.choice(labels) for pid in range(1, n + 1)}
                adversary = REGISTRY[name](prefix_ctx(tree, n, t))
                pairs, transcript = run_finder(
                    prefix_path_finder_machine, tree, n, t, inputs, adversary, seed
                )
                assert transcript.rounds_used == 3
                honest_inputs = [inputs[pid] for pid in pairs]
                check_prefix_finder_outputs(tree, pairs, honest_inputs)


# Split-world's gradecast gives every honest party one graded view.  The
# script sends sender 10's path x to parties 1..6 and y to 7..9, echoes x to
# 1..6 and votes x to 1..3 only: parties 1..3 grade x 2 and 4..9 grade it 1.
@pytest.mark.parametrize("adversary, views", [("split-world", 1), ("script", 2)])
def test_each_distinct_graded_view_gets_one_path_pair(monkeypatch, adversary, views):
    calls = []
    monkeypatch.setattr("treeaa.paths._path_pair", lambda *args: calls.append(1) or _path_pair(*args))
    n, t = 10, 3
    tree = generate_tree("random", 60, 3)
    labels = sorted(tree.vertices)
    inputs = {pid: labels[(7 * pid) % len(labels)] for pid in range(1, n + 1)}
    if adversary == "split-world":
        pairs, transcript = run_finder(prefix_path_finder_machine, tree, n, t, inputs,
                                       REGISTRY["split-world"](prefix_ctx(tree, n, t)), seed=1)
    else:
        x, y = root_path_bytes(tree, tree.deepest), root_path_bytes(tree, labels[1])
        script = InstanceScript(n, n, {q: x if q <= 6 else y for q in range(1, n)},
                                {q: x if q <= 6 else None for q in range(1, n)},
                                {q: x if q <= 3 else None for q in range(1, n)})
        _, transcript, results = run_final_tree_aa(tree, n, t, inputs, script, seed=1)
        pairs = {pid: PathPair(res.p, res.q) for pid, res in results.items()}
    vote_inboxes = replay_transcript(transcript)[3]
    graded = {pid: grade_votes(n, t, received_vectors(n, vote_inboxes[pid], TAG_VOTE))
              for pid in pairs}
    for pid, view in graded.items():  # outside a run nothing is memoised
        entries = []
        for value, grade in view.values():
            path = oracles.checked_path_by_decode(tree, value) if grade else None
            entries.append((path, grade if path is not None else 0))
        assert pairs[pid] == PathPair(supported_prefix(entries, 2, n - t),
                                      supported_prefix(entries, 1, n - t))
    assert len(calls) == len({tuple(view.values()) for view in graded.values()}) == views


def check_legacy_outputs(tree, results, honest_inputs):
    hull = tree.convex_hull(honest_inputs)
    paths = [res.path for res in results.values()]
    longest = max(paths, key=len)
    for res in results.values():
        assert set(res.path) & hull, "path misses the honest input hull"
        assert is_prefix(res.path, longest)
        assert len(res.path) >= len(longest) - 1
    indices = [res.start_index for res in results.values()]
    for res in results.values():
        assert min(indices) <= res.landed_index <= max(indices)


class TestLegacyPathFinder:
    def test_unanimous_inputs(self, eight_vertex_tree):
        inputs = {pid: "v7" for pid in range(1, 5)}
        results, transcript = run_finder(
            legacy_path_finder_machine, eight_vertex_tree, 4, 1, inputs
        )
        expected = path_between(eight_vertex_tree, "v1", "v7")
        assert transcript.rounds_used == legacy_rounds(eight_vertex_tree, 4, 1)
        for res in results.values():
            assert res.path == expected

    def test_euler_index_example(self, eight_vertex_tree):
        # honest inputs v3, v6, v5 enter with indices within {3..13}; every
        # reachable endpoint's path crosses the hull member v2.
        inputs = {1: "v3", 2: "v6", 3: "v5", 4: "v3"}
        results, _ = run_finder(legacy_path_finder_machine, eight_vertex_tree, 4, 0, inputs)
        euler = eight_vertex_tree.euler
        assert euler.index_of["v3"][0] == 3
        assert euler.index_of["v6"] == (4,)
        assert euler.index_of["v5"] == (13,)
        for res in results.values():
            assert 3 <= res.landed_index <= 13
            assert res.path[-1] == euler.vertex_at(res.landed_index)
            assert "v2" in res.path or res.path[-1] in ("v3", "v6")

    def test_index_range_paths_cross_hull(self):
        # Any landing inside the honest index window keeps the hull reachable.
        for seed in range(40):
            rng = random.Random(f"euler-window:{seed}")
            size = rng.randint(2, 14)
            tree = LabeledTree(oracles.random_edge_list(rng, size))
            euler = tree.euler
            members = set(rng.sample(sorted(tree.vertices), rng.randint(1, size)))
            hull = tree.convex_hull(members)
            positions = sorted(i for m in members for i in euler.index_of[m])
            for i in range(positions[0], positions[-1] + 1):
                path = path_between(tree, tree.root, euler.vertex_at(i))
                assert set(path) & hull

    def test_registry_property_run(self, eight_vertex_tree):
        tree = eight_vertex_tree
        n, t = 4, 1
        labels = sorted(tree.vertices)
        for name in sorted(REGISTRY):
            for seed in range(10):
                rng = random.Random(f"legacy:{name}:{seed}")
                inputs = {pid: rng.choice(labels) for pid in range(1, n + 1)}
                adversary = REGISTRY[name](legacy_ctx(tree, n, t))
                results, transcript = run_finder(
                    legacy_path_finder_machine, tree, n, t, inputs, adversary, seed
                )
                assert transcript.rounds_used == legacy_rounds(tree, n, t)
                honest_inputs = [inputs[pid] for pid in results]
                check_legacy_outputs(tree, results, honest_inputs)


def footprint(tree):
    """Byte size of everything a tree holds, one level into its tuples."""
    return {name: [sys.getsizeof(x) for x in (value if type(value) is tuple else (value,))]
            for name, value in vars(tree).items()}


def test_root_paths_keep_no_per_vertex_state():
    # Random inputs on one long path ask for many distinct root paths, and
    # every run still grades valid.  The tree keeps one set of heavy chains,
    # holding each label once, and nothing it holds grows with the paths asked.
    tree = generate_tree("path", 2000, 0)
    rng = random.Random("root-path-cache")
    labels = sorted(tree.vertices)
    held = None
    for seed in range(150):
        inputs = {pid: rng.choice(labels) for pid in range(1, 5)}
        report = run_one(tree, "path(2000)", 4, 1, "final", "split-world", inputs, seed)
        assert report.valid and report.max_dist <= 1
        assert held is None or footprint(tree) == held
        held = footprint(tree)
    assert sorted(chain.from_iterable(tree.heavy_chains[0])) == labels


@st.composite
def chain_trees(draw):
    """A random edge-list tree or a star, caterpillar or binary generator tree."""
    kind = draw(st.sampled_from(["random", "star", "caterpillar", "binary"]))
    size = draw(st.integers(1, 80))
    if kind != "random":
        return generate_tree(kind, size)
    edges = oracles.random_edge_list(random.Random(draw(st.integers(0, 2 ** 32))), size)
    return LabeledTree(edges) if edges else LabeledTree((), vertices=["n000"])


@settings(max_examples=200, deadline=None)
@given(chain_trees())
def test_root_paths_are_few_heavy_chain_slices(tree):
    adj = oracles.adjacency(tree)
    assert sorted(chain.from_iterable(tree.heavy_chains[0])) == sorted(tree.vertices)
    for v in tree.vertices:
        path = tree.path_from_root(v)
        assert path == oracles.bfs_path(adj, tree.root, v)
        assert root_path_bytes(tree, v) == encode_path(path)
        assert len(list(tree.root_slices(v))) <= len(tree).bit_length()  # floor(log2 |V|) + 1
    for call in (tree.path_from_root, lambda v: root_path_bytes(tree, v)):
        with pytest.raises(UnknownVertex):
            call("no such vertex")

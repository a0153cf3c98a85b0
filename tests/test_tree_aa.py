import random

import pytest

from treeaa import (
    PathPair,
    generate_tree,
    plan_iterations,
    planned_rounds,
    run_final_tree_aa,
    run_tree_aa,
    run_tree_aa_old,
)
from treeaa.adversaries import REGISTRY, RegistryAdversary, context_for_tree
from treeaa.errors import InvalidParams
from treeaa.gradecast import compute_candidates, received_values, received_vectors
from treeaa.simnet import Adversary
from treeaa.paths import legacy_rounds, root_path_bytes
from treeaa.trees import LabeledTree
from treeaa.wire import TAG_ECHO, TAG_VALUE, TAG_VOTE, encode_double, encode_vector, frame

from byzhelpers import InstanceScript
from oracles import is_prefix, path_between


def check_agreement(tree, inputs, outputs):
    honest = sorted(outputs)
    hull = tree.convex_hull([inputs[pid] for pid in honest])
    labels = [outputs[pid] for pid in honest]
    for label in labels:
        assert label in hull, f"output {label} outside honest hull"
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            assert tree.distance(a, b) <= 1


class TestConfig:
    def test_rejects_bad_threshold(self, eight_vertex_tree):
        with pytest.raises(InvalidParams):
            planned_rounds(eight_vertex_tree, 6, 2, "final")
        with pytest.raises(InvalidParams):
            plan_iterations(6, 2, 10.0, 1.0)
        with pytest.raises(InvalidParams):
            planned_rounds(eight_vertex_tree, 4, 1, "fast")

    def test_accepts_valid(self, eight_vertex_tree):
        agree = 3 * plan_iterations(4, 1, float(eight_vertex_tree.diameter), 1.0)
        assert planned_rounds(eight_vertex_tree, 4, 1, "final") == 3 + agree
        legacy = planned_rounds(eight_vertex_tree, 4, 1, "legacy")
        assert legacy == legacy_rounds(eight_vertex_tree, 4, 1) + agree


class TestTreeAAGivenPaths:
    def test_unanimous_on_path_input(self, spine_tree):
        spine = tuple(f"v{i}" for i in range(1, 9))
        pairs = {pid: PathPair(spine, spine) for pid in range(1, 5)}
        inputs = {pid: "v5" for pid in range(1, 5)}
        outputs, _, _ = run_tree_aa(spine_tree, 4, 1, inputs, pairs)
        assert set(outputs.values()) == {"v5"}

    def test_spine_scenario(self, spine_tree):
        # Projections of u1, u2, u3 are v3, v4, v6: positions {3, 4, 6}.
        spine = tuple(f"v{i}" for i in range(1, 9))
        pairs = {pid: PathPair(spine, spine) for pid in range(1, 5)}
        inputs = {1: "u1", 2: "u2", 3: "u3", 4: "u1"}
        outputs, _, results = run_tree_aa(spine_tree, 4, 1, inputs, pairs)
        assert sorted(results[pid].start_index for pid in (1, 2, 3)) == [3, 4, 6]
        for label in outputs.values():
            assert label in {"v3", "v4", "v5", "v6"}
        check_agreement(spine_tree, inputs, outputs)

    def test_differing_prefix_paths(self, eight_vertex_tree):
        # One party holds a strictly shorter P; outputs stay 1-close.
        long = path_between(eight_vertex_tree, "v1", "v8")
        short = long[:-1]
        pairs = {
            1: PathPair(short, long),
            2: PathPair(long, long),
            3: PathPair(long, long),
            4: PathPair(long, long),
        }
        inputs = {1: "v8", 2: "v8", 3: "v8", 4: "v8"}
        outputs, _, _ = run_tree_aa(eight_vertex_tree, 4, 1, inputs, pairs)
        check_agreement(eight_vertex_tree, inputs, outputs)

    def test_random_trees_with_oracle_built_pairs(self):
        # (p, q) pairs manufactured to satisfy the finder guarantees: all q
        # equal a root-anchored path, each p a non-empty prefix of it, and
        # one input pinned at the root so every p meets the input hull.
        import oracles

        for seed in range(25):
            rng = random.Random(f"pairs:{seed}")
            size = rng.randint(3, 14)
            tree = LabeledTree(oracles.random_edge_list(rng, size))
            labels = sorted(tree.vertices)
            anchor = max(labels, key=lambda v: (tree.depth(v), v))
            q = path_between(tree, tree.root, anchor)
            inputs = {1: tree.root}
            pairs = {1: PathPair(q[: rng.randint(1, len(q))], q)}
            for pid in range(2, 5):
                inputs[pid] = rng.choice(labels)
                pairs[pid] = PathPair(q[: rng.randint(1, len(q))], q)
            outputs, _, _ = run_tree_aa(tree, 4, 1, inputs, pairs, seed=seed)
            check_agreement(tree, inputs, outputs)


class TestEndToEnd:
    def test_unanimous_final(self, eight_vertex_tree):
        inputs = {pid: "v6" for pid in range(1, 5)}
        outputs, transcript, _ = run_final_tree_aa(eight_vertex_tree, 4, 1, inputs)
        assert set(outputs.values()) == {"v6"}
        assert transcript.rounds_used == planned_rounds(eight_vertex_tree, 4, 1, "final")

    def test_unanimous_legacy(self, eight_vertex_tree):
        inputs = {pid: "v6" for pid in range(1, 5)}
        outputs, transcript, _ = run_tree_aa_old(eight_vertex_tree, 4, 1, inputs)
        assert set(outputs.values()) == {"v6"}
        assert transcript.rounds_used == planned_rounds(eight_vertex_tree, 4, 1, "legacy")

    def test_path_endpoints_with_silent_faults(self):
        tree = generate_tree("path", 50)
        a, b = tree.diameter_endpoints
        inputs = {pid: a if pid % 2 else b for pid in range(1, 5)}
        adversary = REGISTRY["silent"](context_for_tree(tree, 4, 1, "final"))
        outputs, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adversary, seed=1)
        check_agreement(tree, inputs, outputs)
        assert transcript.rounds_used == planned_rounds(tree, 4, 1, "final")

    def test_thousand_edge_path_endpoints(self):
        # Inputs at the two ends of a 1001-vertex path: outputs must be
        # equal or adjacent vertices inside the path.
        tree = generate_tree("path", 1000)
        a, b = tree.diameter_endpoints
        inputs = {pid: a if pid % 2 else b for pid in range(1, 5)}
        adversary = REGISTRY["silent"](context_for_tree(tree, 4, 1, "final"))
        outputs, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adversary, seed=5)
        check_agreement(tree, inputs, outputs)
        assert transcript.rounds_used == planned_rounds(tree, 4, 1, "final")

    def test_trivial_diameter_short_circuit(self):
        tree = LabeledTree([("a", "b")])
        inputs = {1: "a", 2: "b", 3: "a", 4: "b"}
        for runner in (run_final_tree_aa, run_tree_aa_old):
            outputs, transcript, _ = runner(tree, 4, 1, inputs)
            assert outputs == inputs
            assert transcript.rounds_used == 0
            assert transcript.envelopes == []

    def test_a_grade_one_split_makes_q_longer_than_p(self):
        # Party 4 gradecasts the root path to v3 so that parties 1 and 2
        # grade it 1 and party 3 grades it 0: only parties 1 and 2 count a
        # fourth path for q, which then runs past p.
        tree = generate_tree("path", 3)
        x = root_path_bytes(tree, "v3")
        script = InstanceScript(4, 4, {1: x, 2: x}, {1: x}, {1: x, 2: x})
        inputs = {1: "v3", 2: "v3", 3: "v0", 4: "v0"}
        outputs, _, results = run_final_tree_aa(tree, 4, 1, inputs, script)
        assert {pid: (res.p, res.q) for pid, res in results.items()} == {
            1: (("v0",), ("v0", "v1", "v2", "v3")),
            2: (("v0",), ("v0", "v1", "v2", "v3")),
            3: (("v0",), ("v0",)),
        }
        check_agreement(tree, inputs, outputs)

    def test_consistent_labeling_across_honest_parties(self, eight_vertex_tree):
        tree = eight_vertex_tree
        labels = sorted(tree.vertices)
        for name in ("equivocator", "split-world"):
            for seed in range(10):
                rng = random.Random(f"labeling:{name}:{seed}")
                inputs = {pid: rng.choice(labels) for pid in range(1, 5)}
                adversary = REGISTRY[name](context_for_tree(tree, 4, 1, "final"))
                outputs, _, results = run_final_tree_aa(tree, 4, 1, inputs, adversary, seed)
                check_agreement(tree, inputs, outputs)
                longest = max((res.p for res in results.values()), key=len)
                for res in results.values():
                    assert is_prefix(res.p, res.q)
                    assert is_prefix(longest, res.q)
                    assert 1 <= res.landed_index <= len(longest)

    def test_registry_smoke_both_modes(self, eight_vertex_tree):
        tree = eight_vertex_tree
        labels = sorted(tree.vertices)
        for mode, runner in (("final", run_final_tree_aa), ("legacy", run_tree_aa_old)):
            expected = planned_rounds(tree, 4, 1, mode)
            for name in sorted(REGISTRY):
                for seed in range(5):
                    rng = random.Random(f"e2e:{mode}:{name}:{seed}")
                    inputs = {pid: rng.choice(labels) for pid in range(1, 5)}
                    adversary = REGISTRY[name](context_for_tree(tree, 4, 1, mode))
                    outputs, transcript, _ = runner(tree, 4, 1, inputs, adversary, seed)
                    check_agreement(tree, inputs, outputs)
                    assert transcript.rounds_used == expected


class ClampFixture(Adversary):
    """Two cooperating Byzantine parties driving the legacy protocol into
    the landed-past-the-end branch.

    Party 6 keeps the honest value range alive through the first finder
    iteration by delivering an extreme value to parties 4 and 5 only (grade
    1 there, grade 0 elsewhere); party 7 repeats the trick in the second
    iteration, so parties 4, 5 land on position 4 (path a,b,c,d) while 1..3
    land on position 3 (path a,b,c).  The second agreement is then skewed
    high, making everyone land on position 4, which exceeds the short
    path's length at parties 1..3.
    """

    S1 = (1, 2, 3)  # round-1 recipients of the trick value
    WITNESS = 1  # the single honest party whose candidate fires
    TARGETS = (4, 5)  # receivers that end with grade 1
    TRICK = encode_double(100.0)

    def corrupt_decision(self, round, view):
        return {6, 7}

    def byzantine_send(self, round, pid, view):
        block, local = divmod(round - 1, 3)
        block, local = block + 1, local + 1
        n = self.n
        trickster = {1: 6, 2: 7}.get(block)
        if local == 1:
            if block == 1:
                value, targets = (self.TRICK, self.S1) if pid == 6 else (encode_double(3.9), range(1, n + 1))
            elif block == 2:
                if pid == 6:
                    return []
                value, targets = self.TRICK, self.S1
            else:
                value, targets = self.TRICK, range(1, n + 1)
            return [(q, frame(TAG_VALUE, value)) for q in targets]
        if local == 2:
            mirror = received_values(n, view.inbox_of(pid, round - 1))
            out = []
            for q in range(1, n + 1):
                entries = list(mirror)
                if trickster is not None:
                    entries[trickster - 1] = self.TRICK if q == self.WITNESS else None
                out.append((q, frame(TAG_ECHO, encode_vector(entries))))
            return out
        mirror = compute_candidates(n, self.t, received_vectors(n, view.inbox_of(pid, round - 1), TAG_ECHO))
        out = []
        for q in range(1, n + 1):
            entries = list(mirror)
            if trickster is not None:
                entries[trickster - 1] = self.TRICK if q in self.TARGETS else None
            out.append((q, frame(TAG_VOTE, encode_vector(entries))))
        return out


class TestLegacyClampBranch:
    def test_short_path_holder_outputs_last_vertex(self):
        tree = LabeledTree([("a", "b"), ("b", "c"), ("c", "d")])
        n, t = 7, 2
        inputs = {1: "c", 2: "c", 3: "c", 4: "d", 5: "d", 6: "a", 7: "a"}
        outputs, transcript, results = run_tree_aa_old(
            tree, n, t, inputs, ClampFixture(), seed=0
        )
        assert transcript.rounds_used == planned_rounds(tree, n, t, "legacy") == 12
        # The finder really split: 1..3 hold (a,b,c), 4..5 hold (a,b,c,d).
        for pid in (1, 2, 3):
            assert results[pid].finder.path == ("a", "b", "c")
        for pid in (4, 5):
            assert results[pid].finder.path == ("a", "b", "c", "d")
        # Everyone lands on position 4; the short-path holders clamp to
        # their last vertex.
        for pid in (1, 2, 3):
            assert results[pid].landed_index == 4
            assert results[pid].clamped
            assert outputs[pid] == "c"
        for pid in (4, 5):
            assert results[pid].landed_index == 4
            assert not results[pid].clamped
            assert outputs[pid] == "d"
        check_agreement(tree, inputs, outputs)


EMPTY_PATH = frame(TAG_VALUE, b"\x00\x00\x00\x00")


class EmptyPathSender(RegistryAdversary):
    """Party 1 runs skew-low's honest shadow but gradecasts the empty path."""

    def __init__(self, ctx):
        super().__init__(REGISTRY["skew-low"], ctx)

    def corrupt_decision(self, round, view):
        return {1}

    def byzantine_send(self, round, pid, view):
        honest = super().byzantine_send(round, pid, view)
        if round == 1:
            return [(receiver, EMPTY_PATH) for receiver, _ in honest]
        return honest


class TestByzantinePathBytes:
    def test_empty_path_counts_as_absent(self):
        tree = generate_tree("path", 20)
        n, t = 4, 1
        a, b = tree.diameter_endpoints
        inputs = {1: a, 2: a, 3: b, 4: b}
        adversary = EmptyPathSender(context_for_tree(tree, n, t, "final"))
        outputs, transcript, _ = run_final_tree_aa(tree, n, t, inputs, adversary, seed=0)
        # The fixture really sends: a silent party 1 would also leave [2, 3, 4].
        assert [(env.receiver, env.payload) for env in transcript.envelopes
                if env.round == 1 and env.sender == 1] == [(q, EMPTY_PATH) for q in range(1, n + 1)]
        assert sorted(outputs) == [2, 3, 4]
        assert transcript.rounds_used == planned_rounds(tree, n, t, "final")
        check_agreement(tree, inputs, outputs)


class TestProjectionIndex:
    def test_matches_public_projection_on_root_paths(self):
        # The machines' position of the median of the vertex and the path's
        # ends must agree with the public projection API on root paths.
        import oracles
        from treeaa.tree_aa import _projection_index

        for seed in range(40):
            rng = random.Random(f"projidx:{seed}")
            size = rng.randint(2, 16)
            tree = LabeledTree(oracles.random_edge_list(rng, size))
            labels = sorted(tree.vertices)
            for _ in range(6):
                anchor = rng.choice(labels)
                path = path_between(tree, tree.root, anchor)
                prefix = path[: rng.randint(1, len(path))]
                v = rng.choice(labels)
                fast = _projection_index(tree, prefix, v)
                slow = prefix.index(tree.project_onto_path(prefix, v)) + 1
                assert fast == slow

    def test_non_root_paths(self, eight_vertex_tree):
        from treeaa.tree_aa import _projection_index

        path = path_between(eight_vertex_tree, "v6", "v8")
        assert _projection_index(eight_vertex_tree, path, "v7") == 2
        assert _projection_index(eight_vertex_tree, path, "v5") == 3

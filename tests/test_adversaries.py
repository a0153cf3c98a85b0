import pytest

from treeaa import generate_tree, run_final_tree_aa
from treeaa.adversaries import REGISTRY, RegistryAdversary, make_adversary
from treeaa.errors import InvalidParams
from treeaa.simnet import GeneratorProgram

from test_tree_aa import tree_ctx


def test_registry_has_required_strategies():
    assert set(REGISTRY) == {
        "silent", "skew-high", "skew-low", "equivocator", "split-world", "adaptive-late",
    }


def test_make_adversary_unknown_name(eight_vertex_tree):
    with pytest.raises(InvalidParams):
        make_adversary("zealot", tree_ctx(eight_vertex_tree, 4, 1, "final"))


def test_corruption_budget_respected(eight_vertex_tree):
    tree = eight_vertex_tree
    inputs = {pid: "v6" if pid % 2 else "v8" for pid in range(1, 8)}
    for name in sorted(REGISTRY):
        adv = make_adversary(name, tree_ctx(tree, 7, 2, "final"))
        outputs, transcript, _ = run_final_tree_aa(tree, 7, 2, inputs, adv, seed=4)
        assert len(transcript.corrupted()) <= 2
        assert len(outputs) >= 5


def test_adaptive_late_corrupts_only_near_the_end():
    tree = generate_tree("path", 40)
    inputs = {pid: ("v00" if pid % 2 else "v40") for pid in range(1, 5)}
    adv = make_adversary("adaptive-late", tree_ctx(tree, 4, 1, "final"))
    outputs, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adv, seed=2)
    corrupt_rounds = [rnd for kind, rnd, _ in transcript.events if kind == "corrupt"]
    assert corrupt_rounds, "expected a late corruption"
    assert min(corrupt_rounds) >= transcript.rounds_used - 5


def test_skew_directions_differ(eight_vertex_tree):
    tree = eight_vertex_tree
    inputs = {pid: "v3" for pid in range(1, 5)}
    seen = {}
    for name in ("skew-high", "skew-low"):
        adv = make_adversary(name, tree_ctx(tree, 4, 1, "final"))
        _, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adv, seed=6)
        byz = transcript.corrupted()
        seen[name] = [env.payload for env in transcript.envelopes
                      if env.round == 1 and env.sender in byz]
    assert seen["skew-high"] and seen["skew-low"]
    assert seen["skew-high"] != seen["skew-low"]


def test_shadow_steps_run_inside_byzantine_send(eight_vertex_tree, monkeypatch):
    # A profiler attributes shadow work to byzantine_send only if the
    # outbox is computed inside the call, not returned as a lazy iterable.
    depth, steps = [0], []
    send, step = RegistryAdversary.byzantine_send, GeneratorProgram.on_round

    def traced_send(self, *args):
        depth[0] += 1
        try:
            return send(self, *args)
        finally:
            depth[0] -= 1

    def traced_step(self, inbox):
        steps.append((self, depth[0] > 0))
        return step(self, inbox)

    monkeypatch.setattr(RegistryAdversary, "byzantine_send", traced_send)
    monkeypatch.setattr(GeneratorProgram, "on_round", traced_step)
    adv = make_adversary("skew-high", tree_ctx(eight_vertex_tree, 4, 1, "final"))
    inputs = {pid: "v3" for pid in range(1, 5)}
    run_final_tree_aa(eight_vertex_tree, 4, 1, inputs, adv, seed=6)
    shadows = {sh.program for sh in adv._shadows.values()}
    inside = [program in shadows for program, nested in steps if nested]
    outside = [program in shadows for program, nested in steps if not nested]
    assert shadows and inside and all(inside)
    assert outside and not any(outside)

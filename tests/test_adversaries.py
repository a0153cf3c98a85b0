import inspect
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treeaa import generate_tree, run_final_tree_aa, run_tree_aa_old
from treeaa.adversaries import (
    REGISTRY,
    RegistryAdversary,
    _Shadow,
    _spliced,
    context_for_real_aa,
    context_for_tree,
    make_adversary,
)
from treeaa.errors import InvalidParams
from treeaa.gradecast import gradecast_all
from treeaa.harness import ExperimentConfig
from treeaa.paths import legacy_path_finder_machine, prefix_path_finder_machine
from treeaa.real_aa import real_aa_machine
from treeaa.simnet import Finished, GeneratorProgram, SimulationView, broadcast, replay_transcript
from treeaa.tree_aa import MACHINES, tree_aa_machine
from treeaa.trees import LabeledTree

from oracles import random_edge_list

RUNNERS = {"final": run_final_tree_aa, "legacy": run_tree_aa_old}


def test_registry_has_required_strategies():
    assert set(REGISTRY) == {
        "silent", "skew-high", "skew-low", "equivocator", "split-world", "adaptive-late",
    }


def test_make_adversary_unknown_name(eight_vertex_tree):
    # One lookup serves the run and the config check, and names the choices.
    choices = r"adversary must be one of \['adaptive-late', .*\], got 'zealot'"
    with pytest.raises(InvalidParams, match=choices):
        make_adversary("zealot", context_for_tree(eight_vertex_tree, 4, 1, "final"))
    with pytest.raises(InvalidParams, match=choices):
        ExperimentConfig(tree_source="path:6", n=4, t=1, adversary="zealot")


def test_corruption_budget_respected(eight_vertex_tree):
    tree = eight_vertex_tree
    inputs = {pid: "v6" if pid % 2 else "v8" for pid in range(1, 8)}
    for name in sorted(REGISTRY):
        adv = make_adversary(name, context_for_tree(tree, 7, 2, "final"))
        outputs, transcript, _ = run_final_tree_aa(tree, 7, 2, inputs, adv, seed=4)
        assert len(transcript.corrupted()) <= 2
        assert len(outputs) >= 5


def test_adaptive_late_corrupts_only_near_the_end():
    tree = generate_tree("path", 40)
    inputs = {pid: ("v00" if pid % 2 else "v40") for pid in range(1, 5)}
    adv = make_adversary("adaptive-late", context_for_tree(tree, 4, 1, "final"))
    outputs, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adv, seed=2)
    corrupt_rounds = [rnd for kind, rnd, _ in transcript.events if kind == "corrupt"]
    assert corrupt_rounds, "expected a late corruption"
    assert min(corrupt_rounds) >= transcript.rounds_used - 5


def test_skew_directions_differ(eight_vertex_tree):
    tree = eight_vertex_tree
    inputs = {pid: "v3" for pid in range(1, 5)}
    seen = {}
    for name in ("skew-high", "skew-low"):
        adv = make_adversary(name, context_for_tree(tree, 4, 1, "final"))
        _, transcript, _ = run_final_tree_aa(tree, 4, 1, inputs, adv, seed=6)
        byz = transcript.corrupted()
        seen[name] = [env.payload for env in transcript.envelopes
                      if env.round == 1 and env.sender in byz]
    assert seen["skew-high"] and seen["skew-low"]
    assert seen["skew-high"] != seen["skew-low"]


@pytest.mark.parametrize("name", ["skew-high", "equivocator"])
def test_shadow_steps_run_inside_byzantine_send(eight_vertex_tree, monkeypatch, name):
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
    adv = make_adversary(name, context_for_tree(eight_vertex_tree, 4, 1, "final"))
    inputs = {pid: "v3" for pid in range(1, 5)}
    run_final_tree_aa(eight_vertex_tree, 4, 1, inputs, adv, seed=6)
    faces = {program for sh in adv._shadows.values() for program in sh.programs}
    assert len(faces) == len(adv._shadows) * len(adv.row.faces)
    inside = [program in faces for program, nested in steps if nested]
    outside = [program in faces for program, nested in steps if not nested]
    assert faces and inside and all(inside)
    assert outside and not any(outside)


def test_a_face_sends_nothing_once_its_machine_returned():
    inboxes, inbox = [], (b"in",) * 3

    def short():
        inboxes.append((yield broadcast(3, b"x")))
        return "done"

    def endless():
        while True:
            yield broadcast(3, b"y")

    shadow = _Shadow([short(), endless()])
    shadow.step(None)
    assert shadow.outs == [broadcast(3, b"x"), broadcast(3, b"y")]
    # Round 2 finished the short face; round 3 steps it again, and the other face goes on.
    shadow.step(inbox)
    shadow.step(inbox)
    assert shadow.outs == [(), broadcast(3, b"y")]
    assert inboxes == [inbox] and len(shadow.rows) == 3


# adaptive-late corrupts late, so its first send replays the rounds before.
@pytest.mark.parametrize("name", ["split-world", "adaptive-late"])
def test_split_world_reads_each_inbox_once_per_corrupted_party(monkeypatch, name):
    reads = Counter()
    inbox_of = SimulationView.inbox_of

    def counted(self, pid, round):
        reads[pid, round] += 1
        return inbox_of(self, pid, round)

    monkeypatch.setattr(SimulationView, "inbox_of", counted)
    tree = generate_tree("path", 30)
    inputs = {pid: tree.root for pid in range(1, 8)}
    adv = make_adversary(name, context_for_tree(tree, 7, 2, "final"))
    _, transcript, _ = run_final_tree_aa(tree, 7, 2, inputs, adv, seed=1)
    byz = transcript.corrupted()
    assert len(byz) == 2
    assert reads == Counter({(pid, rnd): 1 for pid in byz
                             for rnd in range(1, transcript.rounds_used)})


def test_every_row_corrupts_the_same_pids(eight_vertex_tree):
    inputs = {pid: "v3" for pid in range(1, 8)}
    for seed in range(3):
        seen = set()
        for name in sorted(REGISTRY):
            adv = make_adversary(name, context_for_tree(eight_vertex_tree, 7, 2, "final"))
            _, transcript, _ = run_final_tree_aa(eight_vertex_tree, 7, 2, inputs, adv, seed=seed)
            seen.add(frozenset(transcript.corrupted()))
        assert len(seen) == 1 and len(next(iter(seen))) == 2


def test_two_face_rows_route_the_skew_rows_outboxes():
    # Every row corrupts the same pids, and each face's round-1 outbox is
    # the matching skew row's.  At seed 8 the corrupted pids, 2 and 4, are
    # even, so they hear only equivocator's lo face in round 1, and its
    # single-faced round 2 equals skew-low's too.
    tree, n, t = generate_tree("path", 30), 7, 2
    inputs = {pid: sorted(tree.vertices)[3 * pid] for pid in range(1, n + 1)}
    sent = {}
    for name in ("skew-low", "skew-high", "equivocator", "split-world"):
        adv = make_adversary(name, context_for_tree(tree, n, t, "final"))
        _, transcript, _ = run_final_tree_aa(tree, n, t, inputs, adv, seed=8)
        byz = transcript.corrupted()
        sent[name] = {(r, s): dict(pairs) for r, s, pairs in transcript.records if s in byz}
    assert byz == {2, 4}
    lo, hi = sent["skew-low"], sent["skew-high"]
    assert all(lo[1, pid] != hi[1, pid] for pid in byz)
    for pid in byz:
        for q in range(1, n + 1):
            assert sent["equivocator"][1, pid][q] == (hi if q % 2 else lo)[1, pid][q]
            assert sent["split-world"][1, pid][q] == (hi if q > n // 2 else lo)[1, pid][q]
        assert sent["equivocator"][2, pid] == lo[2, pid]



class PerPidShadows(RegistryAdversary):
    """Reference: one shadow per corrupted pid, each face's honest machine
    resumed with that pid's own inboxes, as before shadows were shared."""

    def __init__(self, row, ctx):
        super().__init__(row, ctx)
        self.own = {}  # pid -> (face programs, next round)

    def byzantine_send(self, round, pid, view):
        row, ctx = self.row, self.ctx
        if not row.faces:
            return ()
        programs, next_round = self.own.get(pid) or (
            [GeneratorProgram(ctx.machine(getattr(ctx, face))) for face in row.faces], 1)
        for r in range(next_round, round + 1):
            inbox = view.inbox_of(pid, r - 1) if r > 1 else None
            outs = [program.on_round(inbox) for program in programs]
        self.own[pid] = programs, round + 1
        outs = [() if type(out) is Finished else out for out in outs]
        if len(outs) == 1 or (round - 1) % row.every:
            return outs[0]
        return _spliced(row, *outs, self.n)


def _play(adversary_class, name, tree, n, t, mode, inputs, seed):
    """(transcript JSONL, outputs, shadow steps) of one run; a shadow step is
    a program step made inside ``byzantine_send``."""
    adv = adversary_class(REGISTRY[name], context_for_tree(tree, n, t, mode))
    steps, send = [0], adv.byzantine_send
    step = GeneratorProgram.on_round

    def counted_step(program, inbox):
        steps[0] += 1
        return step(program, inbox)

    def counted_send(*args):
        GeneratorProgram.on_round = counted_step
        try:
            return send(*args)
        finally:
            GeneratorProgram.on_round = step

    adv.byzantine_send = counted_send
    outputs, transcript, _ = RUNNERS[mode](tree, n, t, inputs, adv, seed)
    return transcript.to_jsonl(), outputs, steps[0], transcript


@st.composite
def small_configs(draw):
    n = draw(st.integers(4, 16))
    t = draw(st.integers(1, (n - 1) // 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tree = LabeledTree(random_edge_list(rng, draw(st.integers(3, 10))))
    labels = sorted(tree.vertices)
    inputs = {pid: rng.choice(labels) for pid in range(1, n + 1)}
    return tree, n, t, inputs, draw(st.integers(0, 10**6))


@settings(max_examples=25, deadline=None)
@given(small_configs())
def test_shared_shadows_send_what_per_pid_shadows_send(config):
    tree, n, t, inputs, seed = config
    for mode in RUNNERS:
        for name in sorted(REGISTRY):
            shared = _play(RegistryAdversary, name, tree, n, t, mode, inputs, seed)
            per_pid = _play(PerPidShadows, name, tree, n, t, mode, inputs, seed)
            assert shared[:2] == per_pid[:2], (mode, name)


def test_a_party_whose_inbox_differs_leaves_the_shared_shadow():
    # split-world at (10, 3): camps 1..5 and 6..10.  With the lowest
    # corrupted pid in camp 1 and the other two in camp 2, all three share
    # round 1's shadow; from round 2 the camp-2 pids share a second one.
    tree, n, t = generate_tree("path", 12), 10, 3
    inputs = {pid: tree.root for pid in range(1, n + 1)}
    for seed in range(40):
        adv = make_adversary("split-world", context_for_tree(tree, n, t, "final"))
        held, send = [], adv.byzantine_send

        def recorded_send(round, pid, view):
            out = send(round, pid, view)
            held.append((round, pid, id(adv._shadows[pid])))
            return out

        adv.byzantine_send = recorded_send
        _, transcript, _ = run_final_tree_aa(tree, n, t, inputs, adv, seed)
        byz = sorted(transcript.corrupted())
        if [q > n // 2 for q in byz] == [False, True, True]:
            break
    else:
        pytest.fail("no seed splits the corrupted pids 1 + 2 across the camps")
    lead, a, b = byz
    shadows = {(rnd, pid): shadow for rnd, pid, shadow in held}
    assert shadows[1, lead] == shadows[1, a] == shadows[1, b]
    for rnd in range(2, transcript.rounds_used + 1):
        assert shadows[rnd, a] == shadows[rnd, b] != shadows[rnd, lead]
    ref = _play(PerPidShadows, "split-world", tree, n, t, "final", inputs, seed)
    assert transcript.to_jsonl() == ref[0]


def test_shadow_steps_per_distinct_history():
    tree, n, t = generate_tree("path", 30), 7, 2
    inputs = {pid: sorted(tree.vertices)[3 * pid] for pid in range(1, n + 1)}
    for seed in range(4):
        for name in ("skew-high", "split-world", "equivocator"):
            faces = len(REGISTRY[name].faces)
            _, _, steps, transcript = _play(RegistryAdversary, name, tree, n, t, "final", inputs, seed)
            _, _, per_pid, _ = _play(PerPidShadows, name, tree, n, t, "final", inputs, seed)
            one_party = faces * transcript.rounds_used
            assert per_pid == t * one_party
            if name == "skew-high":  # every inbox is all broadcasts: one history
                assert steps == one_party
            assert steps <= 2 * one_party  # the two camps, or the two receiver parities


@settings(max_examples=20, deadline=None)
@given(small_configs(), st.sampled_from(sorted(RUNNERS)), st.sampled_from(sorted(REGISTRY)),
       st.data())
def test_two_machines_on_one_input_and_history_send_and_return_the_same(config, mode, name, data):
    # The premise shadows are shared by, which a machine reading module
    # state could break: two fresh ctx.machine(x), resumed with one party's
    # delivered rows of an attacked run, send the same and return the same.
    tree, n, t, inputs, seed = config
    ctx = context_for_tree(tree, n, t, mode)
    _, transcript, _ = RUNNERS[mode](tree, n, t, inputs, make_adversary(name, ctx), seed)
    delivered = replay_transcript(transcript)
    q = data.draw(st.integers(1, n))
    rows = [delivered.get(rnd, {}).get(q, (None,) * n) for rnd in range(1, transcript.rounds_used + 1)]
    x = data.draw(st.sampled_from(sorted(tree.vertices)))

    def replayed():
        program = GeneratorProgram(ctx.machine(x))
        outs = [program.on_round(None)]
        for row in rows:
            if type(outs[-1]) is Finished:
                break
            outs.append(program.on_round(row))
        return outs

    assert replayed() == replayed()


def test_no_honest_machine_takes_a_pid():
    machines = [protocol.machine for protocol in MACHINES.values()] + [
        gradecast_all, real_aa_machine, prefix_path_finder_machine, legacy_path_finder_machine,
        tree_aa_machine]
    for machine in machines:
        assert "pid" not in inspect.signature(machine).parameters, machine.__name__
    tree = generate_tree("path", 5)
    for ctx in (context_for_tree(tree, 4, 1, "final"), context_for_real_aa(4, 1, 10.0, 1.0)):
        assert len(inspect.signature(ctx.machine).parameters) == 1  # input -> machine

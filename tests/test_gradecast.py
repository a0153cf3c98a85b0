from itertools import product

from treeaa.adversaries import REGISTRY, AdversaryContext
from treeaa.gradecast import GradedValue, gradecast_all, received_vectors
from treeaa.simnet import Adversary, GeneratorProgram, broadcast, run_machines
from treeaa.wire import TAG_ECHO, encode_vector, frame

from byzhelpers import InstanceScript, check_consistency


def values_for(n):
    return {pid: b"val-%d" % pid for pid in range(1, n + 1)}


def gradecast_once(n, t, values, adversary=None, seed=0):
    """({honest pid: {sender pid: GradedValue}}, transcript) of one invocation."""
    return run_machines(n, t, lambda pid: gradecast_all(n, t, pid, values[pid]), adversary, seed)


def test_honest_senders_deliver_grade_two():
    n = 4
    outputs, transcript = gradecast_once(n, 1, values_for(n))
    assert transcript.rounds_used == 3
    for receiver in range(1, n + 1):
        for sender in range(1, n + 1):
            assert outputs[receiver][sender] == GradedValue(b"val-%d" % sender, 2)


class SilentByz(Adversary):
    def corrupt_decision(self, round, view):
        return {4}


def test_silent_sender_yields_bottom_grade_zero():
    n = 4
    outputs, transcript = gradecast_once(n, 1, values_for(n), SilentByz())
    assert transcript.rounds_used == 3
    for receiver in (1, 2, 3):
        assert outputs[receiver][4] == GradedValue(None, 0)
        for sender in (1, 2, 3):
            assert outputs[receiver][sender] == GradedValue(b"val-%d" % sender, 2)


def test_receivers_share_one_immutable_vector():
    # Four senders frame equal bytes as four distinct objects: the memo is
    # keyed by value, so all sixteen deliveries decode to one tuple.
    n = 4
    got = {}

    def machine(pid):
        inbox = yield broadcast(n, frame(TAG_ECHO, encode_vector([b"a", None, b"c", b"d"])))
        got[pid] = received_vectors(n, inbox, TAG_ECHO)
        return None

    run_machines(n, 1, machine)
    shared = got[1][0]
    assert shared == (b"a", None, b"c", b"d")
    assert all(vec is shared for vectors in got.values() for vec in vectors)


def test_each_receiver_gets_its_own_output_dict():
    outputs, _ = gradecast_once(4, 1, values_for(4))
    outputs[1][1] = GradedValue(None, 0)
    assert outputs[2][1] == GradedValue(b"val-1", 2)


def test_three_rounds_regardless_of_adversary():
    script = InstanceScript(4, 4, {1: b"x"}, {2: b"y"}, {3: None})
    _, transcript = gradecast_once(4, 1, values_for(4), script)
    assert transcript.rounds_used == 3


def test_equivocating_round_one_consistency():
    # All 27 per-receiver round-1 splits; echo and vote follow honestly.
    n = 4
    alphabet = (b"v", b"w", None)
    for combo in product(alphabet, repeat=3):
        r1 = {q + 1: combo[q] for q in range(3)}
        honest_echo = {q: r1[q] for q in (1, 2, 3)}  # echoes what it sent
        script = InstanceScript(4, 4, r1, honest_echo, {})
        outputs, _ = gradecast_once(n, 1, values_for(n), script, seed=3)
        check_consistency(outputs, n)
        for receiver in (1, 2, 3):
            for sender in (1, 2, 3):
                assert outputs[receiver][sender] == GradedValue(b"val-%d" % sender, 2)


def test_byzantine_echo_cannot_break_honest_integrity():
    # Distorting the echo/vote entries of an honest instance never lowers
    # its grade below 2 at any honest receiver.
    n = 4
    target = 2
    for echo_choice, vote_choice in product((b"v", b"forged", None), repeat=2):
        script = InstanceScript(
            4, target,
            r1={},
            r2={1: echo_choice, 2: None, 3: echo_choice},
            r3={1: vote_choice, 2: vote_choice, 3: None},
        )
        outputs, _ = gradecast_once(n, 1, values_for(n), script)
        for receiver in (1, 2, 3):
            assert outputs[receiver][target] == GradedValue(b"val-%d" % target, 2)


def test_registry_adversaries_preserve_consistency():
    n, t = 7, 2
    values = values_for(n)
    for name in sorted(REGISTRY):
        for seed in range(10):
            ctx = AdversaryContext(
                program_factory=lambda pid, v: GeneratorProgram(gradecast_all(n, t, pid, v)),
                lo_input=b"lo",
                hi_input=b"hi",
                planned_rounds=3,
            )
            adversary = REGISTRY[name](ctx)
            outputs, transcript = gradecast_once(n, t, values, adversary, seed=seed)
            assert transcript.rounds_used == 3
            check_consistency(outputs, n)
            honest = set(outputs)
            for receiver in honest:
                for sender in honest:
                    assert outputs[receiver][sender] == GradedValue(values[sender], 2)

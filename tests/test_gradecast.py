from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from treeaa import gradecast, paths, real_aa, simnet, wire
from treeaa.adversaries import REGISTRY, AdversaryContext, make_adversary
from treeaa.gradecast import (
    GradedValue,
    compute_candidates,
    grade_votes,
    gradecast_all,
    received_values,
    received_vectors,
)
from treeaa.harness import resolve_tree
from treeaa.simnet import (
    Adversary,
    broadcast,
    replay_transcript,
    run_simulation,
)
from treeaa.tree_aa import run_final_tree_aa, run_tree_aa_old
from treeaa.wire import TAG_ECHO, TAG_VALUE, TAG_VOTE, encode_vector, frame

import oracles
from byzhelpers import InstanceScript, check_consistency, marked


def values_for(n):
    return {pid: b"val-%d" % pid for pid in range(1, n + 1)}


def gradecast_once(n, t, values, adversary=None, seed=0):
    """({honest pid: {sender pid: GradedValue}}, transcript) of one invocation."""
    return run_simulation(n, t, [gradecast_all(n, t, values[pid]) for pid in range(1, n + 1)],
                          adversary, seed)


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

    run_simulation(n, 1, [machine(pid) for pid in range(1, n + 1)])
    shared = got[1][0]
    assert shared == (b"a", None, b"c", b"d")
    assert all(vec is shared for vectors in got.values() for vec in vectors)


def test_each_receiver_gets_its_own_output_dict():
    # The grades are a shared read-only view: a party cannot write to them.
    outputs, _ = gradecast_once(4, 1, values_for(4))
    with pytest.raises(TypeError):
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
                machine=lambda v: gradecast_all(n, t, v),
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


def test_each_distinct_inbox_is_answered_once(monkeypatch):
    # Honest parties of a silent-adversary run share every inbox, so each
    # echo and vote round encodes one vector, not one per party.
    calls = []
    real_encode = gradecast.encode_vector
    monkeypatch.setattr(gradecast, "encode_vector",
                        lambda entries: calls.append(1) or real_encode(entries))
    n, t = 10, 3
    tree, _ = resolve_tree("caterpillar:40")
    labels = sorted(tree.vertices)
    inputs = {pid: labels[(7 * pid) % len(labels)] for pid in range(1, n + 1)}
    ctx = AdversaryContext(lambda v: None, labels[0], labels[-1], 0)
    outputs, transcript, _ = run_tree_aa_old(tree, n, t, inputs, make_adversary("silent", ctx), seed=5)
    inboxes = replay_transcript(transcript)
    distinct = {(rnd, inboxes[rnd][pid]) for rnd in inboxes if rnd % 3 != 0 for pid in outputs}
    assert transcript.rounds_used >= 15
    assert len(distinct) == 2 * transcript.rounds_used // 3
    assert len(calls) <= len(distinct)


@st.composite
def tally_cases(draw):
    """(n, t, vectors): 0..n vectors, each None or n entries from {None, a, b, c}."""
    n = draw(st.integers(4, 16))
    t = draw(st.integers(0, (n - 1) // 3))
    entry = st.sampled_from([None, b"a", b"b", b"c"])
    vector = st.none() | st.lists(entry, min_size=n, max_size=n).map(tuple)
    return n, t, draw(st.lists(vector, max_size=n))


@settings(max_examples=400, deadline=None)
@given(tally_cases())
# Two values tied at t + 1 votes: the larger one is graded 1, whichever comes first.
@example((4, 1, [(b"a",) * 4, (b"a",) * 4, (b"b",) * 4, (b"b",) * 4]))
def test_column_kernel_matches_the_tally_oracle(case):
    n, t, vectors = case
    assert compute_candidates(n, t, vectors) == oracles.candidates_by_tally(n, t, vectors)
    assert grade_votes(n, t, vectors) == oracles.grades_by_tally(n, t, vectors)


def _registry(name, n, t):
    return REGISTRY[name](AdversaryContext(
        machine=lambda v: gradecast_all(n, t, v),
        lo_input=b"lo",
        hi_input=b"hi",
        planned_rounds=3,
    ))


# Registry shadows replay the corrupted party's one real inbox, so their
# echo and vote frames are single-faced: the honest vote frames and vote
# inboxes agree.  The script gives six honest parties "v" and its own echo
# of "v" (the seventh, n - t) to parties 1..6 only, so only they vote "v";
# its own vote of "v" (again the seventh) reaches parties 1..3 only, so only
# they grade it 2.
@pytest.mark.parametrize("make, vote_frames", [
    (lambda n, t: _registry("equivocator", n, t), 1),
    (lambda n, t: _registry("split-world", n, t), 1),
    (lambda n, t: InstanceScript(n, n, {q: b"v" if q <= 6 else b"w" for q in range(1, n)},
                                 {q: b"v" if q <= 6 else None for q in range(1, n)},
                                 {q: b"v" if q <= 3 else None for q in range(1, n)}), 2),
], ids=["equivocator", "split-world", "script"])
def test_shared_replies_never_merge_distinct_inboxes(make, vote_frames):
    # Every honest frame and output equals what the party computes alone
    # from its own inbox, while the two camps' inboxes really differ.
    n, t = 10, 3
    outputs, transcript = gradecast_once(n, t, values_for(n), make(n, t), seed=1)
    inboxes = replay_transcript(transcript)
    sent = {(e.round, e.sender): e.payload for e in transcript.envelopes if e.sender in outputs}
    for pid in outputs:  # outside a run nothing is memoised
        echoes = received_vectors(n, inboxes[2][pid], TAG_ECHO)
        assert sent[2, pid] == frame(TAG_ECHO, encode_vector(received_values(inboxes[1][pid])))
        assert sent[3, pid] == frame(TAG_VOTE, encode_vector(compute_candidates(n, t, echoes)))
        assert outputs[pid] == grade_votes(n, t, received_vectors(n, inboxes[3][pid], TAG_VOTE))
    assert len({sent[2, pid] for pid in outputs}) == 2
    assert len({sent[3, pid] for pid in outputs}) == vote_frames
    assert len({inboxes[3][pid] for pid in outputs}) == vote_frames
    assert len({tuple(outputs[pid].values()) for pid in outputs}) == vote_frames


class DuplicateValueFrame(Adversary):
    """Party 4 sends "v" to everyone in round 1, but party 1 gets "w" first.

    It is silent afterwards.  If party 1 kept the later "v", all three honest
    parties would echo "v" (n - t = 3 echoes) and grade it 2; with the first
    payload kept, instance 4 has no candidate and grades 0 everywhere.
    """

    def corrupt_decision(self, round, view):
        return {4}

    def byzantine_send(self, round, pid, view):
        if round != 1:
            return []
        first = [(1, frame(TAG_VALUE, b"w"))]
        return first + [(q, frame(TAG_VALUE, b"v")) for q in range(1, 5)]


def test_duplicate_value_frame_first_one_counts():
    n, t = 4, 1
    outputs, transcript = gradecast_once(n, t, values_for(n), DuplicateValueFrame())
    to_one = [e.payload for e in transcript.envelopes if e.sender == 4 and e.receiver == 1]
    assert to_one == [frame(TAG_VALUE, b"w"), frame(TAG_VALUE, b"v")]
    inboxes = replay_transcript(transcript)
    assert inboxes[1][1][3] == frame(TAG_VALUE, b"w")
    sent = {(e.round, e.sender): e.payload for e in transcript.envelopes if e.sender in outputs}
    for pid in outputs:  # outside a run nothing is memoised
        echoes = received_vectors(n, inboxes[2][pid], TAG_ECHO)
        assert sent[2, pid] == frame(TAG_ECHO, encode_vector(received_values(inboxes[1][pid])))
        assert sent[3, pid] == frame(TAG_VOTE, encode_vector(compute_candidates(n, t, echoes)))
        assert outputs[pid] == grade_votes(n, t, received_vectors(n, inboxes[3][pid], TAG_VOTE))
    assert received_values(inboxes[1][1])[3] == b"w"
    assert all(outputs[pid][4] == GradedValue(None, 0) for pid in outputs)
    check_consistency(outputs, n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_recorded_decode_equals_the_decoders_output(data):
    # An honest encoder records what its frame decodes to; every entry of
    # the run memo must be what the decoder gives for the same bytes, also
    # when the body is over a lowered _MAX_BODY (the frame decodes to None).
    n = data.draw(st.integers(1, 16), label="n")
    entries = data.draw(st.lists(st.none() | st.binary(max_size=8), min_size=n, max_size=n))
    limit = data.draw(st.just(wire._MAX_BODY) | st.integers(0, 64), label="limit")
    memo: dict = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wire, "_MAX_BODY", limit)
        token = simnet._RUN_MEMO.set(memo)
        try:
            values = tuple(None if e is None else gradecast._value_outbox(n, e)[0][1]
                           for e in entries)
            echo = gradecast._echo_outbox(n, values)[0][1]
            gradecast._vote_outbox(n, (n - 1) // 3, (echo,) * n)
            for tag in (TAG_ECHO, TAG_VOTE):
                gradecast._vector_outbox(n, tag, entries)
        finally:
            simnet._RUN_MEMO.reset(token)
        for payload, body in memo.get("body", {}).items():
            assert body == received_values((payload,))[0]  # outside a run: parse_frame
        for (m, tag, payload), vector in memo.get("vector", {}).items():
            assert vector == received_vectors(m, (payload,), tag)[0]
    first = {}  # recorded, not decoded: the encoder's own objects, the first of equals
    for e in entries:
        first.setdefault(e, e)
        if e is not None and len(e) <= limit:
            assert memo["body"][frame(TAG_VALUE, e)] is first[e]
    body = encode_vector(entries)
    if len(body) <= limit:
        for tag in (TAG_ECHO, TAG_VOTE):
            recorded = memo["vector"][n, tag, frame(tag, body)]
            assert all(a is first[b] for a, b in zip(recorded, entries, strict=True))


def _spied_run(monkeypatch, tree, n, t, inputs, adversary=None):
    """run_final_tree_aa with every gradecast invocation and vector decode
    seen: (outputs, transcript, {pid: values sent}, {pid: grades}, bodies
    decoded, vote inboxes read), the k-th entry of a pid's lists from its
    k-th invocation."""
    sent, graded, decoded, read, mark = {}, {}, [], {}, [None]
    real_gradecast, real_decode = gradecast.gradecast_all, gradecast.decode_vector
    real_received, real_run = gradecast.received_vectors, simnet.run_simulation

    def spy(n, t, value):
        pid = mark[0]  # the party being stepped
        sent.setdefault(pid, []).append(value)
        grades = yield from real_gradecast(n, t, value)
        graded.setdefault(pid, []).append(grades)
        return grades

    def marked_run(n, t, machines, *args, **kwargs):
        return real_run(n, t, [marked(pid, machines, mark) for pid in range(1, n + 1)],
                        *args, **kwargs)

    def received(n, inbox, tag):
        vectors = real_received(n, inbox, tag)
        if tag == TAG_VOTE:
            read[inbox] = vectors
        return vectors

    for module in (paths, real_aa):
        monkeypatch.setattr(module, "gradecast_all", spy)
    monkeypatch.setattr(simnet, "run_simulation", marked_run)
    monkeypatch.setattr(gradecast, "received_vectors", received)
    monkeypatch.setattr(gradecast, "decode_vector",
                        lambda body, n: decoded.append(body) or real_decode(body, n))
    outputs, tr, _ = run_final_tree_aa(tree, n, t, inputs, adversary)
    return outputs, tr, sent, graded, decoded, read


class ReplaysAnEcho(Adversary):
    """Party 7, silent but in the prefix finder's vote round: there it
    replays party 1's echo frame to parties 1-3 and sends a fresh vote
    frame to parties 4-7."""

    def __init__(self, fresh: bytes):
        self.fresh = fresh

    def corrupt_decision(self, round, view):
        return {7}

    def byzantine_send(self, round, pid, view):
        if round != 3:
            return ()
        replay = view.inbox_of(1, 2)[0]
        return [(q, replay if q <= 3 else self.fresh) for q in range(1, 8)]


def test_honest_frames_are_never_decoded_and_grades_hold_the_senders_bytes(monkeypatch):
    n, t = 7, 2
    tree, _ = resolve_tree("path:40")
    labels = sorted(tree.vertices)
    inputs = {pid: labels[(11 * pid) % len(labels)] for pid in range(1, n + 1)}
    outputs, tr, sent, graded, decoded, _ = _spied_run(monkeypatch, tree, n, t, inputs)
    assert len(outputs) == n and decoded == []
    assert len(sent[1]) == tr.rounds_used // 3 >= 2
    for pid in range(1, n + 1):
        assert sent[pid][0] == paths.root_path_bytes(tree, inputs[pid])
        for s, (value, grade) in graded[pid][0].items():
            assert grade == 2 and value is sent[s][0]  # the sender's own-path bytes
        for k in range(1, len(sent[1])):  # real-AA: equal doubles share one sender's bytes,
            for s, (value, grade) in graded[pid][k].items():  # perhaps of an earlier iteration
                assert grade == 2 and value == sent[s][k]
                assert any(value is v for r in sent for v in sent[r][:k + 1])

    # Party 7 replays an echo frame as a vote, and sends one fresh vote frame.
    fresh = frame(TAG_VOTE, encode_vector([paths.root_path_bytes(tree, labels[0])] * n))
    outputs, tr, sent, graded, decoded, read = _spied_run(
        monkeypatch, tree, n, t, inputs, ReplaysAnEcho(fresh))
    assert sorted(outputs) == [1, 2, 3, 4, 5, 6]
    assert decoded == [fresh[5:]]  # once in the run, not once per receiver
    inboxes = replay_transcript(tr)
    for pid in outputs:
        assert inboxes[3][pid][6] == (inboxes[2][1][0] if pid <= 3 else fresh)
        assert (read[inboxes[3][pid]][6] is None) == (pid <= 3)  # the replay is absent
        for k, grades in enumerate(graded[pid]):
            vectors = []  # decoded outside a run, by the codec alone
            for payload in inboxes[3 * k + 3][pid]:
                parsed = None if payload is None else wire.parse_frame(payload)
                ok = parsed is not None and parsed[0] == TAG_VOTE
                vectors.append(wire.decode_vector(parsed[1], n) if ok else None)
            assert grades == oracles.grades_by_tally(n, t, vectors)

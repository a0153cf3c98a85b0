import re
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import from_jsonl_by_regex, to_jsonl_by_json
from treeaa.errors import (
    CorruptTranscript,
    InvalidParams,
    NonTermination,
    ProtocolViolation,
    StrategyViolation,
)
from treeaa.gradecast import gradecast_all
from treeaa.simnet import (
    Adversary,
    Envelope,
    Transcript,
    broadcast,
    replay_transcript,
    run_machines,
    run_memo,
    run_simulation,
)


def echo_program(n, pid):
    """Round 1: broadcast a tag.  Then output the inbox received."""
    inbox = yield broadcast(n, b"hello-%d" % pid)
    return inbox


def echo_run(n=3, adversary=None, seed=0):
    return run_simulation(n, 0 if adversary is None else 1,
                          [echo_program(n, pid) for pid in range(1, n + 1)],
                          adversary, seed)


def test_echo_delivers_all_payloads_next_round():
    outputs, transcript = echo_run()
    expected = (b"hello-1", b"hello-2", b"hello-3")
    assert outputs == {1: expected, 2: expected, 3: expected}
    assert transcript.rounds_used == 1
    assert len(transcript.envelopes) == 9


def test_same_seed_reproduces_transcript():
    _, tr1 = echo_run(seed=7)
    _, tr2 = echo_run(seed=7)
    assert tr1.envelopes == tr2.envelopes
    assert tr1.events == tr2.events
    assert tr1.to_jsonl() == tr2.to_jsonl()


class OverBudget(Adversary):
    def corrupt_decision(self, round, view):
        return set(range(1, self.t + 2))


def test_corrupting_t_plus_one_is_violation():
    with pytest.raises(StrategyViolation):
        echo_run(n=4, adversary=OverBudget())


class UnCorrupt(Adversary):
    def corrupt_decision(self, round, view):
        return {1} if round == 1 else {2}


def never_ends():
    while True:
        yield ()


def test_uncorrupting_is_violation():
    machines = [never_ends(), never_ends(), never_ends(), never_ends()]
    with pytest.raises(StrategyViolation):
        run_simulation(4, 1, machines, UnCorrupt())


def sends_once_to(receiver):
    yield [(receiver, b"x")]
    return "done"


class ByzantineSendsTo(Adversary):
    def __init__(self, receiver):
        self.receiver = receiver

    def corrupt_decision(self, round, view):
        return {1}

    def byzantine_send(self, round, pid, view):
        return [(self.receiver, b"x")]


# True and 2.0 compare as party ids 1 and 2 but would be written as true and 2.0.
@pytest.mark.parametrize("receiver", [True, 2.0, "2", None, 0, 4])
def test_honest_receiver_must_be_an_int_party_id(receiver):
    with pytest.raises(ProtocolViolation):
        run_simulation(3, 0, [sends_once_to(receiver) for _ in range(3)])


@pytest.mark.parametrize("receiver", [True, 2.0, "2", None, 0, 5])
def test_byzantine_receiver_must_be_an_int_party_id(receiver):
    with pytest.raises(StrategyViolation):
        echo_run(n=4, adversary=ByzantineSendsTo(receiver))


def test_round_cap_turns_liveness_bug_into_error():
    machines = [never_ends(), never_ends()]
    with pytest.raises(NonTermination):
        run_simulation(2, 0, machines, round_cap=25)


def test_param_validation():
    with pytest.raises(InvalidParams):
        run_simulation(2, 2, [never_ends(), never_ends()])
    with pytest.raises(InvalidParams):
        run_simulation(3, 0, [never_ends()])


class SilentOne(Adversary):
    def corrupt_decision(self, round, view):
        return {1}


def test_corrupted_party_messages_are_suppressed():
    outputs, transcript = echo_run(n=4, adversary=SilentOne())
    assert set(outputs) == {2, 3, 4}
    expected = (None, b"hello-2", b"hello-3", b"hello-4")
    assert all(out == expected for out in outputs.values())
    assert ("corrupt", 1, 1) in transcript.events
    assert all(env.sender != 1 for env in transcript.envelopes)


class GeneratorEcho:
    @staticmethod
    def machine(n, pid):
        inbox = yield broadcast(n, b"gen-%d" % pid)
        return inbox


def test_generator_program_adapter():
    n = 3
    outputs, transcript = run_machines(n, 0, lambda pid: GeneratorEcho.machine(n, pid))
    assert transcript.rounds_used == 1
    assert outputs[2] == (b"gen-1", b"gen-2", b"gen-3")


def test_instant_output_takes_zero_rounds():
    def instant():
        return 42
        yield  # pragma: no cover

    outputs, transcript = run_machines(3, 0, lambda pid: instant())
    assert outputs == {1: 42, 2: 42, 3: 42}
    assert transcript.rounds_used == 0
    assert transcript.envelopes == []


def test_generator_returning_none_finishes():
    def returns_none(n):
        yield broadcast(n, b"x")
        return None

    outputs, transcript = run_machines(4, 1, lambda pid: returns_none(4), round_cap=50)
    assert outputs == {1: None, 2: None, 3: None, 4: None}
    assert transcript.rounds_used == 1


class TestRunMemo:
    def test_outside_a_run_there_is_none(self):
        assert run_memo("any") is None

    def test_one_memo_per_run_dropped_on_return(self):
        seen = []

        def machine():
            seen.append(run_memo("t"))
            run_memo("t")["k"] = "v"
            yield []
            seen.append(run_memo("t"))
            return None

        run_machines(2, 0, lambda pid: machine())
        assert seen[0] is seen[1] is seen[2] is seen[3]
        assert seen[0] == {"k": "v"}
        assert run_memo("t") is None
        run_machines(2, 0, lambda pid: machine())
        assert seen[4] is not seen[0]

    def test_dropped_when_the_run_raises(self):
        def touches():
            for round in count(1):
                run_memo("t")[round] = round
                yield ()

        with pytest.raises(NonTermination):
            run_simulation(2, 0, [touches(), touches()], round_cap=5)
        assert run_memo("t") is None

    def test_nested_run_has_its_own_memo(self):
        inner_seen = []

        def inner():
            inner_seen.append(dict(run_memo("t")))
            run_memo("t")["who"] = "inner"
            return "inner-done"
            yield  # pragma: no cover

        def outer():
            run_memo("t")["who"] = "outer"
            outputs, _ = run_machines(1, 0, lambda pid: inner())
            yield []
            return outputs[1], run_memo("t")["who"]

        outputs, _ = run_machines(1, 0, lambda pid: outer())
        assert outputs == {1: ("inner-done", "outer")}
        assert inner_seen == [{}]


class TestTranscript:
    def test_replay_reconstructs_inboxes(self):
        _, tr = echo_run()
        inboxes = replay_transcript(tr)
        assert set(inboxes) == {1}
        assert inboxes[1][2] == (b"hello-1", b"hello-2", b"hello-3")

    def test_replay_three_round_run(self):
        _, tr = run_machines(4, 1, lambda pid: gradecast_all(4, 1, pid, b"x"))
        inboxes = replay_transcript(tr)
        assert set(inboxes) == {1, 2, 3}
        for rnd in inboxes:
            for pid in range(1, 5):
                assert len(inboxes[rnd][pid]) == 4
                assert None not in inboxes[rnd][pid]

    def test_replay_empty(self):
        tr = Transcript(3, 0, 0)
        assert replay_transcript(tr) == {}

    def test_tampered_round_index(self):
        _, tr = echo_run()
        envelopes = tr.envelopes
        env = envelopes[4]
        envelopes[4] = Envelope(99, env.sender, env.receiver, env.payload)
        bad = Transcript.from_envelopes(tr.n, tr.t, tr.seed, envelopes, tr.rounds_used)
        with pytest.raises(CorruptTranscript):
            replay_transcript(bad)

    def test_tampered_party_id(self):
        _, tr = echo_run()
        envelopes = tr.envelopes
        env = envelopes[0]
        envelopes[0] = Envelope(env.round, 17, env.receiver, env.payload)
        bad = Transcript.from_envelopes(tr.n, tr.t, tr.seed, envelopes, tr.rounds_used)
        with pytest.raises(CorruptTranscript):
            replay_transcript(bad)

    def test_jsonl_roundtrip(self):
        _, tr = echo_run()
        text = tr.to_jsonl()
        back = Transcript.from_jsonl(text, n=tr.n)
        assert back.envelopes == tr.envelopes
        assert back.rounds_used == tr.rounds_used

    def test_jsonl_rejects_garbage(self):
        with pytest.raises(CorruptTranscript):
            Transcript.from_jsonl('{"round": 1}\n')

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Envelope, st.integers(0, 10**6), st.integers(0, 10**6),
                              st.integers(0, 10**6), st.binary(max_size=300)), max_size=20))
    @example([])
    def test_jsonl_matches_json_oracle_and_round_trips(self, envelopes):
        text = Transcript.from_envelopes(3, 0, 0, envelopes).to_jsonl()
        assert text == to_jsonl_by_json(envelopes)
        back = Transcript.from_jsonl(text)
        assert back.envelopes == envelopes
        assert back.to_jsonl() == text
        assert back.rounds_used == max((e.round for e in envelopes), default=0)
        assert back.n == max((max(e.sender, e.receiver) for e in envelopes), default=0)

    CANONICAL = '{"round":1,"sender":2,"receiver":3,"payload_hex":"0aff"}\n'

    @pytest.mark.parametrize("text", [
        '{"round": 1, "sender": 2, "receiver": 3, "payload_hex": "0aff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0aff"} \n',
        '{"sender":2,"round":1,"receiver":3,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0AFF"}\n',
        CANONICAL + "\n" + CANONICAL,
        "\n" + CANONICAL,
        "\n",
        CANONICAL + CANONICAL[:-1],
        CANONICAL[:-1] + "\r\n",
        '{"round":01,"sender":2,"receiver":3,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0af"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"\\u0030aff"}\n',
        '{"\\u0072ound":1,"sender":2,"receiver":3,"payload_hex":"0aff"}\n',
        '{"round":\u0661,"sender":2,"receiver":3,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":\uff12,"receiver":3,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":2,"receiver":-3,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":2,"receiver":true,"payload_hex":"0aff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0a ff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0aff","x":0}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"ab cd"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0aFf"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0a\\"ff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0a\nff"}\n',
        '{"round":1,"sender":2,"receiver":3,"payload_hex":"0a\tff"}\n',
    ])
    def test_jsonl_refuses_non_canonical_lines(self, text):
        assert Transcript.from_jsonl(self.CANONICAL).envelopes == [Envelope(1, 2, 3, b"\n\xff")]
        with pytest.raises(CorruptTranscript):
            Transcript.from_jsonl(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text("0af9AF \t\n\\\"", max_size=8))
    def test_jsonl_accepts_exactly_even_lowercase_hex(self, hexed):
        text = self.CANONICAL.replace("0aff", hexed)
        if re.fullmatch("(?:[0-9a-f]{2})*", hexed):
            assert Transcript.from_jsonl(text).envelopes == [Envelope(1, 2, 3, bytes.fromhex(hexed))]
        else:
            with pytest.raises(CorruptTranscript):
                Transcript.from_jsonl(text)

    def test_jsonl_error_names_the_first_bad_line(self):
        text = self.CANONICAL * 2 + self.CANONICAL.upper() + self.CANONICAL[:-1]
        with pytest.raises(CorruptTranscript, match="line 3"):
            Transcript.from_jsonl(text)

    MUTATIONS = ("none", "shorter", "longer", "upper", "space", "escaped-quote", "no-newline")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_jsonl_reader_matches_the_regex_reader(self, data):
        # A small pool makes equal payloads meet both on adjacent lines and apart.
        pool = data.draw(st.lists(st.binary(max_size=4), min_size=1, max_size=3, unique=True))
        small = st.integers(0, 3)
        envelopes = data.draw(st.lists(
            st.builds(Envelope, small, small, small, st.sampled_from(pool)), max_size=12))
        lines = Transcript.from_envelopes(3, 0, 0, envelopes).to_jsonl().splitlines(keepends=True)
        mutation = data.draw(st.sampled_from(self.MUTATIONS))
        if lines and mutation != "none":
            i = data.draw(st.integers(0, len(lines) - 1))
            head, key, hexed = lines[i].partition('"payload_hex":"')
            hexed = hexed[:-len('"}\n')]
            at = data.draw(st.integers(0, len(hexed)))
            hexed = hexed[:at] + {
                "shorter": hexed[at + 2:],
                "longer": "0a" + hexed[at:],
                "upper": hexed[at:at + 1].upper() + hexed[at + 1:],
                "space": " " + hexed[at:],
                "escaped-quote": '\\"' + hexed[at:],
                "no-newline": hexed[at:],
            }[mutation]
            lines[i] = head + key + hexed + ('"}' if mutation == "no-newline" else '"}\n')
        text = "".join(lines)

        def outcome(read):
            try:
                return read(text)
            except CorruptTranscript as exc:
                return str(exc)

        got = outcome(lambda text: Transcript.from_jsonl(text).envelopes)
        assert got == outcome(from_jsonl_by_regex)
        if isinstance(got, list):  # read-back envelopes share one object per payload
            assert len({id(e.payload) for e in got}) == len({e.payload for e in got})

    def test_a_sender_split_over_two_runs_of_lines_round_trips(self):
        envelopes = [Envelope(1, 2, 1, b"a"), Envelope(1, 2, 2, b"a"), Envelope(1, 3, 1, b"b"),
                     Envelope(1, 2, 3, b"c"), Envelope(1, 2, 1, b"d")]
        text = to_jsonl_by_json(envelopes)
        back = Transcript.from_jsonl(text)
        assert [(r, s, len(pairs)) for r, s, pairs in back.records] == [(1, 2, 2), (1, 3, 1), (1, 2, 2)]
        assert back.to_jsonl() == text
        assert back.envelopes == envelopes
        assert Transcript.from_envelopes(3, 0, 0, envelopes, 1).to_jsonl() == text
        # The first payload per sender wins across both runs.
        assert replay_transcript(back)[1] == {1: (None, b"a", b"b"), 2: (None, b"a", None),
                                              3: (None, b"c", None)}

    def test_jsonl_stable_field_order(self):
        _, tr = echo_run()
        line = tr.to_jsonl().splitlines()[0]
        assert line.index('"round"') < line.index('"sender"')
        assert line.index('"sender"') < line.index('"receiver"')
        assert line.index('"receiver"') < line.index('"payload_hex"')


def recording_echo(n, pid, inboxes):
    """Broadcasts in rounds 1 and 2; records in inboxes[k] what it was resumed with in round k."""
    inboxes[2] = yield broadcast(n, b"r1-%d" % pid)
    inboxes[3] = yield broadcast(n, b"r2-%d" % pid)
    return "done"


def check_inbox_of_against_a_scan(n, t):
    """Run gradecast with the last t parties corrupted from round 2, checking
    every inbox_of answer against a scan of the transcript's envelopes at
    each adversary hook; returns (checked rounds, party 1's current-round
    inbox as each byzantine_send saw it)."""
    checked, seen = [], []

    class Checker(Adversary):
        def check(self, view, round):
            sent = view._sim.transcript.envelopes
            for rnd in range(round + 2):
                for pid in range(n + 2):
                    scan = [None] * n  # the first payload per sender
                    for e in sent:
                        if e.round == rnd and e.receiver == pid and scan[e.sender - 1] is None:
                            scan[e.sender - 1] = e.payload
                    assert view.inbox_of(pid, rnd) == tuple(scan)
            checked.append(round)

        def corrupt_decision(self, round, view):
            self.check(view, round)
            return set(range(n - t + 1, n + 1)) if round >= 2 else set()

        def byzantine_send(self, round, pid, view):
            # The current round: honest messages, then what the corrupted
            # parties before pid sent.
            self.check(view, round)
            seen.append((round, pid, view.inbox_of(1, round)))
            return [(q, b"byz-%d-%d" % (pid, q)) for q in range(1, n + 1)]

    _, tr = run_machines(n, t, lambda pid: gradecast_all(n, t, pid, b"v%d" % pid), Checker())
    assert tr.rounds_used == 3
    return checked, seen


def test_inbox_of_equals_a_scan_of_the_round():
    checked, _ = check_inbox_of_against_a_scan(4, 1)
    assert checked == [1, 2, 2, 3, 3]


def test_inbox_of_shows_earlier_corrupted_parties_sends_of_the_round():
    checked, seen = check_inbox_of_against_a_scan(7, 2)
    assert checked == [1, 2, 2, 2, 3, 3, 3]
    assert [(rnd, pid) for rnd, pid, _ in seen] == [(2, 6), (2, 7), (3, 6), (3, 7)]
    for rnd, pid, inbox in seen:
        assert None not in inbox[:5]  # the honest parties' sends
        assert inbox[5:] == ((None, None) if pid == 6 else (b"byz-6-1", None))


def test_a_byzantine_bytearray_payload_is_recorded_as_bytes():
    buf = bytearray(b"x")

    class SendsBuffer(Adversary):
        def corrupt_decision(self, round, view):
            return {1}

        def byzantine_send(self, round, pid, view):
            return ((2, buf),) if round == 1 else ()

    _, tr = echo_run(adversary=SendsBuffer())
    buf[:] = b"y"  # after the run: the record holds its own copy
    (env,) = [e for e in tr.envelopes if e.sender == 1]
    assert (env.round, env.receiver, env.payload) == (1, 2, b"x")
    assert type(env.round) is int and type(env.sender) is int and type(env.payload) is bytes
    assert '{"round":1,"sender":1,"receiver":2,"payload_hex":"78"}\n' in tr.to_jsonl()


class SendsPayload(Adversary):
    def __init__(self, payload):
        self.payload = payload

    def corrupt_decision(self, round, view):
        return {1}

    def byzantine_send(self, round, pid, view):
        return [(2, self.payload)]


@pytest.mark.parametrize("payload", [7, "ab", None, [1, 2]])
def test_a_payload_that_is_not_bytes_is_a_violation_naming_its_party(payload):
    with pytest.raises(ProtocolViolation, match=r"^party 2 sent a payload of type"):
        run_simulation(3, 0, [never_ends(), (o for o in [[(1, payload)]]), never_ends()])
    with pytest.raises(StrategyViolation, match=r"^party 1 sent a payload of type"):
        echo_run(adversary=SendsPayload(payload))


def test_a_corrupted_party_can_send_an_honest_outbox_unchanged():
    # Party 3 relays party 2's round-1 broadcast, the very tuple: it is
    # recorded under pid 3 without a copy and delivered as party 3's column.
    n = 3
    honest = broadcast(n, b"honest")
    machines = [echo_program(n, 1), (o for o in [honest]), never_ends()]

    class Relay(Adversary):
        def corrupt_decision(self, round, view):
            return {3}

        def byzantine_send(self, round, pid, view):
            return honest if round == 1 else ()

    outputs, tr = run_simulation(n, 1, machines, Relay())
    assert [(r, s) for r, s, _ in tr.records] == [(1, 1), (1, 2), (1, 3)]
    assert tr.records[1].pairs is honest and tr.records[2].pairs is honest
    assert outputs[1] == (b"hello-1", b"honest", b"honest")
    assert replay_transcript(tr)[1][1] == outputs[1]


def test_replay_matches_live_inboxes():
    n = 3
    live = {pid: {} for pid in range(1, n + 1)}
    _, tr = run_simulation(n, 0, [recording_echo(n, pid, live[pid]) for pid in range(1, n + 1)])
    assert tr.rounds_used == 2
    replayed = replay_transcript(tr)
    for pid in range(1, n + 1):
        for rnd in (1, 2):
            # round rnd+1 resumed the party with what was sent in round rnd
            assert live[pid][rnd + 1] == tuple(b"r%d-%d" % (rnd, s) for s in range(1, n + 1))
            assert replayed[rnd][pid] == live[pid][rnd + 1]


def test_events_reproduce_with_seed():
    from treeaa import generate_tree, run_final_tree_aa
    from treeaa.adversaries import REGISTRY
    from test_tree_aa import tree_ctx

    tree = generate_tree("random", 30, seed=3)
    inputs = {pid: sorted(tree.vertices)[pid] for pid in range(1, 5)}
    runs = []
    for _ in range(2):
        adv = REGISTRY["adaptive-late"](tree_ctx(tree, 4, 1, "final"))
        _, tr, _ = run_final_tree_aa(tree, 4, 1, inputs, adv, seed=11)
        runs.append(tr)
    assert runs[0].envelopes == runs[1].envelopes
    assert runs[0].events == runs[1].events


def test_first_payload_per_sender_wins():
    # Party 4 sends party 1 two different payloads in round 1: the transcript
    # keeps both lines in order, and every view of party 1's inbox holds
    # only the first.
    n, t = 4, 1
    seen = []

    class SendsTwice(Adversary):
        def corrupt_decision(self, round, view):
            if round == 2:
                seen.append(view.inbox_of(1, 1))
            return {4}

        def byzantine_send(self, round, pid, view):
            if round != 1:
                return []
            return [(1, b"first"), (2, b"other"), (1, b"second")]

    live = {pid: {} for pid in range(1, n)}
    machines = [recording_echo(n, pid, live[pid]) for pid in range(1, n)] + [never_ends()]
    _, tr = run_simulation(n, t, machines, SendsTwice())
    assert [e for e in tr.envelopes if e.sender == 4] == [
        Envelope(1, 4, 1, b"first"), Envelope(1, 4, 2, b"other"), Envelope(1, 4, 1, b"second")]
    lines = tr.to_jsonl()
    assert lines.index(b"first".hex()) < lines.index(b"other".hex()) < lines.index(b"second".hex())
    expected = (b"r1-1", b"r1-2", b"r1-3", b"first")
    assert live[1][2] == expected
    assert seen == [expected]
    assert replay_transcript(tr)[1][1] == expected
    assert replay_transcript(Transcript.from_jsonl(lines, n=n))[1][1] == expected
    assert live[2][2] == (b"r1-1", b"r1-2", b"r1-3", b"other")


def never_ends_after(rounds):
    for _ in range(rounds):
        yield ()
    return None


def test_a_list_outbox_is_checked_and_copied_every_round():
    n = 2
    outbox = [(1, b"old"), (2, b"old")]

    def machine():
        inbox1 = yield outbox
        outbox[:] = [(1, b"new"), (2, b"new")]  # the same list object, new payloads
        inbox2 = yield outbox
        outbox[:] = [(1, b"late")]  # after round 2 was recorded
        return inbox1, inbox2

    outputs, tr = run_simulation(n, 0, [machine(), never_ends_after(1)])
    assert outputs[1] == ((b"old", None), (b"new", None))
    assert [(e.round, e.payload) for e in tr.envelopes if e.sender == 1] == [
        (1, b"old"), (1, b"old"), (2, b"new"), (2, b"new")]
    assert b"late".hex() not in tr.to_jsonl()


def test_a_tuple_outbox_holding_a_bytearray_is_copied_every_round():
    buf = bytearray(b"one")
    outbox = ((1, buf), (2, buf))

    def machine():
        inbox1 = yield outbox
        buf[:] = b"two"
        inbox2 = yield outbox
        buf[:] = b"three"
        return inbox1, inbox2

    outputs, tr = run_simulation(2, 0, [machine(), never_ends_after(1)])
    assert outputs[1] == ((b"one", None), (b"two", None))
    sent = [e for e in tr.envelopes if e.sender == 1]
    assert [(e.round, e.payload) for e in sent] == [(1, b"one"), (1, b"one"), (2, b"two"), (2, b"two")]
    assert all(type(e.payload) is bytes for e in sent)


def test_an_immutable_outbox_is_recorded_without_a_copy():
    n = 3
    shared = broadcast(n, b"x")
    _, tr = run_simulation(n, 0, [sends_once_to(1) if pid == 2 else (o for o in [shared])
                                  for pid in range(1, n + 1)])
    assert [(r, s) for r, s, _ in tr.records] == [(1, 1), (1, 2), (1, 3)]
    assert tr.records[0].pairs is shared and tr.records[2].pairs is shared
    assert tr.records[1].pairs == ((1, b"x"),)


@pytest.mark.parametrize("bad", [True, 0, 4, 1.0])
def test_invalid_receiver_after_an_equal_valid_outbox_names_its_party(bad):
    # ((True, b"x"),) and ((1.0, b"x"),) equal ((1, b"x"),) and hash alike: a
    # check cached by value instead of by object would let them through.
    outboxes = [((1, b"x"),), ((1, b"x"),), ((bad, b"x"),)]
    with pytest.raises(ProtocolViolation, match=r"^party 3 addressed invalid receiver"):
        run_simulation(3, 0, [(o for o in [outbox]) for outbox in outboxes])

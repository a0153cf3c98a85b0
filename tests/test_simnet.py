import re
import sys
import tracemalloc
from contextvars import ContextVar
from itertools import groupby
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import from_jsonl_by_regex, to_jsonl_by_json, transcript_from_envelopes
from treeaa.errors import (
    CorruptTranscript,
    InvalidParams,
    NonTermination,
    ProtocolViolation,
    StrategyViolation,
)
from treeaa import harness, simnet
from treeaa.gradecast import gradecast_all
from treeaa.simnet import (
    Adversary,
    Envelope,
    GeneratorProgram,
    Record,
    Transcript,
    broadcast,
    replay_transcript,
    memoised,
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


class Corrupts(Adversary):
    def __init__(self, requested):
        self.requested = requested

    def corrupt_decision(self, round, view):
        return self.requested


# As for receivers: True and 2.0 would be recorded as senders true and 2.0.
@pytest.mark.parametrize("requested", [{True}, {2.0}, {"2"}, None, {0}, {5}], ids=repr)
def test_corrupted_pid_must_be_an_int_party_id(requested):
    with pytest.raises(StrategyViolation):
        echo_run(n=4, adversary=Corrupts(requested))


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
    machines = [GeneratorEcho.machine(n, pid) for pid in range(1, n + 1)]
    outputs, transcript = run_simulation(n, 0, machines)
    assert transcript.rounds_used == 1
    assert outputs[2] == (b"gen-1", b"gen-2", b"gen-3")


def test_instant_output_takes_zero_rounds():
    def instant():
        return 42
        yield  # pragma: no cover

    outputs, transcript = run_simulation(3, 0, [instant() for _ in range(3)])
    assert outputs == {1: 42, 2: 42, 3: 42}
    assert transcript.rounds_used == 0
    assert transcript.envelopes == []


def test_generator_returning_none_finishes():
    def returns_none(n):
        yield broadcast(n, b"x")
        return None

    outputs, transcript = run_simulation(4, 1, [returns_none(4) for _ in range(4)], round_cap=50)
    assert outputs == {1: None, 2: None, 3: None, 4: None}
    assert transcript.rounds_used == 1


def test_no_exception_leaves_a_step_when_a_machine_returns(monkeypatch):
    # perfbench traces on_round and counts every exception leaving it as an error.
    step, raised = GeneratorProgram.on_round, []

    def traced(self, inbox):
        try:
            return step(self, inbox)
        except BaseException as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(GeneratorProgram, "on_round", traced)
    outputs, tr = echo_run()
    assert len(outputs) == 3 and tr.rounds_used == 1 and raised == []


def counting(value):
    """(compute, calls): compute returns ``value`` and records each call."""
    calls = []

    def compute():
        calls.append(value)
        return value

    return compute, calls


class TestRunMemo:
    """The run memo, seen through ``memoised`` and a count of computes."""

    def test_outside_a_run_there_is_none(self):
        compute, calls = counting("v")
        assert memoised("any", "k", compute) == memoised("any", "k", compute) == "v"
        assert len(calls) == 2

    def test_one_memo_per_run_dropped_on_return(self):
        compute, calls = counting("v")

        def machine():
            memoised("t", "k", compute)
            yield []
            memoised("t", "k", compute)
            return None

        run_simulation(2, 0, [machine(), machine()])
        assert len(calls) == 1  # two parties asked in two rounds
        memoised("t", "k", compute)
        assert len(calls) == 2
        run_simulation(2, 0, [machine(), machine()])
        assert len(calls) == 3

    def test_dropped_when_the_run_raises(self):
        compute, calls = counting("v")

        def touches():
            while True:
                memoised("t", "k", compute)
                yield ()

        with pytest.raises(NonTermination):
            run_simulation(2, 0, [touches(), touches()], round_cap=5)
        assert len(calls) == 1
        memoised("t", "k", compute)
        assert len(calls) == 2

    def test_every_value_is_immutable(self, monkeypatch, eight_vertex_tree):
        # Parties share memo values, so each must be hashable, or a read-only
        # view of hashable values.  A stand-in for the memo's ContextVar
        # keeps each run's memo for inspection after the run.
        var = ContextVar("kept_run_memo", default=None)
        kept = []

        class Keeping:
            def get(self):
                return var.get()

            def set(self, memo):
                kept.append(memo)
                return var.set(memo)

            def reset(self, token):
                var.reset(token)

        monkeypatch.setattr(simnet, "_RUN_MEMO", Keeping())
        inputs = {1: "v6", 2: "v8", 3: "v5", 4: "v1"}
        for mode in ("final", "legacy"):
            harness.run_one(eight_vertex_tree, "eight", 4, 1, mode, "split-world", inputs, 0)
        assert len(kept) == 2
        tables = [table for memo in kept for table in memo.values()]
        for table in tables:
            for value in table.values():
                hash(tuple(value.items()) if isinstance(value, MappingProxyType) else value)
        assert any(isinstance(v, MappingProxyType) for table in tables for v in table.values())

    def test_nested_run_has_its_own_memo(self):
        outer_compute, outer_calls = counting("outer")
        inner_compute, inner_calls = counting("inner")

        def inner():
            return memoised("t", "who", inner_compute)
            yield  # pragma: no cover

        def outer():
            memoised("t", "who", outer_compute)
            outputs, _ = run_simulation(1, 0, [inner()])
            yield []
            return outputs[1], memoised("t", "who", outer_compute)

        outputs, _ = run_simulation(1, 0, [outer()])
        assert outputs == {1: ("inner", "outer")}
        assert inner_calls == ["inner"] and outer_calls == ["outer"]


class TestTranscript:
    def test_replay_reconstructs_inboxes(self):
        _, tr = echo_run()
        inboxes = replay_transcript(tr)
        assert set(inboxes) == {1}
        assert inboxes[1][2] == (b"hello-1", b"hello-2", b"hello-3")

    def test_replay_three_round_run(self):
        _, tr = run_simulation(4, 1, [gradecast_all(4, 1, b"x") for _ in range(1, 5)])
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
        bad = transcript_from_envelopes(tr.n, tr.t, tr.seed, envelopes, tr.rounds_used)
        with pytest.raises(CorruptTranscript):
            replay_transcript(bad)

    def test_tampered_party_id(self):
        _, tr = echo_run()
        envelopes = tr.envelopes
        env = envelopes[0]
        envelopes[0] = Envelope(env.round, 17, env.receiver, env.payload)
        bad = transcript_from_envelopes(tr.n, tr.t, tr.seed, envelopes, tr.rounds_used)
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
        tr = transcript_from_envelopes(3, 0, 0, envelopes)
        text = tr.to_jsonl()
        assert text == to_jsonl_by_json(envelopes)
        # Records that share one pairs object in a row, as parties sharing an outbox send.
        shared = Transcript(3, 0, 0, [Record(r, s + k, pairs) for r, s, pairs in tr.records
                                      for k in (0, 1)])
        assert shared.to_jsonl() == to_jsonl_by_json(shared.envelopes)
        back = Transcript.from_jsonl(text)
        assert back.envelopes == envelopes
        assert back.to_jsonl() == text
        assert back.rounds_used == max((e.round for e in envelopes), default=0)
        assert back.n == max((max(e.sender, e.receiver) for e in envelopes), default=0)

    def test_the_writer_holds_one_hex_string_per_payload(self):
        # Ten rounds of 16-party broadcasts of one 64 KB payload, from two
        # senders whose outboxes are distinct objects: every line shares the
        # payload's one hex string, so the writer's peak is its result plus
        # about one hex string.  Two senders per round keep the text at 42 MB.
        n, payload = 16, bytes(range(256)) * 256
        outboxes = broadcast(n, payload), broadcast(n, payload)
        tr = Transcript(n, 0, 0, [Record(r, s, outboxes[s - 1]) for r in range(1, 11)
                                  for s in (1, 2)], [], 10)
        tracemalloc.start()
        try:
            text = tr.to_jsonl()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sys.getsizeof(text) + 3 * 2 * len(payload)
        assert text == to_jsonl_by_json(tr.envelopes)

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

    HEX_MUTATIONS = ("shorter", "longer", "upper", "space", "escaped-quote", "no-newline")
    LINE_MUTATIONS = ("drop", "duplicate", "swap")
    # Applied to a record that repeats an earlier record's pairs, when there is one.
    RECORD_MUTATIONS = ("receiver", "sender", "one-more", "one-less")

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_jsonl_reader_matches_the_regex_reader(self, data):
        # Small pools make equal payloads and equal outboxes meet both in a row and apart.
        pool = data.draw(st.lists(st.binary(max_size=4), min_size=1, max_size=3, unique=True))
        small = st.integers(0, 3)
        pair = st.tuples(small, st.sampled_from(pool))
        outboxes = data.draw(st.lists(st.lists(pair, min_size=1, max_size=4), min_size=1,
                                      max_size=3))
        sent = data.draw(st.lists(st.tuples(small, small, st.integers(0, len(outboxes) - 1)),
                                  max_size=8))
        lines = to_jsonl_by_json([Envelope(r, s, q, p) for r, s, k in sent
                                  for q, p in outboxes[k]]).splitlines(keepends=True)
        spans, at = [], 0  # each sent record's line range
        for _, _, k in sent:
            spans.append(range(at, at + len(outboxes[k])))
            at += len(outboxes[k])
        repeats = [span for i, span in enumerate(spans)
                   if any(k == sent[i][2] for _, _, k in sent[:i])]
        mutation = data.draw(st.sampled_from(
            ("none",) + self.HEX_MUTATIONS + self.LINE_MUTATIONS + self.RECORD_MUTATIONS))
        if lines and mutation in self.HEX_MUTATIONS:
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
        elif lines and mutation in self.LINE_MUTATIONS:
            i = data.draw(st.integers(0, len(lines) - 1))
            if mutation == "drop":
                del lines[i]
            elif mutation == "duplicate":
                lines.insert(i, lines[i])
            else:
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
        elif spans and mutation in self.RECORD_MUTATIONS:
            span = data.draw(st.sampled_from(repeats or spans))
            i = data.draw(st.sampled_from(span))
            if mutation in ("receiver", "sender"):
                lines[i] = re.sub(f'"{mutation}":[0-9]+', f'"{mutation}":{data.draw(small)}',
                                  lines[i])
            elif mutation == "one-more":
                q, p = data.draw(pair)
                head = lines[span[-1]].partition('"receiver":')[0]
                lines.insert(span[-1] + 1, f'{head}"receiver":{q},"payload_hex":"{p.hex()}"}}\n')
            else:
                del lines[i]
        text = "".join(lines)

        def outcome(read):
            try:
                return read(text)
            except CorruptTranscript as exc:
                return str(exc)

        got, expected = outcome(Transcript.from_jsonl), outcome(from_jsonl_by_regex)
        if isinstance(expected, str):
            assert got == expected
            return
        assert got.envelopes == expected
        assert [(r, s, list(pairs)) for r, s, pairs in got.records] == [
            (r, s, [(e.receiver, e.payload) for e in run])
            for (r, s), run in groupby(expected, key=lambda e: (e.round, e.sender))]
        # Read-back envelopes share one object per payload.
        assert len({id(e.payload) for e in got.envelopes}) == len({e.payload for e in expected})
        # A record equal to the last record that began with the same pair shares its pairs.
        last = {}
        for _, _, pairs in got.records:
            prior = last.get(pairs[0])
            assert prior is None or prior != pairs or prior is pairs
            last[pairs[0]] = pairs

    def test_a_sender_split_over_two_runs_of_lines_round_trips(self):
        envelopes = [Envelope(1, 2, 1, b"a"), Envelope(1, 2, 2, b"a"), Envelope(1, 3, 1, b"b"),
                     Envelope(1, 2, 3, b"c"), Envelope(1, 2, 1, b"d")]
        text = to_jsonl_by_json(envelopes)
        back = Transcript.from_jsonl(text)
        assert [(r, s, len(pairs)) for r, s, pairs in back.records] == [(1, 2, 2), (1, 3, 1), (1, 2, 2)]
        assert back.to_jsonl() == text
        assert back.envelopes == envelopes
        assert transcript_from_envelopes(3, 0, 0, envelopes, 1).to_jsonl() == text
        # The first payload per sender wins across both runs.
        assert replay_transcript(back)[1] == {1: (None, b"a", b"b"), 2: (None, b"a", None),
                                              3: (None, b"c", None)}

    def test_replay_merges_a_second_record_into_a_copy_of_a_shared_column(self):
        shared = ((1, b"a"),)
        tr = Transcript(3, 0, 0, [Record(1, 2, shared), Record(1, 3, shared),
                                  Record(1, 2, ((2, b"b"), (1, b"z")))], [], 1)
        assert replay_transcript(tr)[1] == {1: (None, b"a", b"a"), 2: (None, b"b", None),
                                            3: (None, None, None)}

    def test_replay_names_a_bad_receiver_in_a_later_pair(self):
        tr = Transcript(3, 0, 0, [Record(1, 2, ((1, b"a"), (9, b"b")))], [], 1)
        with pytest.raises(CorruptTranscript, match=re.escape(
                "Envelope(round=1, sender=2, receiver=9, payload=b'b')")):
            replay_transcript(tr)

    # Transcript is public, so a hand-built record can hold what the
    # simulator never records; each is refused, not delivered or crashed on.
    @pytest.mark.parametrize("record", [
        Record(1, 2, (("x", b"a"),)),
        Record(1, 2, ((1,),)),
        Record(1, 2, ((1, "str"),)),
        Record(1, 2, ((True, b"a"),)),
        Record(1, 2, 5),
        Record(True, 2, ((1, b"a"),)),
        Record(1, "2", ((1, b"a"),)),
    ])
    def test_replay_refuses_a_malformed_hand_built_record(self, record):
        with pytest.raises(CorruptTranscript):
            replay_transcript(Transcript(3, 0, 0, [record], [], 1))

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
            sent = view.transcript.envelopes
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

    machines = [gradecast_all(n, t, b"v%d" % pid) for pid in range(1, n + 1)]
    _, tr = run_simulation(n, t, machines, Checker())
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


def stepper(n, pid, rounds, got):
    """Broadcasts in rounds 1..rounds; got[pid, k] is its inbox from round k."""
    for k in range(1, rounds + 1):
        got[pid, k] = yield broadcast(n, b"%d-%d" % (k, pid))
    return "done"


def test_inbox_of_the_last_finished_round_is_the_row_delivered():
    n, rounds, got, checked = 4, 4, {}, []
    silent = (None,) * n

    class Reader(Adversary):
        def corrupt_decision(self, round, view):
            return {n}

        def byzantine_send(self, round, pid, view):
            last = round - 1
            for q in range(1, n if last else 1):  # resumed with these rows just before
                assert view.inbox_of(q, last) is got[q, last]
                assert view.inbox_of(q, 1) == got[q, 1]  # a late replay from round 1
            row = view.inbox_of(pid, last)
            assert row == view.inbox_of(pid, last) and len(row) == n
            for q in (0, n + 1):
                assert view.inbox_of(q, last) == silent
            assert view.inbox_of(1, 0) == view.inbox_of(1, round + 1) == silent
            checked.append(round)
            return broadcast(n, b"byz")

    machines = [stepper(n, pid, rounds, got) for pid in range(1, n + 1)]
    outputs, tr = run_simulation(n, 1, machines, Reader())
    assert checked == [1, 2, 3, 4] and tr.rounds_used == rounds
    assert outputs == {pid: "done" for pid in range(1, n)}
    assert all(got[q, k][n - 1] == b"byz" for q in range(1, n) for k in range(1, rounds + 1))


@pytest.mark.parametrize("later, match", [
    ({2}, "un-corrupted"),
    ({1, 2, 3}, "budget is 2"),
    ({1, 5}, "out of range"),
])
def test_a_corruption_set_that_changes_after_unchanged_rounds_is_checked(later, match):
    asked = []

    class Steady(Adversary):
        def corrupt_decision(self, round, view):
            asked.append(round)
            return {1} if round <= 3 else later

    with pytest.raises(StrategyViolation, match=match):
        run_simulation(4, 2, [never_ends() for _ in range(4)], Steady())
    assert asked == [1, 2, 3, 4]


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


class SendsOutbox(Adversary):
    def __init__(self, outbox):
        self.outbox = outbox

    def corrupt_decision(self, round, view):
        return {1}

    def byzantine_send(self, round, pid, view):
        return self.outbox


# Entries that are not (receiver, payload) pairs, and outboxes that cannot be iterated.
@pytest.mark.parametrize("outbox", [[(1,)], [1], [(1, b"x", 2)], None, 5])
def test_a_malformed_outbox_is_a_violation_naming_its_party(outbox):
    with pytest.raises(ProtocolViolation, match=r"^party 2 sent a malformed outbox") as honest:
        run_simulation(2, 0, [never_ends(), (o for o in [outbox])])
    with pytest.raises(StrategyViolation, match=r"^party 1 sent a malformed outbox") as corrupted:
        echo_run(adversary=SendsOutbox(outbox))
    for raised in (honest, corrupted):
        assert isinstance(raised.value.__cause__, (TypeError, ValueError))


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
    from treeaa.adversaries import REGISTRY, context_for_tree

    tree = generate_tree("random", 30, seed=3)
    inputs = {pid: sorted(tree.vertices)[pid] for pid in range(1, 5)}
    runs = []
    for _ in range(2):
        adv = REGISTRY["adaptive-late"](context_for_tree(tree, 4, 1, "final"))
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


# An honest broadcast passes the same check as any other outbox; each case
# below fails if an honest outbox is accepted without it.
def test_an_honest_broadcast_to_too_many_parties_names_the_receiver():
    n = 3
    with pytest.raises(ProtocolViolation, match=rf"^party 2 addressed invalid receiver {n + 1}$"):
        run_simulation(n, 0, [never_ends(), (o for o in [broadcast(n + 1, b"x")]), never_ends()])


def test_an_honest_broadcast_of_a_bytearray_is_recorded_as_bytes():
    n = 3
    buf = bytearray(b"x")
    outputs, tr = run_simulation(n, 0, [echo_program(n, 1), (o for o in [broadcast(n, buf)]),
                                        echo_program(n, 3)])
    buf[:] = b"y"  # after the run: the record and the deliveries hold their own copy
    sent = [e for e in tr.envelopes if e.sender == 2]
    assert [(e.receiver, e.payload) for e in sent] == [(1, b"x"), (2, b"x"), (3, b"x")]
    assert all(type(e.payload) is bytes for e in sent)
    assert type(outputs[1][1]) is bytes and outputs[1][1] == b"x"


@pytest.mark.parametrize("pairs, match", [
    (((1, b"x"), (5, b"x"), (3, b"x")), r"^party 1 addressed invalid receiver 5$"),
    (((1, "x"), (2, "x"), (3, "x")), r"^party 1 sent a payload of type str$"),
    (((1, b"x"), (2, "x"), (3, b"x")), r"^party 1 sent a payload of type str$"),
])
def test_a_forged_broadcast_from_a_corrupted_party_is_checked_in_full(pairs, match):
    forged = tuple.__new__(type(broadcast(3, b"x")), pairs)
    assert len(forged) == 3
    with pytest.raises(StrategyViolation, match=match):
        echo_run(adversary=SendsOutbox(forged))
    # The same outbox from honest party 1.
    with pytest.raises(ProtocolViolation, match=match):
        run_simulation(3, 0, [(o for o in [forged]), never_ends(), never_ends()])


def test_writing_to_the_view_changes_no_delivery():
    # The rushing adversary tries to overwrite party 1's record in the
    # view's transcript, then the delivered rows; every honest party still
    # receives what the returned transcript records.
    n = 4
    live = {pid: {} for pid in range(1, n)}

    class Writer(Adversary):
        def corrupt_decision(self, round, view):
            return {n}

        def byzantine_send(self, round, pid, view):
            view.transcript.records[0] = Record(1, 1, broadcast(n, b"forged"))
            view.delivered = ((b"forged",) * n,) * n
            return ()

    machines = [recording_echo(n, pid, live[pid]) for pid in range(1, n)] + [never_ends()]
    _, tr = run_simulation(n, 1, machines, Writer())
    replayed = replay_transcript(tr)
    assert tr.rounds_used == 2
    for pid in range(1, n):
        for rnd in (1, 2):
            assert live[pid][rnd + 1] == replayed[rnd][pid]
            assert live[pid][rnd + 1] == tuple(b"r%d-%d" % (rnd, s) for s in range(1, n)) + (None,)


def test_each_immutable_outbox_is_checked_once_per_run(monkeypatch):
    # Four parties, one corrupted, send one shared tuple in two rounds: one
    # check serves both call sites.  One shared list is checked at every send.
    n, calls, check = 4, [], simnet._check_outbox

    def counting(*args):
        calls.append(args[2])  # the outbox
        return check(*args)

    monkeypatch.setattr(simnet, "_check_outbox", counting)

    def sender(outbox):
        yield outbox
        yield outbox
        return "done"

    shared = tuple((q, b"x") for q in range(1, n + 1))
    outputs, tr = run_simulation(n, 1, [sender(shared) for _ in range(n)], SendsOutbox(shared))
    assert outputs == {2: "done", 3: "done", 4: "done"}
    assert len(tr.records) == 2 * n
    assert all(pairs is shared for _, _, pairs in tr.records)
    assert len(calls) == 1

    calls.clear()
    listed = list(shared)
    _, tr = run_simulation(n, 0, [sender(listed) for _ in range(n)])
    assert len(calls) == 2 * n and all(outbox is listed for outbox in calls)
    assert all(type(pairs) is tuple and pairs == shared for _, _, pairs in tr.records)

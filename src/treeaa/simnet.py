"""Deterministic lockstep simulator for synchronous round protocols.

Parties are numbered 1..n and exchange messages over authenticated
point-to-point channels: a message's sender always names its true origin,
and everything sent in round k is delivered exactly at the end of round k,
before round k+1 begins.

A party is a generator (``GeneratorProgram`` steps it).  It yields its
outbox, a sequence of (receiver, payload) pairs, and is resumed with its
inbox: an n-tuple indexed by sender whose entry s-1 is the first payload
sender s sent the party in the previous round, or None; later payloads
from the same sender in that round are recorded in the transcript but not
delivered.  A generator that returns, None included, has finished: the
value is its output, and it leaves the loop.

A transcript is stored as per-sender outbox records: one record (round,
sender, pairs) per sender that sent in a round, in sending order.
Everything else is derived from the records: the envelopes (one per pair),
the JSONL lines, the inboxes, the adversary's view
(``SimulationView.inbox_of``) and ``replay_transcript``.  Each record gives
its sender's column, the n-tuple of its first payload to each receiver;
a round's inboxes are its columns transposed.  The view reads a party's
entries from the records, which are kept in round order, by bisecting on
their round; it keeps only the last finished round's delivered rows.

Honest and corrupted parties send the same way: an outbox of (receiver,
payload) pairs, recorded under the round and the sender's own pid, so a
forged sender or round cannot be expressed.  Every outbox passes one check
(it is an iterable of (receiver, payload) pairs; receivers are int party
ids; a bytearray or memoryview payload is copied to bytes, any other
non-bytes payload is refused), raising ProtocolViolation for an honest
party and StrategyViolation for a corrupted one.  Every outbox is checked
once per distinct object per run (a mutable one at every send), and the
view holds no column, so writing to it changes no delivery.

Round structure.  In round k every party neither finished nor corrupted is
resumed with the inbox from round k-1 (None for k=1) and yields the
messages it sends in round k.  The adversary then picks additional parties
to corrupt (their round-k messages are suppressed, as if corrupted at the
start of the round) and finally, corrupted party by corrupted party in pid
order, returns each one's round-k outbox after seeing every honest round-k
message and those of the earlier corrupted parties (rushing).  A final
step in which all remaining honest parties report their outputs and send
nothing does not count as a communication round, so a 3-round protocol
consumes exactly 3 rounds.

Everything is a pure function of (n, t, machines, adversary, seed): one
simulation is strictly single-threaded, distinct simulations share nothing.
One run memoises decoding (``memoised``): honest parties receive
byte-identical broadcasts, so its machines and adversary shadows decode
each distinct input once and build the outbox answering each distinct
inbox once; gradecast's encoders record what their frames decode to, so
those are never decoded.  The memo is keyed by value and dropped when the
run ends; its values are shared, so they are immutable (an outbox is a
tuple, gradecast's grades a read-only ``MappingProxyType``).

A transcript file is one canonical JSON line per envelope, each ending in
a newline (``Transcript.to_jsonl``); the lines of one record share one
head.  ``from_jsonl`` accepts exactly those lines, groups consecutive lines
of one round and sender into one record, and raises CorruptTranscript on
anything else.  Broadcasts repeat each payload n times, so the writer
hexes and the reader decodes each distinct payload once; the lines of a
broadcast share one hex string, and read-back pairs with equal payloads
share one bytes object.  The writer formats each distinct outbox once.
The reader takes a record that repeats an earlier record's lines under its
own head in one compare, and repeated records share one pairs tuple;
``replay_transcript`` builds one column per distinct outbox.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, NamedTuple, Sequence

from .errors import (
    CorruptTranscript,
    InvalidParams,
    NonTermination,
    ProtocolViolation,
    StrategyViolation,
)

DEFAULT_ROUND_CAP = 10_000

# The memo of the run_simulation call on the stack, if any: {table: {key: value}}.
_RUN_MEMO: ContextVar[dict[str, dict] | None] = ContextVar("treeaa_run_memo", default=None)


# A memo miss; None is a real cached value (a decoder's verdict on bad bytes).
_MISS = object()


def memoised(table: str, key: Any, compute: Callable[..., Any], *args: Any) -> Any:
    """compute(*args), once per key in the running simulation; always outside
    one.  compute is called on a miss only, and a hit costs one probe of the
    table, so callers pass a function and its arguments, not a closure."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return compute(*args)
    cache = memo.get(table)
    if cache is None:
        cache = memo[table] = {}
    value = cache.get(key, _MISS)
    if value is _MISS:
        value = cache[key] = compute(*args)
    return value


# The head of one to_jsonl line, up to the payload's opening quote; [0-9],
# not \d, which also matches non-ASCII digits.  from_jsonl finds the closing
# quote and checks the hex itself, once per distinct hex string.
_HEAD = re.compile(
    r'\{"round":(0|[1-9][0-9]*),"sender":(0|[1-9][0-9]*),"receiver":(0|[1-9][0-9]*),'
    r'"payload_hex":"'
)


class Envelope(NamedTuple):
    round: int
    sender: int
    receiver: int
    payload: bytes


# What a party sends in one round: (receiver, payload) pairs, in order.
Outbox = Sequence[tuple[int, bytes]]


class Record(NamedTuple):
    """What one sender sent in one round: its (receiver, payload) pairs, in order."""

    round: int
    sender: int
    pairs: Outbox


# The NamedTuples' own __new__ is a Python function; the hot loops here and
# the per-party results of the other modules build through tuple.__new__
# directly, at about half the cost or less, with the same result.
_new = tuple.__new__

# Entry s-1 holds the first payload sender s sent this round, or None.
Inbox = tuple[bytes | None, ...]


@dataclass
class Transcript:
    """Full record of one simulation, replayable bit-exactly.

    ``records`` is the only stored form; ``envelopes`` and the JSONL lines
    are derived from it each time they are read.
    """

    n: int
    t: int
    seed: int
    records: list[Record] = field(default_factory=list)
    events: list[tuple[str, int, int]] = field(default_factory=list)
    rounds_used: int = 0

    @property
    def envelopes(self) -> list[Envelope]:
        """Every envelope in sending order, flattened from the records."""
        return [_new(Envelope, (r, s, q, p)) for r, s, pairs in self.records for q, p in pairs]

    def corrupted(self) -> set[int]:
        return {pid for kind, _, pid in self.events if kind == "corrupt"}

    def to_jsonl(self) -> str:
        """One canonical JSON line per envelope, each ending in a newline.

        Each distinct payload is hexed once, and each distinct pairs object
        (by id; the records keep it alive) gets its line pieces (head slot,
        receiver part, hex, close) once, so a broadcast's n lines share one
        hex string.  Each record fills the head slots and adds the pieces to
        one list, joined once at the end.
        """
        hexed: dict[bytes, str] = {}
        pieces: dict[int, list[str | None]] = {}
        parts: list[str | None] = []
        for r, s, pairs in self.records:
            if pairs:
                lines = pieces.get(id(pairs))
                if lines is None:
                    lines = pieces[id(pairs)] = []
                    for q, p in pairs:
                        lines += None, f'{q},"payload_hex":"', hexed.get(p) or hexed.setdefault(
                            p, p.hex()), '"}\n'
                lines[::4] = (f'{{"round":{r},"sender":{s},"receiver":',) * len(pairs)
                parts += lines
        del hexed, pieces  # freed before the join, where the call's memory peaks
        return "".join(parts)

    @classmethod
    def from_jsonl(cls, text: str, n: int | None = None, t: int = 0, seed: int = 0) -> "Transcript":
        """Parse exactly what ``to_jsonl`` writes; CorruptTranscript names the first other line.

        A record is a run of consecutive lines of one round and sender, so of
        one head.  A record whose line tails (receiver onwards) are those of
        the last record that began with the same tail is taken in one compare
        and shares that record's pairs tuple; each tail was checked when it
        was first read.
        """
        records: list[Record] = []
        payloads: dict[str, bytes] = {}
        known: dict[str, tuple[list[str], Outbox]] = {}  # first tail -> (tails, pairs)
        match, find, startswith = _HEAD.match, text.find, text.startswith
        end = 0
        while end < len(text):
            m = match(text, end)
            if m is None:
                break
            lead = m.start(3)
            head = text[end:lead]
            try:  # an int too long for int()
                key = int(m[1]), int(m[2])
            except ValueError:
                break
            # A known tail holds one newline, its last character.
            hit = known.get(text[lead:find("\n", lead) + 1])
            if hit is not None:
                block = head + head.join(hit[0])
                if startswith(block, end) and not startswith(head, end + len(block)):
                    records.append(_new(Record, (*key, hit[1])))
                    end += len(block)
                    continue
            # Line by line while the head holds; a faulty first line stops the read.
            tails: list[str] = []
            pairs: list[tuple[int, bytes]] = []
            while m is not None:
                start = m.end()
                close = find('"', start)
                if close < 0 or not startswith("}\n", close + 1):
                    break
                hexed = text[start:close]
                payload = payloads.get(hexed)
                if payload is None:
                    try:
                        payload = bytes.fromhex(hexed)
                    except ValueError:
                        break
                    if payload.hex() != hexed:  # fromhex also takes whitespace and upper case
                        break
                    payloads[hexed] = payload
                try:
                    pairs.append((int(m[3]), payload))
                except ValueError:
                    break
                tails.append(text[m.start(3):close + 3])
                end = close + 3
                m = match(text, end) if startswith(head, end) else None
            if not tails:
                break
            outbox = tuple(pairs)
            known[tails[0]] = tails, outbox
            records.append(_new(Record, (*key, outbox)))
        if end != len(text):
            line = text.count("\n", 0, end) + 1
            bad = text[end:end + 80].partition("\n")[0]
            raise CorruptTranscript(f"line {line} is not a canonical envelope record: {bad!r}")
        inferred = n or max((max(s, *[q for q, _ in pairs]) for _, s, pairs in records), default=0)
        rounds = max((r for r, _, _ in records), default=0)
        return cls(inferred, t, seed, records, [], rounds)


def replay_transcript(tr: Transcript) -> dict[int, dict[int, Inbox]]:
    """Every party's inbox per round, as the simulator delivered it.

    Returns {round: {pid: inbox}} for rounds 1..rounds_used: each round's
    sender columns (first payload per receiver) transposed, as in the run.
    Raises CorruptTranscript on structural damage: out-of-range rounds or
    party ids, round order regressions, or a pair, round or sender of the
    wrong type (a hand-built transcript).  Each distinct pairs object's
    column is built once; a sender's later record in a round merges into a copy.
    """
    n, rounds = tr.n, tr.rounds_used
    columns: dict[int, list] = {r: [None] * n for r in range(1, rounds + 1)}
    built: dict[int, Inbox] = {}  # id(pairs) -> its column; tr keeps the pairs alive
    last = 1
    for r, s, pairs in tr.records:
        if not pairs:
            continue
        column = built.get(id(pairs))
        if column is None:
            fresh: list[bytes | None] = [None] * n
            try:
                for q, p in pairs:
                    if type(q) is not int or type(p) is not bytes:
                        raise CorruptTranscript(f"malformed envelope {Envelope(r, s, q, p)}")
                    if not 1 <= q <= n:
                        raise CorruptTranscript(f"party id out of range in {Envelope(r, s, q, p)}")
                    if fresh[q - 1] is None:
                        fresh[q - 1] = p
            except (TypeError, ValueError) as exc:  # an entry that is not a pair
                raise CorruptTranscript(f"malformed pairs in round {r!r} of party {s!r}: {exc}") from exc
            column = built[id(pairs)] = tuple(fresh)
        if type(r) is not int or not 1 <= r <= rounds:
            raise CorruptTranscript(f"round {r!r} outside 1..{rounds}")
        if r < last:
            raise CorruptTranscript(f"round order regression at {Envelope(r, s, *pairs[0])}")
        last = r
        if type(s) is not int or not 1 <= s <= n:
            raise CorruptTranscript(f"party id out of range in {Envelope(r, s, *pairs[0])}")
        row = columns[r]
        prior = row[s - 1]
        row[s - 1] = column if prior is None else tuple(
            [b if a is None else a for a, b in zip(prior, column)])
    silent = (None,) * n
    return {r: dict(enumerate(zip(*[c or silent for c in cols]), 1)) for r, cols in columns.items()}


class SimulationView:
    """Adversary-facing read view of a running simulation.

    It holds ``n`` and the corrupted set, and reads everything else from the
    run's records.  Its ``transcript`` is a copy of the run's so far, made
    on each read, so writing to it changes no record.  It finds a round's
    records by their round, and shows each as soon as it is recorded: a
    round's honest records are appended after its corruptions are decided,
    and each corrupted party's as soon as it has sent.  So a corruption
    decision sees the rounds before the current one, and `byzantine_send`
    also sees the current round's honest messages and those of the earlier
    corrupted parties (rushing adversary).  It keeps only the last finished
    round's ``delivered`` rows, the inboxes the loop resumed the parties
    with; the loop delivers its own rows, so writing to the view changes no
    party's inbox.
    """

    def __init__(self, transcript: Transcript, corrupted: set[int]):
        self.n = transcript.n
        self._transcript = transcript
        self._corrupted = corrupted
        self.delivered: tuple[Inbox, ...] = ()  # the rows of round transcript.rounds_used

    @property
    def transcript(self) -> Transcript:
        tr = self._transcript  # its records, pairs and events are tuples
        return Transcript(tr.n, tr.t, tr.seed, [*tr.records], [*tr.events], tr.rounds_used)

    @property
    def corrupted(self) -> frozenset[int]:
        return frozenset(self._corrupted)

    def inbox_of(self, pid: int, round: int) -> Inbox:
        """pid's inbox from `round` (delivered at that round's end), per sender:
        the first payload to pid in its record of that round.  The round
        being sent reads its records so far (rushing); a pid outside 1..n or
        a round with nothing shown gets all None.  The last finished round's
        inbox is the very row delivered."""
        rows = self.delivered  # () until round 1 is delivered
        if round == self._transcript.rounds_used and 0 < pid <= len(rows):
            return rows[pid - 1]
        inbox: list[bytes | None] = [None] * self.n
        if 1 <= pid <= self.n:
            records = self._transcript.records
            start = bisect_left(records, (round,))  # (r,) sorts just before round r's records
            for _, s, pairs in records[start:bisect_left(records, (round + 1,), start)]:
                for q, p in pairs:  # a loop, not a generator: no frame per sender
                    if q == pid:
                        inbox[s - 1] = p
                        break
        return tuple(inbox)


class Adversary:
    """Strategy hooks; the default is fully passive.

    `corrupt_decision` returns the desired cumulative corrupted set for the
    round (a superset of the current one, at most t parties).
    `byzantine_send` is invoked once per corrupted party per round, in pid
    order, after all honest messages of the round are fixed.  It returns
    the party's outbox, (receiver, payload) pairs as a machine yields them,
    which is checked like an honest one (raising StrategyViolation),
    recorded under the round and pid, and shown in the view before the next
    corrupted party's `byzantine_send` is called.
    """

    n: int = 0
    t: int = 0
    rng: random.Random

    def begin(self, n: int, t: int, rng: random.Random) -> None:
        self.n, self.t, self.rng = n, t, rng

    def corrupt_decision(self, round: int, view: SimulationView) -> set[int]:
        return set(view.corrupted)

    def byzantine_send(self, round: int, pid: int, view: SimulationView) -> Outbox:
        return ()


class Finished(NamedTuple):
    """What ``GeneratorProgram.on_round`` returns once the generator has
    returned: ``value``, None included, is the party's output."""

    value: Any


class GeneratorProgram:
    """One party: a protocol machine written as a generator.

    The generator yields the outbox for the next round (a sequence of
    (receiver, payload) pairs) and is resumed with the inbox delivered at
    the end of that round.
    """

    __slots__ = ("_gen",)

    def __init__(self, gen: Generator):
        self._gen = gen

    def on_round(self, inbox: Inbox | None) -> Outbox | Finished:
        """The outbox for the next round (``inbox`` is None before round 1), or
        Finished: StopIteration never leaves the step, so tracing sees no error."""
        try:
            return self._gen.send(inbox)
        except StopIteration as stop:
            return Finished(stop.value)


def broadcast(n: int, payload: bytes) -> Outbox:
    """Outbox addressing every party (the sender too) with one payload; a
    tuple, so the parties sending the same outbox share it and its check."""
    return tuple([(pid, payload) for pid in range(1, n + 1)])


def _check_outbox(n: int, pid: int, outbox: Iterable, violation: type[Exception],
                  checked: dict[int, tuple[Outbox, Inbox]]) -> tuple[Outbox, Inbox]:
    """(pairs, column) of party pid's outbox; the column holds its first
    payload to each receiver, or None.  A bad receiver or payload, an entry
    that is not a pair, or an outbox that cannot be iterated raises
    ``violation``.

    Callers probe ``checked`` by ``id(outbox)`` and call this on a miss.  A
    tuple of (int, bytes) tuples cannot change: it is its own pairs, and its
    result goes in ``checked``, which holds it and so keeps its id unused.
    Anything else is copied (pairs made tuples, payloads bytes), uncached.
    """
    column: list[bytes | None] = [None] * n
    pairs = []
    same = type(outbox) is tuple
    try:
        for pair in outbox:
            receiver, payload = pair
            if type(receiver) is not int or not 1 <= receiver <= n:
                raise violation(f"party {pid} addressed invalid receiver {receiver!r}")
            if type(payload) is not bytes:
                if not isinstance(payload, (bytes, bytearray, memoryview)):
                    raise violation(f"party {pid} sent a payload of type {type(payload).__name__}")
                payload = bytes(payload)
                pair, same = (receiver, payload), False
            elif type(pair) is not tuple:
                pair, same = (receiver, payload), False
            pairs.append(pair)
            if column[receiver - 1] is None:
                column[receiver - 1] = payload
    except (TypeError, ValueError) as exc:
        raise violation(f"party {pid} sent a malformed outbox: {exc}") from exc
    if not same:
        return tuple(pairs), tuple(column)
    hit = checked[id(outbox)] = outbox, tuple(column)
    return hit


def run_simulation(
    n: int,
    t: int,
    machines: Sequence[Generator],
    adversary: Adversary | None = None,
    seed: int = 0,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> tuple[dict[int, Any], Transcript]:
    """Run the lockstep loop until every non-corrupted party has an output.

    The one way to run a protocol: ``machines[pid - 1]`` is party pid's
    generator (see GeneratorProgram).  Returns ({pid: output} over parties
    that were never corrupted, transcript).  The run's memo lives until it
    returns or raises; a nested run gets its own and leaves this one's in
    place.
    """
    if not 0 <= t < n:
        raise InvalidParams(f"need 0 <= t < n, got n={n} t={t}")
    if len(machines) != n:
        raise InvalidParams(f"expected {n} machines, got {len(machines)}")
    parties = [GeneratorProgram(gen) for gen in machines]
    adversary = adversary if adversary is not None else Adversary()
    tr = Transcript(n, t, seed)
    records, events = tr.records, tr.events
    corrupted: set[int] = set()
    view = SimulationView(tr, corrupted)
    silent: Inbox = (None,) * n
    inboxes: Sequence[Inbox | None] = (None,) * n
    running = range(1, n + 1)  # the parties neither finished nor corrupted, in pid order
    results: dict[int, Any] = {}
    checked: dict[int, tuple[Outbox, Inbox]] = {}  # honest and corrupted outboxes alike
    token = _RUN_MEMO.set({})
    try:
        adversary.begin(n, t, random.Random(f"adversary:{seed}"))
        for rnd in range(1, round_cap + 1):
            # Each sender's column this round, transposed into the deliveries.
            columns: list[Inbox] = [silent] * n
            sent: dict[int, Outbox] = {}
            for pid in running:
                outbox = parties[pid - 1].on_round(inboxes[pid - 1])
                if type(outbox) is Finished:
                    results[pid] = outbox.value
                    events.append(("output", rnd - 1, pid))
                else:  # a hit is a non-empty (pairs, column) pair
                    sent[pid], columns[pid - 1] = checked.get(id(outbox)) or _check_outbox(
                        n, pid, outbox, ProtocolViolation, checked)

            if not sent:  # all finished on the previous round's deliveries: no round rnd
                break

            requested = adversary.corrupt_decision(rnd, view)
            if requested != corrupted:  # the unchanged set is valid as it stands
                try:
                    requested = set(requested)
                except TypeError as exc:  # None, or an iterable of unhashables
                    raise StrategyViolation(f"not a set of party ids: {exc}") from None
                # Int party ids, as for receivers: True or 2.0 would be recorded as a sender.
                if not all(type(pid) is int and 1 <= pid <= n for pid in requested):
                    raise StrategyViolation(f"corrupted party id not an int or out of range: {requested}")
                if not requested >= corrupted:
                    raise StrategyViolation("adversary un-corrupted a party")
                if len(requested) > t:
                    raise StrategyViolation(f"corrupted {len(requested)} parties, budget is {t}")
                for pid in sorted(requested - corrupted):
                    corrupted.add(pid)
                    events.append(("corrupt", rnd, pid))
                    sent.pop(pid, None)  # corruption suppresses this round's sends
                    columns[pid - 1] = silent
            running = [*sent]

            for pid, pairs in sent.items():  # honest records first, in pid order
                if pairs:
                    records.append(_new(Record, (rnd, pid, pairs)))
            for pid in sorted(corrupted):
                # Asked for after the earlier outboxes are recorded, so the
                # rushing view shows them.
                outbox = adversary.byzantine_send(rnd, pid, view)
                pairs, columns[pid - 1] = checked.get(id(outbox)) or _check_outbox(
                    n, pid, outbox, StrategyViolation, checked)
                if pairs:
                    records.append(_new(Record, (rnd, pid, pairs)))

            inboxes = view.delivered = tuple(zip(*columns))
            tr.rounds_used = rnd
        else:
            raise NonTermination(f"round cap {round_cap} exceeded")
    finally:
        _RUN_MEMO.reset(token)

    outputs = {pid: results[pid] for pid in range(1, n + 1) if pid not in corrupted}
    return outputs, tr

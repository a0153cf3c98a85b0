"""Deterministic lockstep simulator for synchronous round protocols.

Parties are numbered 1..n and exchange messages over authenticated
point-to-point channels: a message's sender always names its true origin,
and everything sent in round k is delivered exactly at the end of round k,
before round k+1 begins.

A party is a generator (``GeneratorProgram`` runs it).  It yields its
outbox, a sequence of (receiver, payload) pairs, and is resumed with its
inbox: an n-tuple indexed by sender whose entry s-1 is the first payload
sender s sent the party in the previous round, or None; later payloads
from the same sender in that round are recorded in the transcript but not
delivered.

A transcript is stored as per-sender outbox records: one record (round,
sender, pairs) per sender that sent in a round, in sending order.
Everything else is derived from the records: the envelopes (one per pair),
the JSONL lines, the inboxes, the adversary's view
(``SimulationView.inbox_of``) and ``replay_transcript``.  Each record gives
its sender's column, the n-tuple of its first payload to each receiver;
a round's inboxes are its columns transposed.

Honest and corrupted parties send the same way: an outbox of (receiver,
payload) pairs, recorded under the round and the sender's own pid, so a
forged sender or round cannot be expressed.  Every outbox passes one check
(receivers are int party ids; a bytearray or memoryview payload is copied
to bytes, any other non-bytes payload is refused), raising
ProtocolViolation for an honest party and StrategyViolation for a
corrupted one.  Parties share memoised outbox tuples, so each distinct
tuple of (int, bytes) tuples is checked once per run and then kept as its
records' pairs without a copy.

Round structure.  In round k every non-corrupted party is resumed with the
inbox from round k-1 (all None for k=1) and yields the messages it sends
in round k.  The adversary then picks additional parties to corrupt (their
round-k messages are suppressed, as if corrupted at the start of the
round) and finally, corrupted party by corrupted party in pid order,
returns each one's round-k outbox after seeing every honest round-k
message and those of the earlier corrupted parties (rushing).  A final
step in which all remaining honest parties report their outputs and send
nothing does not count as a communication round, so a 3-round protocol
consumes exactly 3 rounds.

Everything is a pure function of (n, t, machines, adversary, seed): one
simulation is strictly single-threaded, distinct simulations share nothing.
One run memoises decoding (``run_memo``): honest parties receive
byte-identical broadcasts, so its machines and adversary shadows decode
each distinct input once and build the outbox answering each distinct
inbox once.  The memo is keyed by value and dropped when the run ends; its
values are shared by parties, so they are immutable (an outbox is a tuple).

A transcript file is one canonical JSON line per envelope, each ending in
a newline (``Transcript.to_jsonl``); the lines of one record share one
head.  ``from_jsonl`` accepts exactly those lines, groups consecutive lines
of one round and sender into one record, and raises CorruptTranscript on
anything else.  Broadcasts repeat each payload n times, so the writer
hexes and the reader decodes each distinct payload once; read-back pairs
with equal payloads share one bytes object.
"""

from __future__ import annotations

import random
import re
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


def run_memo(table: str) -> dict | None:
    """The running simulation's memo table named ``table``; None outside a run.

    Keys are values (or objects the run holds alive), never ``id()``
    numbers; every party of the run shares the cached values, so they must
    be immutable or copied on the way out.
    """
    memo = _RUN_MEMO.get()
    return None if memo is None else memo.setdefault(table, {})


def memoised(table: str, key: Any, compute: Callable[[], Any]) -> Any:
    """compute(), once per key in the running simulation; always outside one."""
    memo = run_memo(table)
    if memo is None:
        return compute()
    if key in memo:
        return memo[key]
    value = memo[key] = compute()
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


# The NamedTuples' own __new__ is a Python function; the hot loops build
# through tuple.__new__ directly, at about half the cost, with the same result.
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

    @classmethod
    def from_envelopes(cls, n: int, t: int, seed: int, envelopes: Iterable[Envelope],
                       rounds_used: int = 0) -> "Transcript":
        """The transcript of ``envelopes`` in order; consecutive envelopes of
        one round and sender share a record."""
        records: list[Record] = []
        for r, s, q, p in envelopes:
            if not records or records[-1][:2] != (r, s):
                records.append(Record(r, s, []))
            records[-1].pairs.append((q, p))
        return cls(n, t, seed, records, [], rounds_used)

    @property
    def envelopes(self) -> list[Envelope]:
        """Every envelope in sending order, flattened from the records."""
        return [_new(Envelope, (r, s, q, p)) for r, s, pairs in self.records for q, p in pairs]

    def corrupted(self) -> set[int]:
        return {pid for kind, _, pid in self.events if kind == "corrupt"}

    def to_jsonl(self) -> str:
        """One canonical JSON line per envelope, each ending in a newline."""
        hexed: dict[bytes, str] = {}
        lines = []
        for r, s, pairs in self.records:
            if pairs:
                head = f'{{"round":{r},"sender":{s},"receiver":'
                lines.append(head + head.join([
                    f'{q},"payload_hex":"{hexed.get(p) or hexed.setdefault(p, p.hex())}"}}\n'
                    for q, p in pairs]))
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str, n: int | None = None, t: int = 0, seed: int = 0) -> "Transcript":
        """Parse exactly what ``to_jsonl`` writes; CorruptTranscript names the first other line.

        Consecutive lines of one round and sender become one record.
        """
        records: list[Record] = []
        pairs: list[tuple[int, bytes]] = []  # the last record's
        payloads: dict[str, bytes] = {}
        head, find, startswith = _HEAD.match, text.find, text.startswith
        prev_hex, prev_width, prev_key = "", -1, None
        end = 0
        while end < len(text):
            m = head(text, end)
            if m is None:
                break
            start = m.end()
            close = find('"', start)
            if close < 0 or not startswith("}\n", close + 1):
                break
            if close - start != prev_width or not startswith(prev_hex, start):
                prev_hex, prev_width = text[start:close], close - start
                payload = payloads.get(prev_hex)
                if payload is None:
                    try:
                        payload = bytes.fromhex(prev_hex)
                    except ValueError:
                        break
                    if payload.hex() != prev_hex:  # fromhex also takes whitespace and upper case
                        break
                    payloads[prev_hex] = payload
            try:  # an int too long for int()
                key = m.group(1, 2)  # the round and sender digits
                if key != prev_key:
                    pairs = []
                    records.append(_new(Record, (int(key[0]), int(key[1]), pairs)))
                    prev_key = key
                pairs.append((int(m[3]), payload))
            except ValueError:
                break
            end = close + 3
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
    party ids, or round order regressions.
    """
    n = tr.n
    columns: dict[int, list] = {r: [None] * n for r in range(1, tr.rounds_used + 1)}
    last = 1
    for r, s, pairs in tr.records:
        for q, p in pairs:
            if not 1 <= r <= tr.rounds_used:
                raise CorruptTranscript(f"round {r} outside 1..{tr.rounds_used}")
            if r < last:
                raise CorruptTranscript(f"round order regression at {Envelope(r, s, q, p)}")
            last = r
            if not (1 <= s <= n and 1 <= q <= n):
                raise CorruptTranscript(f"party id out of range in {Envelope(r, s, q, p)}")
            column = columns[r][s - 1]
            if column is None:
                column = columns[r][s - 1] = [None] * n
            if column[q - 1] is None:
                column[q - 1] = p
    silent = (None,) * n
    return {r: dict(enumerate(zip(*[c or silent for c in cols]), 1)) for r, cols in columns.items()}


class SimulationView:
    """Adversary-facing read view of a running simulation.

    During a corruption decision the view covers rounds before the current
    one; during `byzantine_send` it additionally covers the honest messages
    of the current round (rushing adversary).
    """

    def __init__(self, sim: "_Simulation"):
        self._sim = sim

    @property
    def corrupted(self) -> frozenset[int]:
        return frozenset(self._sim.corrupted)

    def inbox_of(self, pid: int, round: int) -> Inbox:
        """pid's inbox from `round` (delivered at that round's end), per sender.

        The round being sent reads its messages so far (rushing); a pid
        outside 1..n or a round with nothing sent gets all None.
        """
        sim = self._sim
        n = sim.transcript.n
        if not 1 <= pid <= n:
            return (None,) * n
        inboxes = sim.delivered.get(round)
        if inboxes is not None:
            return inboxes[pid - 1]
        columns = sim.sending.get(round)
        if columns is None:
            return (None,) * n
        return tuple([column[pid - 1] for column in columns])


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


class GeneratorProgram:
    """One party: a protocol machine written as a generator.

    The generator yields the outbox for the next round (a sequence of
    (receiver, payload) pairs) and is resumed with the inbox delivered at
    the end of that round.  Its return value, None included, becomes the
    party's output.
    """

    def __init__(self, gen: Generator):
        self._gen = gen
        self._started = False
        self.done = False
        self.result: Any = None

    def on_round(self, inbox: Inbox) -> Outbox:
        if self.done:
            return ()
        try:
            if not self._started:
                self._started = True
                return self._gen.send(None)
            return self._gen.send(inbox)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return ()


class _Simulation:
    def __init__(self, n: int, t: int, seed: int):
        self.round = 0
        self.corrupted: set[int] = set()
        self.transcript = Transcript(n, t, seed)
        # The round being sent (the rushing view): each sender's column so
        # far, entry q-1 its first payload to party q.  Then every finished
        # round's inboxes as delivered to the parties 1..n.
        self.sending: dict[int, list[Sequence[bytes | None]]] = {}
        self.delivered: dict[int, list[Inbox]] = {}


def run_simulation(
    n: int,
    t: int,
    machines: Sequence[Generator],
    adversary: Adversary | None = None,
    seed: int = 0,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> tuple[dict[int, Any], Transcript]:
    """Run the lockstep loop until every non-corrupted party has an output.

    ``machines[pid - 1]`` is party pid's generator (see GeneratorProgram).
    Returns ({pid: output} over parties that were never corrupted, transcript).
    The run's memo lives until it returns or raises; a nested run gets its
    own and leaves this one's in place.
    """
    if not 0 <= t < n:
        raise InvalidParams(f"need 0 <= t < n, got n={n} t={t}")
    if len(machines) != n:
        raise InvalidParams(f"expected {n} machines, got {len(machines)}")
    parties = [GeneratorProgram(gen) for gen in machines]
    token = _RUN_MEMO.set({})
    try:
        return _run(n, t, parties, adversary, seed, round_cap)
    finally:
        _RUN_MEMO.reset(token)


def _check_outbox(n: int, pid: int, outbox: Iterable, violation: type[Exception],
                  checked: dict[int, tuple[Outbox, Inbox]]) -> tuple[Outbox, Inbox]:
    """(pairs, column) of party pid's outbox; the column holds its first
    payload to each receiver, or None.  A bad receiver or payload raises
    ``violation``.

    A tuple of (int, bytes) tuples cannot change, so it is its own pairs and
    is checked once per run: ``checked`` maps its id to the result, which
    holds the outbox and so keeps the id from being reused.  Anything else
    is copied, with a bytearray or memoryview payload made bytes.
    """
    hit = checked.get(id(outbox))
    if hit is not None:
        return hit
    column: list[bytes | None] = [None] * n
    pairs = []
    same = type(outbox) is tuple
    for pair in outbox:
        receiver, payload = pair
        if type(receiver) is not int or not 1 <= receiver <= n:
            raise violation(f"party {pid} addressed invalid receiver {receiver!r}")
        if type(payload) is not bytes:
            if not isinstance(payload, (bytes, bytearray, memoryview)):
                raise violation(f"party {pid} sent a payload of type {type(payload).__name__}")
            payload = bytes(payload)
            same = False
        elif type(pair) is not tuple:
            same = False
        pairs.append((receiver, payload))
        if column[receiver - 1] is None:
            column[receiver - 1] = payload
    if not same:
        return tuple(pairs), tuple(column)
    hit = checked[id(outbox)] = outbox, tuple(column)
    return hit


def _run(n, t, parties, adversary, seed, round_cap):
    """run_simulation's lockstep loop, run inside the memo it set up."""
    adversary = adversary if adversary is not None else Adversary()
    adversary.begin(n, t, random.Random(f"adversary:{seed}"))
    sim = _Simulation(n, t, seed)
    view = SimulationView(sim)
    tr = sim.transcript
    records = tr.records
    silent: Inbox = (None,) * n
    inboxes: list[Inbox] = [silent] * n
    reported: set[int] = set()
    checked: dict[int, tuple[Outbox, Inbox]] = {}  # honest and corrupted outboxes alike

    while True:
        rnd = sim.round + 1
        if rnd > round_cap:
            raise NonTermination(f"round cap {round_cap} exceeded")

        sent: dict[int, tuple[Outbox, Inbox]] = {}
        for pid in range(1, n + 1):
            if pid in sim.corrupted:
                continue
            party = parties[pid - 1]
            outbox = party.on_round(inboxes[pid - 1])
            sent[pid] = _check_outbox(n, pid, outbox, ProtocolViolation, checked)
            if party.done and pid not in reported:
                reported.add(pid)
                tr.events.append(("output", rnd - 1, pid))

        if all(parties[pid - 1].done for pid in range(1, n + 1) if pid not in sim.corrupted):
            # The protocol finished on the previous round's deliveries; this
            # round never takes place.
            assert all(not pairs for pairs, _ in sent.values())
            break

        sim.round = rnd
        requested = set(adversary.corrupt_decision(rnd, view))
        if not requested >= sim.corrupted:
            raise StrategyViolation("adversary un-corrupted a party")
        if len(requested) > t:
            raise StrategyViolation(f"corrupted {len(requested)} parties, budget is {t}")
        if not all(1 <= pid <= n for pid in requested):
            raise StrategyViolation("corrupted party id out of range")
        for pid in sorted(requested - sim.corrupted):
            sim.corrupted.add(pid)
            tr.events.append(("corrupt", rnd, pid))
            sent.pop(pid, None)  # corruption suppresses this round's sends

        columns: list[Sequence[bytes | None]] = [silent] * n
        sim.sending = {rnd: columns}
        for pid in [*sent, *sorted(sim.corrupted)]:  # honest, then corrupted, each in pid order
            # A corrupted party's outbox is asked for after the earlier ones
            # are recorded, so the rushing view shows them.
            if pid in sent:
                pairs, columns[pid - 1] = sent[pid]
            else:
                outbox = adversary.byzantine_send(rnd, pid, view)
                pairs, columns[pid - 1] = _check_outbox(n, pid, outbox, StrategyViolation, checked)
            if pairs:
                records.append(_new(Record, (rnd, pid, pairs)))

        inboxes = sim.delivered[rnd] = list(zip(*columns))
        tr.rounds_used = rnd

    outputs = {
        pid: parties[pid - 1].result
        for pid in range(1, n + 1)
        if pid not in sim.corrupted
    }
    return outputs, tr


def run_machines(n: int, t: int, machine: Callable[[int], Generator],
                 adversary: Adversary | None = None, seed: int = 0,
                 round_cap: int = DEFAULT_ROUND_CAP) -> tuple[dict[int, Any], Transcript]:
    """Run one protocol: ``machine(pid)`` is party pid's generator, pids 1..n.

    The entry point the protocols use; returns run_simulation's
    ({pid: output}, transcript).
    """
    return run_simulation(n, t, [machine(pid) for pid in range(1, n + 1)],
                          adversary, seed, round_cap)


def broadcast(n: int, payload: bytes) -> tuple[tuple[int, bytes], ...]:
    """Outbox addressing every party (the sender too) with one payload; a
    tuple, so the parties sending the same outbox can share it."""
    return tuple([(pid, payload) for pid in range(1, n + 1)])

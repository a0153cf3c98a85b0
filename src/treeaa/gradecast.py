"""Graded broadcast: every party distributes one value in 3 rounds.

All n sender instances run in parallel inside one invocation; the echo and
vote rounds therefore carry per-sender vectors instead of n separate
messages.  Per instance, the receiving party q ends with a pair
(value, grade):

* round 1: each sender broadcasts its value;
* round 2: each party echoes, per sender, the value it received;
* round 3: each party broadcasts, per sender, its candidate: the unique
  value echoed by at least n - t parties (absent otherwise);
* output:  grade 2 for a value carried by at least n - t votes, grade 1
  for at least t + 1 votes, grade 0 (no value) otherwise.

For t < n/3 two candidate values can never both reach the echo threshold
(2(n - t) > n) and any value reaching t + 1 votes carries an honest vote,
so the per-instance output is well defined; the guarantees themselves
(integrity for honest senders, grade/value consistency across honest
receivers) are established by the adversarial test suites, not assumed.

A party's inbox is the simulator's per-sender payload tuple (the first
payload from each sender, None where it sent nothing), so it is read by
position and serves directly as a memo key.  Inside a simulation each
distinct value gets one value broadcast, and each distinct inbox gets its
echo outbox, vote outbox and grades built once (``simnet.memoised``);
outboxes are tuples and the grades a read-only ``MappingProxyType``, so
the parties sharing one cannot alter it.  Each
builder records in the memo what its frame decodes to (the value, or the
entries it encoded), so honest frames are never decoded and entries,
candidates and grades hold the sender's own bytes.  Other bytes are decoded
once per run; a Byzantine sender's differing per-receiver frames reach
inboxes that are still told apart.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import wire
from .simnet import Inbox, _new, broadcast, memoised
from .wire import (
    TAG_ECHO,
    TAG_VALUE,
    TAG_VOTE,
    decode_vector,
    encode_vector,
    frame,
    parse_frame,
)


class GradedValue(NamedTuple):
    """Delivered (value, grade) pair; value is None exactly when grade is 0."""

    value: bytes | None
    grade: int


def _value_body(payload: bytes) -> bytes | None:
    parsed = parse_frame(payload)
    return parsed[1] if parsed is not None and parsed[0] == TAG_VALUE else None


def received_values(inbox: Inbox) -> list[bytes | None]:
    """Per-sender value from round-1 frames (index s-1 for sender s)."""
    return [None if payload is None else memoised("body", payload, _value_body, payload)
            for payload in inbox]


Vector = tuple[bytes | None, ...]


def _decoded_vector(n: int, tag: int, payload: bytes) -> Vector | None:
    parsed = parse_frame(payload)
    if parsed is None or parsed[0] != tag:
        return None
    entries = decode_vector(parsed[1], n)
    return None if entries is None else tuple(entries)


def received_vectors(n: int, inbox: Inbox, tag: int) -> list[Vector | None]:
    """Per-sender decoded entry vectors for echo or vote rounds."""
    return [
        None if payload is None else memoised(
            "vector", (n, tag, payload), _decoded_vector, n, tag, payload)
        for payload in inbox
    ]


def _plurality(column: tuple[bytes | None, ...]) -> tuple[bytes | None, int]:
    """The most frequent value of one sender's column and its count, the
    larger value among equals; (None, 0) when every entry is None.  A first
    entry held by a strict majority is the only maximum: one C count."""
    first = column[0]
    count = column.count(first)
    if first is not None and 2 * count > len(column):
        return first, count
    counts: dict[bytes, int] = {}
    for value in column:
        if value is not None:
            counts[value] = counts.get(value, 0) + 1
    count, best = max(((k, v) for v, k in counts.items()), default=(0, None))
    return best, count


def _pluralities(n: int, vectors: list[Vector | None]) -> list[tuple[bytes | None, int]]:
    """``_plurality`` of each sender's column of the vectors that are not None."""
    rows = [vec for vec in vectors if vec is not None]
    if not rows:
        return [(None, 0)] * n
    return list(map(_plurality, zip(*rows)))


def compute_candidates(n: int, t: int, echoes: list[Vector | None]) -> list[bytes | None]:
    """Per sender instance, the value echoed by at least n - t parties."""
    threshold = n - t
    return [value if count >= threshold else None for value, count in _pluralities(n, echoes)]


def grade_votes(n: int, t: int, votes: list[Vector | None]) -> dict[int, GradedValue]:
    """Fold the vote round into per-sender (value, grade) outputs."""
    outputs: dict[int, GradedValue] = {}
    for s, (value, count) in enumerate(_pluralities(n, votes), 1):
        grade = 2 if count >= n - t else 1 if count >= t + 1 else 0
        outputs[s] = _new(GradedValue, (value if grade else None, grade))
    return outputs


# Round builders; each looks up the codec and tally functions at call time.
def _value_outbox(n: int, value: bytes):
    payload = frame(TAG_VALUE, value)
    if len(value) <= wire._MAX_BODY:  # else parse_frame, so _value_body, gives None
        memoised("body", payload, bytes, value)  # _value_body's answer; bytes(b) is b
    return broadcast(n, payload)


def _vector_outbox(n: int, tag: int, entries: list[bytes | None]):
    body = encode_vector(entries)
    payload = frame(tag, body)
    if len(body) <= wire._MAX_BODY:  # else _decoded_vector gives None
        memoised("vector", (n, tag, payload), tuple, entries)  # _decoded_vector's answer
    return broadcast(n, payload)


def _echo_outbox(n: int, inbox: Inbox):
    return _vector_outbox(n, TAG_ECHO, received_values(inbox))


def _vote_outbox(n: int, t: int, inbox: Inbox):
    return _vector_outbox(n, TAG_VOTE, compute_candidates(
        n, t, received_vectors(n, inbox, TAG_ECHO)))


def _grades(n: int, t: int, inbox: Inbox) -> Mapping[int, GradedValue]:
    return MappingProxyType(grade_votes(n, t, received_vectors(n, inbox, TAG_VOTE)))


def gradecast_all(n: int, t: int, value: bytes):
    """3-round machine; returns a read-only {sender pid: GradedValue} for all
    n instances.

    It takes no pid: a party's messages and output depend only on its value
    and its inboxes, so each is built once per distinct value or inbox in a
    run and shared.  The parties that read one vote inbox share one grades
    view (a ``MappingProxyType``), which none of them can write to.
    """
    inbox = yield memoised("value", (n, value), _value_outbox, n, value)
    inbox = yield memoised("echo", (n, inbox), _echo_outbox, n, inbox)
    inbox = yield memoised("vote", (n, t, inbox), _vote_outbox, n, t, inbox)
    # One read-only view per distinct vote inbox, shared like the outboxes.
    return memoised("grades", (n, t, inbox), _grades, n, t, inbox)

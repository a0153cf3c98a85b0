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
distinct echo or vote frame is decoded once, and each distinct inbox gets
its echo outbox, vote outbox and grades built once (``simnet.memoised``);
outboxes are tuples, so the parties sharing one cannot alter it.  A
Byzantine sender's per-receiver frames differ, so the inboxes they reach
are still told apart.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .simnet import Inbox, broadcast, memoised
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


def received_values(n: int, inbox: Inbox) -> list[bytes | None]:
    """Per-sender value from round-1 frames (index s-1 for sender s)."""
    out: list[bytes | None] = [None] * n
    for s, payload in enumerate(inbox):
        parsed = None if payload is None else parse_frame(payload)
        if parsed is not None and parsed[0] == TAG_VALUE:
            out[s] = parsed[1]
    return out


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
            "vector", (n, tag, payload), lambda: _decoded_vector(n, tag, payload))
        for payload in inbox
    ]


def _tally(column: Iterable[bytes | None]) -> dict[bytes, int]:
    counts: dict[bytes, int] = {}
    for value in column:
        if value is not None:
            counts[value] = counts.get(value, 0) + 1
    return counts


def compute_candidates(n: int, t: int, echoes: list[Vector | None]) -> list[bytes | None]:
    """Per sender instance, the value echoed by at least n - t parties."""
    candidates: list[bytes | None] = [None] * n
    threshold = n - t
    for s in range(n):
        counts = _tally(vec[s] for vec in echoes if vec is not None)
        if counts:
            best = max(counts, key=lambda v: (counts[v], v))
            if counts[best] >= threshold:
                candidates[s] = best
    return candidates


def grade_votes(n: int, t: int, votes: list[Vector | None]) -> dict[int, GradedValue]:
    """Fold the vote round into per-sender (value, grade) outputs."""
    outputs: dict[int, GradedValue] = {}
    for s in range(n):
        counts = _tally(vec[s] for vec in votes if vec is not None)
        value, grade = None, 0
        if counts:
            best = max(counts, key=lambda v: (counts[v], v))
            if counts[best] >= n - t:
                value, grade = best, 2
            elif counts[best] >= t + 1:
                value, grade = best, 1
        outputs[s + 1] = GradedValue(value, grade)
    return outputs


def gradecast_all(n: int, t: int, pid: int, value: bytes):
    """3-round machine; returns {sender pid: GradedValue} for all n instances.

    Past round 1 a party's messages and output depend only on its inbox,
    so each is built once per distinct inbox in a run and shared.
    """
    inbox = yield broadcast(n, frame(TAG_VALUE, value))
    inbox = yield memoised("echo", (n, inbox), lambda: broadcast(
        n, frame(TAG_ECHO, encode_vector(received_values(n, inbox)))))
    inbox = yield memoised("vote", (n, t, inbox), lambda: broadcast(
        n, frame(TAG_VOTE, encode_vector(
            compute_candidates(n, t, received_vectors(n, inbox, TAG_ECHO))))))
    # The grades are shared too; each party gets its own copy of the dict.
    return dict(memoised("grades", (n, t, inbox),
                         lambda: grade_votes(n, t, received_vectors(n, inbox, TAG_VOTE))))

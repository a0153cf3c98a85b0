"""Byzantine message scripting shared by gradecast tests and acceptance."""

from __future__ import annotations

from typing import Generator

from treeaa.gradecast import compute_candidates, received_values, received_vectors
from treeaa.simnet import Adversary
from treeaa.wire import TAG_ECHO, TAG_VALUE, TAG_VOTE, encode_vector, frame


class InstanceScript(Adversary):
    """One Byzantine party distorting a single gradecast sender instance.

    The party is honest everywhere except the entries concerning
    ``target``: in round 1 (when the target is its own instance) it sends
    the scripted per-receiver value frames, and in rounds 2/3 it sends
    honest echo/vote vectors with the target entry replaced per receiver.
    A scripted value of None means silence (round 1) or an absent entry.

    With ``later`` values, the script repeats in the 3-round blocks after
    the first, one block per value: in block b >= 1 every scripted value
    that is not None becomes ``later[b - 1]``.  The party is silent in
    every round after its last block.
    """

    def __init__(self, byz_pid: int, target: int,
                 r1: dict[int, bytes | None],
                 r2: dict[int, bytes | None],
                 r3: dict[int, bytes | None],
                 own_value: bytes = b"B",
                 later: tuple[bytes, ...] = ()):
        self.byz_pid = byz_pid
        self.target = target
        self.r1, self.r2, self.r3 = r1, r2, r3
        self.own_value = own_value
        self.later = later

    def corrupt_decision(self, round, view):
        return {self.byz_pid}

    def scripted(self, script, q, block):
        value = script.get(q)
        return value if value is None or block == 0 else self.later[block - 1]

    def byzantine_send(self, round, pid, view):
        n = self.n
        out = []
        block, step = divmod(round - 1, 3)
        if block > len(self.later):
            return []
        first = 3 * block + 1  # the block's value round
        if step == 0:
            for q in range(1, n + 1):
                value = self.scripted(self.r1, q, block) if self.target == pid else self.own_value
                if value is not None:
                    out.append((q, frame(TAG_VALUE, value)))
            return out
        if step == 1:
            mine = received_values(n, view.inbox_of(pid, first))
            for q in range(1, n + 1):
                entries = list(mine)
                entries[self.target - 1] = self.scripted(self.r2, q, block)
                out.append((q, frame(TAG_ECHO, encode_vector(entries))))
            return out
        echoes = received_vectors(n, view.inbox_of(pid, first + 1), TAG_ECHO)
        candidates = compute_candidates(n, self.t, echoes)
        for q in range(1, n + 1):
            entries = list(candidates)
            entries[self.target - 1] = self.scripted(self.r3, q, block)
            out.append((q, frame(TAG_VOTE, encode_vector(entries))))
        return out


def check_consistency(outputs: dict[int, dict], n: int) -> None:
    """Grade/value consistency across every honest pair, every sender."""
    honest = sorted(outputs)
    for s in range(1, n + 1):
        for i, p in enumerate(honest):
            vp, gp = outputs[p][s]
            assert gp in (0, 1, 2)
            assert (vp is None) == (gp == 0)
            for q in honest[i + 1:]:
                vq, gq = outputs[q][s]
                assert abs(gp - gq) <= 1, f"grades {gp},{gq} for sender {s}"
                if gp > 0 and gq > 0:
                    assert vp == vq, f"values differ at grade>0 for sender {s}"


def marked(pid: int, machines: list[Generator], mark: list) -> Generator:
    """``machines[pid - 1]``, with ``mark[0] = pid`` set before each send.

    Honest machines take no pid, so a test fake called inside one reads
    ``mark[0]`` to learn which party is being stepped.
    """
    machine, inbox = machines[pid - 1], None
    while True:
        mark[0] = pid
        try:
            outbox = machine.send(inbox)
        except StopIteration as stop:
            return stop.value
        inbox = yield outbox

"""Byzantine message scripting shared by gradecast tests and acceptance."""

from __future__ import annotations

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
    """

    def __init__(self, byz_pid: int, target: int,
                 r1: dict[int, bytes | None],
                 r2: dict[int, bytes | None],
                 r3: dict[int, bytes | None],
                 own_value: bytes = b"B"):
        self.byz_pid = byz_pid
        self.target = target
        self.r1, self.r2, self.r3 = r1, r2, r3
        self.own_value = own_value

    def corrupt_decision(self, round, view):
        return {self.byz_pid}

    def byzantine_send(self, round, pid, view):
        n = self.n
        out = []
        if round == 1:
            for q in range(1, n + 1):
                value = self.r1.get(q) if self.target == pid else self.own_value
                if value is not None:
                    out.append((q, frame(TAG_VALUE, value)))
            return out
        if round == 2:
            mine = received_values(n, view.inbox_of(pid, 1))
            for q in range(1, n + 1):
                entries = list(mine)
                entries[self.target - 1] = self.r2.get(q)
                out.append((q, frame(TAG_ECHO, encode_vector(entries))))
            return out
        if round == 3:
            echoes = received_vectors(n, view.inbox_of(pid, 2), TAG_ECHO)
            candidates = compute_candidates(n, self.t, echoes)
            for q in range(1, n + 1):
                entries = list(candidates)
                entries[self.target - 1] = self.r3.get(q)
                out.append((q, frame(TAG_VOTE, encode_vector(entries))))
            return out
        return []


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

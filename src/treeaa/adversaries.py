"""Registry of Byzantine strategies used by the test harness.

Each strategy is one ``Strategy`` row of ``REGISTRY``: a corruption
schedule, the inputs ("faces") of the honest shadow machines each corrupted
party replays on its real message history, and a rule for the rounds and
receivers in which the hi face replaces the lo face: the shadow-replay
attacks on trimmed-mean agreement (Dolev, Lynch, Pinter, Stark, Weihl, JACM
1986), and a late corruption as in Fekete (Distributed Computing 1990).
Every choice is driven by the simulation seed, so runs replay bit-exactly.
An honest machine is built from its input alone, with no pid, so corrupted
parties whose delivered inbox histories are equal share one shadow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, NamedTuple

from .bounds import plan_iterations
from .errors import InvalidParams
from .real_aa import real_aa_machine
from .simnet import Adversary, Finished, GeneratorProgram, Inbox, Outbox, SimulationView, memoised
from .tree_aa import planned_rounds, protocol
from .trees import LabeledTree


@dataclass
class AdversaryContext:
    """What a strategy needs to know about the protocol under attack.  Shadows
    rest on one premise: two ``machine(x)`` resumed with equal inboxes send
    the same and return the same."""

    machine: Callable[[Any], Generator]  # input -> honest machine
    lo_input: Any
    hi_input: Any
    planned_rounds: int


class Strategy(NamedTuple):
    """One registry row; ``make_adversary`` plays it against a context.
    Every row corrupts the same t pids at a given seed: the first draw of
    the run's fresh adversary rng, made in the schedule's first round."""

    late: bool = False  # corrupt from round planned_rounds - 5, not round 1
    faces: tuple[str, ...] = ()  # AdversaryContext inputs of the shadows, lo face first
    # Two faces: receiver q hears hi if hi_to(q, n), in rounds r with (r - 1) % every == 0.
    every: int = 1
    hi_to: Callable[[int, int], bool] | None = None


class _Shadow:
    """Honest machines, one per face, stepped in lockstep on the inbox history
    ``rows`` (None first; r rows in round r); ``outs``: each face's last outbox, () once done."""

    def __init__(self, machines: list[Generator]):
        self.programs = [GeneratorProgram(machine) for machine in machines]
        self.rows: list[Inbox | None] = []
        self.outs: list[Outbox] = []

    def step(self, inbox: Inbox | None) -> None:
        self.rows.append(inbox)
        outs = self.outs
        outs.clear()  # a loop, not a comprehension: no frame per round
        for program in self.programs:
            out = program.on_round(inbox)
            outs.append(() if type(out) is Finished else out)


class RegistryAdversary(Adversary):
    """Plays one registry row.  ``_shadows[pid]`` is the shadow of pid's inbox
    history, shared by the pids with that history.  Each round each pid reads
    its last inbox once: the first sharer steps the shadow with it, and a later
    one whose inbox differs moves to the shadow of its own history (new if none)."""

    def __init__(self, row: Strategy, ctx: AdversaryContext):
        self.row, self.ctx = row, ctx
        self.corrupt_from = max(1, ctx.planned_rounds - 5) if row.late else 1
        self._targets: set[int] | None = None
        self._shadows: dict[int, _Shadow] = {}

    def corrupt_decision(self, round: int, view: SimulationView) -> set[int]:
        if self._targets is None and round >= self.corrupt_from:
            self._targets = set(self.rng.sample(range(1, self.n + 1), self.t))
        return set(self._targets) if self._targets else set()

    def byzantine_send(self, round: int, pid: int, view: SimulationView) -> Outbox:
        # Computed here, not lazily: shadow steps run inside this call.
        row = self.row
        if not row.faces:
            return ()
        shadow = self._shadows.get(pid)
        if shadow is None:  # a late corruption replays its whole history
            shadow = self._shadow_of(pid, [None, *[view.inbox_of(pid, r) for r in range(1, round)]])
        else:  # pid's inbox of last round steps the shadow, or moves pid off it
            inbox = view.inbox_of(pid, round - 1)
            if len(shadow.rows) < round:  # the first of its sharers this round
                shadow.step(inbox)
            elif shadow.rows[-1] != inbox:  # a sharer stepped it on another inbox
                shadow = self._shadow_of(pid, [*shadow.rows[:-1], inbox])
        outs = shadow.outs
        if len(outs) == 1 or (round - 1) % row.every:
            return outs[0]
        # Parties with equal faces share one spliced tuple, checked once.
        lo, hi = outs
        return memoised("spliced", (row, lo, hi), _spliced, row, lo, hi, self.n)

    def _shadow_of(self, pid: int, history: list[Inbox | None]) -> _Shadow:
        """pid's shadow from now on: the one with rows ``history``, else a new one replaying it."""
        shadow = next((shadow for shadow in self._shadows.values() if shadow.rows == history), None)
        if shadow is None:
            shadow = _Shadow([self.ctx.machine(getattr(self.ctx, face)) for face in self.row.faces])
            for inbox in history:
                shadow.step(inbox)
        self._shadows[pid] = shadow
        return shadow


def _spliced(row: Strategy, lo: Outbox, hi: Outbox, n: int) -> Outbox:
    """lo's pairs, hi's payload to each q with ``row.hi_to(q, n)`` where hi has one."""
    hi_by_receiver = dict(hi)
    return tuple([(q, hi_by_receiver.get(q, payload) if row.hi_to(q, n) else payload)
                  for q, payload in lo])


LO, HI = "lo_input", "hi_input"
REGISTRY: dict[str, Strategy] = {
    # Corrupted parties never send (crash-like).
    "silent": Strategy(),
    # Corrupted parties act like honest ones whose input is an extreme of the input space.
    "skew-high": Strategy(faces=(HI,)),
    "skew-low": Strategy(faces=(LO,)),
    # The value round of each 3-round gradecast block differs per receiver
    # (hi to odd receivers); echo and vote rounds follow the lo face.
    "equivocator": Strategy(faces=(LO, HI), every=3, hi_to=lambda q, n: q % 2 == 1),
    # Two camps, 1..n//2 and the rest, each get a fully consistent view from one face.
    "split-world": Strategy(faces=(LO, HI), hi_to=lambda q, n: q > n // 2),
    # Nobody is corrupted before the last iterations of the closing real-valued AA; then skew-high.
    "adaptive-late": Strategy(late=True, faces=(HI,)),
}


def strategy(name: str) -> Strategy:
    """REGISTRY[name]; InvalidParams naming the choices for an unknown name."""
    if name not in REGISTRY:
        raise InvalidParams(f"adversary must be one of {sorted(REGISTRY)}, got {name!r}")
    return REGISTRY[name]


def make_adversary(name: str, ctx: AdversaryContext) -> RegistryAdversary:
    return RegistryAdversary(strategy(name), ctx)


def context_for_real_aa(n: int, t: int, d_bound: float, epsilon: float) -> AdversaryContext:
    """Context for attacking a bare real-valued agreement run; the faces are -2d and 2d."""
    return AdversaryContext(lambda value: real_aa_machine(n, t, value, d_bound, epsilon),
                            -2.0 * abs(d_bound), 2.0 * abs(d_bound),
                            3 * plan_iterations(n, t, d_bound, epsilon))


def context_for_tree(tree: LabeledTree, n: int, t: int, mode: str) -> AdversaryContext:
    """Context for attacking a ``mode`` tree run; the faces are the root and a deepest vertex."""
    machine = protocol(mode).machine  # InvalidParams for an unknown mode
    return AdversaryContext(lambda vertex: machine(tree, n, t, vertex), tree.root, tree.deepest,
                            planned_rounds(tree, n, t, mode))

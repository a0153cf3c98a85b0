"""Registry of Byzantine strategies used by the test harness.

Most strategies steer corrupted parties by running shadow copies of the
honest state machine on the corrupted party's real message history, with
inputs or per-receiver routing twisted:

* silent         corrupted parties never send (crash-like);
* skew-high/low  corrupted parties behave like honest parties whose input
                 sits at one extreme of the input space;
* equivocator    round-1 gradecast values differ per receiver (low/high
                 shadow by receiver parity), other rounds follow the low
                 shadow;
* split-world    honest parties are split into two camps; each camp gets a
                 fully consistent view from one of two shadows;
* adaptive-late  nobody is corrupted until the final iterations of the
                 closing real-valued agreement, then behaves like skew-high
                 (shadows replay the party's history to join mid-protocol).

Every choice is driven by the simulation seed, so runs replay bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from .bounds import plan_iterations
from .errors import InvalidParams
from .real_aa import real_aa_machine
from .simnet import Adversary, Finished, GeneratorProgram, Outbox, SimulationView, memoised


@dataclass
class AdversaryContext:
    """What a strategy needs to know about the protocol under attack."""

    machine: Callable[[int, Any], Generator]  # (pid, input) -> honest machine
    lo_input: Any
    hi_input: Any
    planned_rounds: int


class _Shadow:
    """An honest machine replayed against a corrupted party's history."""

    def __init__(self, machine: Generator):
        self.program = GeneratorProgram(machine)
        self.next_round = 1

    def advance(self, pid: int, view: SimulationView, upto: int) -> Outbox:
        """The outbox of round ``upto``; () once the machine has returned."""
        out: Outbox = ()
        while self.next_round <= upto:
            inbox = view.inbox_of(pid, self.next_round - 1) if self.next_round > 1 else None
            self.next_round += 1
            out = self.program.on_round(inbox)
        return () if type(out) is Finished else out


class RegistryAdversary(Adversary):
    """Corrupts a seed-chosen set of t parties at a fixed round."""

    corrupt_from = 1

    def __init__(self, ctx: AdversaryContext):
        self.ctx = ctx
        self._targets: set[int] | None = None
        self._shadows: dict[Any, _Shadow] = {}

    def corrupt_decision(self, round: int, view: SimulationView) -> set[int]:
        if self._targets is None and round >= self.corrupt_from:
            self._targets = set(self.rng.sample(range(1, self.n + 1), self.t))
        return set(self._targets) if self._targets else set()

    def byzantine_send(self, round: int, pid: int, view: SimulationView) -> Outbox:
        # Computed here, not lazily: shadow steps run inside this call.
        return self.outbox(round, pid, view)

    def outbox(self, round: int, pid: int, view: SimulationView) -> Outbox:
        return ()

    def shadow(self, key: Any, pid: int, input_value: Any) -> _Shadow:
        sh = self._shadows.get(key)
        if sh is None:
            sh = _Shadow(self.ctx.machine(pid, input_value))
            self._shadows[key] = sh
        return sh


class Silent(RegistryAdversary):
    """Corrupted parties say nothing at all."""


class Skew(RegistryAdversary):
    def __init__(self, ctx: AdversaryContext, high: bool):
        super().__init__(ctx)
        self.high = high

    def outbox(self, round, pid, view):
        value = self.ctx.hi_input if self.high else self.ctx.lo_input
        return self.shadow(pid, pid, value).advance(pid, view, round)


class Equivocator(RegistryAdversary):
    """Splits only the value round of each 3-round block, per receiver parity."""

    def outbox(self, round, pid, view):
        lo = self.shadow((pid, "lo"), pid, self.ctx.lo_input).advance(pid, view, round)
        hi = self.shadow((pid, "hi"), pid, self.ctx.hi_input).advance(pid, view, round)
        if (round - 1) % 3 != 0:  # echo and vote rounds stay single-faced
            return lo
        return _spliced("odd", lo, hi, lambda receiver: receiver % 2)


class SplitWorld(RegistryAdversary):
    """Each half of the party space sees one internally consistent shadow."""

    def outbox(self, round, pid, view):
        lo = self.shadow((pid, "lo"), pid, self.ctx.lo_input).advance(pid, view, round)
        hi = self.shadow((pid, "hi"), pid, self.ctx.hi_input).advance(pid, view, round)
        cut = self.n // 2
        return _spliced(cut, lo, hi, lambda receiver: receiver > cut)


def _spliced(rule: Any, lo: Outbox, hi: Outbox, takes_hi: Callable[[int], bool]) -> Outbox:
    """lo's pairs, each receiver that ``takes_hi`` getting hi's payload to it
    where hi has one; a tuple memoised on (rule, lo, hi), so corrupted
    parties with equal shadow outboxes share it and it is checked once."""
    def build():
        hi_by_receiver = dict(hi)
        return tuple([(receiver, hi_by_receiver.get(receiver, payload) if takes_hi(receiver)
                       else payload) for receiver, payload in lo])
    return memoised("spliced", (rule, lo, hi), build)


class AdaptiveLate(RegistryAdversary):
    """Stays clean until the last two iterations, then skews high."""

    def __init__(self, ctx: AdversaryContext):
        super().__init__(ctx)
        self.corrupt_from = max(1, ctx.planned_rounds - 5)

    def outbox(self, round, pid, view):
        # advance() replays the whole history on first contact, so the
        # shadow joins mid-protocol with a coherent state.
        return self.shadow(pid, pid, self.ctx.hi_input).advance(pid, view, round)


REGISTRY: dict[str, Callable[[AdversaryContext], RegistryAdversary]] = {
    "silent": Silent,
    "skew-high": lambda ctx: Skew(ctx, high=True),
    "skew-low": lambda ctx: Skew(ctx, high=False),
    "equivocator": Equivocator,
    "split-world": SplitWorld,
    "adaptive-late": AdaptiveLate,
}


def make_adversary(name: str, ctx: AdversaryContext) -> RegistryAdversary:
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise InvalidParams(f"unknown adversary {name!r}; choose from {sorted(REGISTRY)}") from None
    return factory(ctx)


def context_for_real_aa(n: int, t: int, d_bound: float, epsilon: float,
                        lo_input: float | None = None,
                        hi_input: float | None = None) -> AdversaryContext:
    """Context for attacking a bare real-valued agreement run."""
    return AdversaryContext(
        machine=lambda pid, value: real_aa_machine(n, t, pid, value, d_bound, epsilon),
        lo_input=-2.0 * abs(d_bound) if lo_input is None else lo_input,
        hi_input=2.0 * abs(d_bound) if hi_input is None else hi_input,
        planned_rounds=3 * plan_iterations(n, t, d_bound, epsilon),
    )

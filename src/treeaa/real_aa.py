"""Approximate agreement on real values with gradecast distribution.

Each iteration costs 3 rounds: the parties gradecast their current values,
keep those delivered with grade 1 or 2, permanently blacklist every sender
whose grade was at most 1 (its later gradecasts are ignored), then move to
the arithmetic mean of the kept values after discarding the t lowest and
t highest.  The iteration count (``bounds.plan_iterations``) is fixed up
front from (n, t, d, eps), so all honest parties terminate in the same
round; with honest inputs d-close the final values are eps-close and inside
the honest input range.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .bounds import plan_iterations
from .errors import InsufficientValues, NonFinite
from .gradecast import GradedValue, gradecast_all
from .simnet import _new, memoised
from .wire import decode_double, encode_double


def closest_int(j: float) -> int:
    """Nearest integer to j; an exact half rounds up."""
    if isinstance(j, float) and not math.isfinite(j):
        raise NonFinite(f"closest_int({j!r})")
    z = math.floor(j)
    return z if j - z < 0.5 else z + 1


def _pairwise_sum(xs: list[float]) -> float:
    n = len(xs)
    if n == 0:
        return 0.0
    if n == 1:
        return xs[0]
    half = n // 2
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def trim_mean_update(
    received: Mapping[int, GradedValue],
    prior_blacklist: set[int] | frozenset[int],
    t: int,
) -> tuple[float, set[int]]:
    """One iteration's value update and blacklist growth.

    ``received`` carries the decoded gradecast deliveries (value float or
    None, grade) of the senders not in ``prior_blacklist``: callers pass
    only those (``_update`` drops the blacklisted ones).  Values with
    grade >= 1 enter the working multiset this iteration even when their
    sender is being blacklisted (grade <= 1) for the following ones.
    The mean is clamped into the kept range, so float rounding can never
    move it outside (three kept copies of 0.1 average to 0.10000000000000002).
    """
    new_blacklist = set(prior_blacklist)
    working: list[float] = []
    for sender, gv in received.items():
        if gv.grade <= 1:
            new_blacklist.add(sender)
        if gv.grade >= 1 and gv.value is not None:
            working.append(gv.value)
    if len(working) < 2 * t + 1:
        raise InsufficientValues(f"{len(working)} usable values, need {2 * t + 1}")
    working.sort()
    kept = working[t : len(working) - t] if t else working
    mean = _pairwise_sum(kept) / len(kept)
    return min(max(mean, kept[0]), kept[-1]), new_blacklist


class RealAAResult(NamedTuple):
    """Per-party outcome plus the diagnostics the property suites assert on."""

    value: float
    blacklist: frozenset[int]
    history: tuple[float, ...]  # value at every iteration boundary, input first
    iterations: int


def real_aa_machine(n: int, t: int, value: float, d_bound: float, epsilon: float):
    """Protocol machine: plan_iterations(n,t,d,eps) iterations of 3 rounds."""
    plan = plan_iterations(n, t, d_bound, epsilon)
    blacklist: frozenset[int] = frozenset()
    current = float(value)
    history = [current]
    for _ in range(plan):
        graded = yield from gradecast_all(n, t, encode_double(current))
        # Honest parties mostly share grades and blacklist: one update each.
        current, blacklist = memoised(
            "real_aa", (n, t, tuple(graded.values()), blacklist), _update, graded, blacklist, t)
        history.append(current)
    return _new(RealAAResult, (current, blacklist, tuple(history), plan))


def _update(graded: Mapping[int, GradedValue], blacklist: frozenset[int],
            t: int) -> tuple[float, frozenset[int]]:
    """trim_mean_update on the decoded grades of the senders not blacklisted."""
    decoded = {
        sender: _new(GradedValue, (None if gv.value is None else decode_double(gv.value), gv.grade))
        for sender, gv in graded.items()
        if sender not in blacklist
    }
    value, grown = trim_mean_update(decoded, blacklist, t)
    return value, frozenset(grown)

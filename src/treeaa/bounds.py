"""Closed-form round-complexity bounds.

How far apart two honest outputs can be forced after R rounds on inputs
d apart, and the minimum round count below which that divergence exceeds
the 1-agreement requirement.  All comparisons run in exact rational
arithmetic so the functions stay meaningful for extreme R and d; only the
returned values are rounded to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParams


def max_product_partition(t: int, r: int) -> int:
    """Largest product of r positive integers with sum at most t.

    Achieved by the balanced partition into parts floor(t/r) and
    ceil(t/r) summing to exactly t; 0 when t < r, since no all-positive
    partition exists and a zero part nullifies the product.
    """
    if r < 1 or t < 0:
        raise InvalidParams(f"need r >= 1 and t >= 0, got t={t} r={r}")
    if t < r:
        return 0
    q, rem = divmod(t, r)
    return (q + 1) ** rem * q ** (r - rem)


def _check(n: int, t: int, r: int, d: float) -> None:
    if t < 0 or n <= t:
        raise InvalidParams(f"need n > t >= 0, got n={n} t={t}")
    if r < 1:
        raise InvalidParams(f"need r >= 1, got {r}")
    if not (d > 0 and math.isfinite(d)):
        raise InvalidParams(f"need finite d > 0, got {d!r}")


def _underflows(n: int, t: int, r: int) -> bool:
    """Whether t^r / (r (n+t))^r is provably below 2^-1075, half the
    smallest subnormal double, so that it and every smaller ratio round to
    0.0; decided from bit lengths, without forming the powers."""
    # t < 2^len(t) and r (n+t) >= 2^(len(r (n+t)) - 1).
    return r * (t.bit_length() - (r * (n + t)).bit_length() + 1) <= -1075


def k_bound(n: int, t: int, r: int, d: float) -> float:
    """Divergence bound d * max{prod T_i : sum <= t, T_i >= 1} / (n+t)^r."""
    _check(n, t, r, d)
    # The product is 0 when r > t, and at most (t/r)^r, so it underflows
    # whenever k_bound_simple's ratio does.
    if r > t or _underflows(n, t, r):
        return 0.0
    return d * float(Fraction(max_product_partition(t, r), (n + t) ** r))


def k_bound_simple(n: int, t: int, r: int, d: float) -> float:
    """The closed-form variant d * t^r / (r^r (n+t)^r)."""
    _check(n, t, r, d)
    if _underflows(n, t, r):
        return 0.0
    return d * float(Fraction(t**r, (r * (n + t)) ** r))


def lb_rounds(n: int, t: int, d: float) -> int:
    """Smallest R >= 1 with k_bound_simple(n, t, R, d) <= 1.

    Any correct protocol needs at least this many rounds: fewer leave an
    execution with two honest outputs more than distance 1 apart.
    """
    if t < 1 or n <= t:
        raise InvalidParams(f"need n > t >= 1, got n={n} t={t}")
    if not (d > 1 and math.isfinite(d)):
        raise InvalidParams(f"need finite d > 1, got {d!r}")
    dd = Fraction(d)
    r = 1
    while True:
        if dd * t**r <= (r * (n + t)) ** r:
            return r
        r += 1
        if r > 10_000:  # d is finite, so the search always stops well before
            raise InvalidParams("round search diverged")

"""Round arithmetic: the resilience check, the iteration plan and the bounds.

Both round claims are the smallest R with d * t^R <= eps * (R m)^R:

* the trimmed-mean plan (``plan_iterations``; Dolev, Lynch, Pinter, Stark
  and Weihl, JACM 1986), m = n - 2t: O(log D / log log D) iterations;
* the lower bound (``lb_rounds``; Fekete, Distributed Computing 1990),
  m = n + t: Omega(log D / (log log D + log((n+t)/t))) rounds.

Since n - 2t < n + t, every R that meets the plan's inequality meets the
lower bound's, so lb_rounds(n, t, D) <= plan_iterations(n, t, D, 1).  All
comparisons are exact; only the returned ratios are rounded to floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParams


def check_resilience(n: int, t: int) -> None:
    """The protocols' resilience condition: 0 <= t < n/3."""
    if t < 0 or n <= 3 * t:
        raise InvalidParams(f"need 0 <= t < n/3, got n={n} t={t}")


def _least_rounds(t: int, m: int, d: float, eps: float = 1.0) -> int:
    """Smallest R >= 0 with d * t^R <= eps * (R m)^R, compared exactly.

    The R = 0 sides are d and eps (0^0 = 1), so R = 0 exactly when d <= eps.
    Both callers have m > t, so (R m / t)^R grows with R and every R past
    the answer meets the inequality too: the search doubles R until it
    does, then bisects.  It ends before R = 512: d / eps < 2^2098 for finite
    d, eps > 0, and (R m / t)^R >= R^R passes that (R <= 262 at the extremes).
    """
    (a, b), (c, e) = d.as_integer_ratio(), eps.as_integer_ratio()
    p, q = a * e, b * c  # d / eps = p / q

    def meets(r: int) -> bool:
        return p * t**r <= q * (r * m) ** r

    hi = 1
    while not meets(hi):
        hi *= 2
    return bisect_left(range(hi), True, key=meets)


def _underflows(t: int, m: int, r: int) -> bool:
    """Whether t^r / (r m)^r is provably below 2^-1075, half the smallest
    subnormal double, so that it and every smaller ratio round to 0.0;
    decided from bit lengths, without forming the powers."""
    # t < 2^len(t) and r m >= 2^(len(r m) - 1).
    return r * (t.bit_length() - (r * m).bit_length() + 1) <= -1075


def _ratio(t: int, m: int, r: int) -> float:
    """t^r / (r m)^r, rounded once to a float (1.0 for r = 0)."""
    if _underflows(t, m, r):
        return 0.0
    return float(Fraction(t**r, (r * m) ** r))


@lru_cache(maxsize=1024)
def plan_iterations(n: int, t: int, d_bound: float, epsilon: float) -> int:
    """Smallest iteration count R with d * convergence_factor(n, t, R) <= eps.

    R = 0 exactly when d <= eps.  Cached: every machine of a run asks with
    the same configuration, and the arguments are never bytes from the wire.
    """
    check_resilience(n, t)
    if not (d_bound > 0 and math.isfinite(d_bound)):
        raise InvalidParams(f"d_bound must be positive and finite, got {d_bound!r}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InvalidParams(f"epsilon must be positive and finite, got {epsilon!r}")
    return _least_rounds(t, n - 2 * t, d_bound, epsilon)


def convergence_factor(n: int, t: int, r: int) -> float:
    """t^R / (R^R (n-2t)^R), the guaranteed range shrink after R iterations."""
    return _ratio(t, n - 2 * t, r)


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


def k_bound(n: int, t: int, r: int, d: float) -> float:
    """Divergence bound d * max{prod T_i : sum <= t, T_i >= 1} / (n+t)^r.

    The partition form: an adversary that spends T_i fresh corruptions in
    round i.  It is 0 once R > t, since no partition of t into R positive
    parts exists.
    """
    _check(n, t, r, d)
    # The product is at most (t/r)^r, so it underflows whenever
    # k_bound_simple's ratio does.
    if r > t or _underflows(t, n + t, r):
        return 0.0
    return d * float(Fraction(max_product_partition(t, r), (n + t) ** r))


def k_bound_simple(n: int, t: int, r: int, d: float) -> float:
    """The closed form d * t^r / (r^r (n+t)^r).

    It replaces k_bound's integer product by its real maximum (t/r)^r, so it
    is at least k_bound for every R (AM-GM) and stays above 0 past R = t: it
    is the bound's asymptotic shape, not a bound proven at each R.
    """
    _check(n, t, r, d)
    return d * _ratio(t, n + t, r)


@lru_cache(maxsize=1024)
def lb_rounds(n: int, t: int, d: float) -> int:
    """Smallest R >= 1 with k_bound_simple(n, t, R, d) <= 1, compared exactly.

    It uses the closed form k_bound_simple, not k_bound, so it is the round
    count of the lower bound's asymptotic shape; being at least k_bound, the
    closed form may need more rounds than k_bound does to reach 1.  Cached
    like ``plan_iterations``: every report of a configuration asks it again.
    """
    if t < 1 or n <= t:
        raise InvalidParams(f"need n > t >= 1, got n={n} t={t}")
    if not (d > 1 and math.isfinite(d)):
        raise InvalidParams(f"need finite d > 1, got {d!r}")
    return _least_rounds(t, n + t, d)

import math
import time
from fractions import Fraction

import pytest

from treeaa import bounds
from treeaa.bounds import (
    convergence_factor,
    k_bound,
    k_bound_simple,
    lb_rounds,
    max_product_partition,
    plan_iterations,
)
from treeaa.errors import InvalidParams

import oracles


class TestMaxProductPartition:
    def test_exhaustive_match(self):
        for t in range(0, 13):
            for r in range(1, min(t, 12) + 1):
                assert max_product_partition(t, r) == oracles.enumerate_max_product(t, r)

    def test_infeasible_is_zero(self):
        assert max_product_partition(2, 3) == 0

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            max_product_partition(3, 0)


class TestKBound:
    def test_single_round_single_fault(self):
        assert k_bound(4, 1, 1, 100.0) == 20.0

    def test_two_rounds_two_faults(self):
        assert abs(k_bound(4, 2, 2, 100.0) - 100.0 / 36.0) < 1e-12

    def test_infeasible_partition_gives_zero(self):
        assert k_bound(4, 1, 2, 100.0) == 0.0

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            k_bound(4, 4, 1, 100.0)
        with pytest.raises(InvalidParams):
            k_bound(4, 1, 0, 100.0)
        with pytest.raises(InvalidParams):
            k_bound(4, 1, 1, -1.0)


class TestKBoundSimple:
    def test_single_round_single_fault(self):
        assert k_bound_simple(4, 1, 1, 100.0) == 20.0

    def test_zero_faults(self):
        assert k_bound_simple(4, 0, 3, 100.0) == 0.0

    def test_two_rounds_two_faults(self):
        assert abs(k_bound_simple(4, 2, 2, 100.0) - 100.0 / 36.0) < 1e-12

    def test_relation_to_partition_form(self):
        # The real-valued balanced partition dominates the integer one, so
        # the closed form is an upper bound on the partition form, with
        # equality exactly when r divides t.
        for n in (4, 7, 10, 13):
            for t in range(1, (n - 1) // 3 + 1):
                for r in range(1, t + 1):
                    simple = k_bound_simple(n, t, r, 1000.0)
                    exact = k_bound(n, t, r, 1000.0)
                    assert exact <= simple + 1e-9
                    if t % r == 0:
                        assert abs(exact - simple) < 1e-9

    def test_extreme_magnitudes_stay_finite(self):
        assert k_bound_simple(10, 3, 400, 1e300) == 0.0
        assert math.isfinite(k_bound(10, 3, 400, 1e300))


class TestUnderflow:
    MATRIX_NT = ((4, 1), (7, 2), (10, 3))  # the acceptance matrix's (n, t) pairs

    def test_same_floats_as_the_exact_formula(self):
        for n, t in self.MATRIX_NT:
            for d in (10.0, 1e3, 1e300):
                for r in range(1, 301):
                    assert k_bound(n, t, r, d) == oracles.k_bound_exact(n, t, r, d), (n, t, r, d)
                    assert (k_bound_simple(n, t, r, d)
                            == oracles.k_bound_simple_exact(n, t, r, d)), (n, t, r, d)

    def test_the_sweep_covers_both_sides_of_the_cut(self):
        assert bounds._underflows(1, 5, 300)  # t = 1, m = n + t = 5
        assert not bounds._underflows(3, 13, 100)
        assert oracles.k_bound_simple_exact(10, 3, 100, 1e300) > 0.0

    def test_convergence_factor_is_the_exact_ratio(self):
        for n, t in self.MATRIX_NT:
            for r in range(1, 301):
                exact = float(Fraction(t**r, (r * (n - 2 * t)) ** r))
                assert convergence_factor(n, t, r) == exact, (n, t, r)

    def test_convergence_factor_of_a_huge_r_forms_no_power(self):
        start = time.perf_counter()
        assert convergence_factor(7, 2, 10**6) == 0.0
        # Forming the powers takes about a second already at r = 10**5.
        assert time.perf_counter() - start < 0.1


class TestRoundSearches:
    """The plan (m = n - 2t) and lb_rounds (m = n + t) are one search over m."""

    DS = (10.0, 1e3, 1e6, 1e30, 1e100, 1e300)

    def test_plan_pinned_at_16_5(self):
        assert [plan_iterations(16, 5, d, 1.0) for d in self.DS] == [3, 5, 7, 22, 55, 136]

    def test_lb_rounds_pinned_at_16_5(self):
        assert [lb_rounds(16, 5, d) for d in self.DS] == [2, 3, 5, 17, 45, 113]

    def test_lower_bound_never_exceeds_the_plan(self):
        # n - 2t < n + t, so an R meeting the plan's inequality meets lb_rounds'.
        violations = [
            (n, t, k)
            for n in range(4, 40)
            for t in range(1, (n - 1) // 3 + 1)
            for k in range(1, 301)
            if lb_rounds(n, t, float(10**k)) > plan_iterations(n, t, float(10**k), 1.0)
        ]
        assert violations == []


class TestLbRounds:
    def test_threshold_cases(self):
        assert lb_rounds(4, 1, 5.0) == 1  # 5/5 == 1
        assert lb_rounds(4, 1, 6.0) == 2  # 6/5 > 1, then 6/100 <= 1

    def test_million(self):
        r = lb_rounds(4, 1, 1e6)
        assert k_bound_simple(4, 1, r, 1e6) <= 1.0
        assert k_bound_simple(4, 1, r - 1, 1e6) > 1.0

    def test_minimality_sweep(self):
        for n, t in ((4, 1), (7, 2), (10, 3)):
            for d in (2.0, 10.0, 1e3, 1e6, 1e9):
                r = lb_rounds(n, t, d)
                assert r >= 1
                assert k_bound_simple(n, t, r, d) <= 1.0
                if r > 1:
                    assert k_bound_simple(n, t, r - 1, d) > 1.0

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            lb_rounds(4, 0, 10.0)
        with pytest.raises(InvalidParams):
            lb_rounds(4, 1, 1.0)

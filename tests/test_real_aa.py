import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeaa import plan_iterations, run_simulation, trim_mean_update
from treeaa.adversaries import REGISTRY, context_for_real_aa
from treeaa.errors import InsufficientValues, InvalidParams, NonFinite
from treeaa.gradecast import GradedValue
from treeaa.bounds import convergence_factor
from treeaa.real_aa import closest_int, real_aa_machine
from treeaa.wire import encode_double

from byzhelpers import InstanceScript, marked
from oracles import closed_form_iterations, guaranteed_spread, spread

MATRIX_NT = [(4, 1), (7, 2), (10, 3)]


def real_aa_once(n, t, inputs, d_bound, epsilon, adversary=None, seed=0):
    """({honest pid: value}, transcript, {honest pid: RealAAResult}) of one run."""
    machines = [real_aa_machine(n, t, inputs[pid], d_bound, epsilon) for pid in range(1, n + 1)]
    results, transcript = run_simulation(n, t, machines, adversary, seed)
    return {pid: res.value for pid, res in results.items()}, transcript, results


class TestPlanIterations:
    def test_example_search(self):
        # 1000/(3^3 * 2^3) > 1 but 1000/(4^4 * 2^4) <= 1.
        assert plan_iterations(4, 1, 1000.0, 1.0) == 4

    def test_already_agreed(self):
        assert plan_iterations(4, 1, 0.5, 1.0) == 0
        assert plan_iterations(4, 1, 1.0, 1.0) == 0

    def test_zero_faults_take_one_iteration(self):
        assert plan_iterations(4, 0, 1000.0, 1.0) == 1

    def test_smallest_r_property(self):
        for n, t in MATRIX_NT:
            for d in (2.0, 16.0, 1e3, 1e6, 1e9):
                r = plan_iterations(n, t, d, 1.0)
                assert d * convergence_factor(n, t, r) <= 1.0
                if r > 0:
                    assert d * convergence_factor(n, t, r - 1) > 1.0

    def test_monotone_in_ratio(self):
        prev = 0
        for d in (0.5, 1, 2, 8, 64, 1e3, 1e6, 1e9, 1e12):
            r = plan_iterations(7, 2, float(d), 1.0)
            assert r >= prev
            prev = r
        # epsilon scaling mirrors d scaling
        assert plan_iterations(7, 2, 1e6, 1.0) == plan_iterations(7, 2, 1e9, 1e3)

    def test_round_cap_sublogarithmic(self):
        for n, t in MATRIX_NT:
            for delta in (16.0, 1e3, 1e6, 1e9):
                cap = 7 * math.log2(delta) / math.log2(math.log2(delta)) + 3
                assert 3 * plan_iterations(n, t, delta, 1.0) < cap

    def test_closed_form_is_an_upper_bound(self):
        for n, t in MATRIX_NT:
            for delta in (16.0, 1e3, 1e6, 1e9):
                assert plan_iterations(n, t, delta, 1.0) <= closed_form_iterations(delta)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            plan_iterations(3, 1, 10.0, 1.0)
        with pytest.raises(InvalidParams):
            plan_iterations(4, 1, -5.0, 1.0)
        with pytest.raises(InvalidParams):
            plan_iterations(4, 1, 10.0, 0.0)
        with pytest.raises(InvalidParams):
            closed_form_iterations(2.0)


class TestClosestInt:
    def test_rounds_down_below_half(self):
        assert closest_int(2.4) == 2

    def test_half_rounds_up(self):
        assert closest_int(2.5) == 3
        assert closest_int(-2.5) == -2

    def test_integer_fixpoint(self):
        assert closest_int(3.0) == 3
        assert closest_int(-7.0) == -7

    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            closest_int(math.nan)
        with pytest.raises(NonFinite):
            closest_int(math.inf)

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_within_half(self, j):
        assert abs(j - closest_int(j)) <= 0.5

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0, max_value=1))
    def test_one_close_inputs_stay_one_close(self, j, delta):
        assert abs(closest_int(j) - closest_int(j + delta)) <= 1

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=-10**6, max_value=10**6),
           st.floats(min_value=0, max_value=1))
    def test_stays_in_integer_interval(self, a, b, frac):
        lo, hi = min(a, b), max(a, b)
        j = lo + frac * (hi - lo)
        assert lo <= closest_int(j) <= hi


def graded(mapping):
    return {pid: GradedValue(value, grade) for pid, (value, grade) in mapping.items()}


class TestTrimMeanUpdate:
    def test_trims_one_from_each_side(self):
        received = graded({1: (0.0, 2), 2: (10.0, 2), 3: (20.0, 2), 4: (30.0, 2)})
        value, blacklist = trim_mean_update(received, set(), 4, 1)
        assert value == 15.0
        assert blacklist == set()

    def test_no_trim_without_faults(self):
        received = graded({1: (0.0, 2), 2: (4.0, 2), 3: (8.0, 2), 4: (12.0, 2)})
        value, blacklist = trim_mean_update(received, set(), 4, 0)
        assert value == 6.0
        assert blacklist == set()

    def test_grade_one_used_now_blacklisted_later(self):
        received = graded({1: (0.0, 2), 2: (10.0, 2), 3: (20.0, 2), 4: (100.0, 1)})
        value, blacklist = trim_mean_update(received, set(), 4, 1)
        assert blacklist == {4}
        assert value == 15.0  # 100 participated and got trimmed

    def test_grade_zero_excluded_and_blacklisted(self):
        received = graded({1: (1.0, 2), 2: (2.0, 2), 3: (3.0, 2), 4: (None, 0)})
        value, blacklist = trim_mean_update(received, set(), 4, 1)
        assert blacklist == {4}
        assert value == 2.0

    def test_prior_blacklist_only_grows(self):
        received = graded({1: (1.0, 2), 2: (2.0, 2), 3: (3.0, 2)})
        value, blacklist = trim_mean_update(received, {4}, 4, 1)
        assert blacklist == {4}
        assert value == 2.0

    def test_insufficient_values(self):
        received = graded({1: (1.0, 2), 2: (None, 0), 3: (None, 0), 4: (None, 0)})
        with pytest.raises(InsufficientValues):
            trim_mean_update(received, set(), 4, 1)

    def test_mean_stays_in_kept_range(self):
        # The three kept copies of 0.1 sum to 0.30000000000000004.
        received = graded({pid: (0.1, 2) for pid in range(1, 8)})
        value, _ = trim_mean_update(received, set(), 7, 2)
        assert value == 0.1


class TestRunRealAA:
    def test_unanimous_inputs_fixpoint(self):
        inputs = {pid: 7.0 for pid in range(1, 5)}
        outputs, transcript, _ = real_aa_once(4, 1, inputs, 100.0, 1.0)
        assert all(v == 7.0 for v in outputs.values())

    def test_unanimous_inputs_fixpoint_exact(self):
        # Strict validity: unanimous honest inputs come back bit for bit,
        # whatever rounding the mean does.
        rng = random.Random("unanimous")
        for _ in range(300):
            x = rng.uniform(0, 1e6)
            outputs, _, _ = real_aa_once(7, 2, {pid: x for pid in range(1, 8)}, 1e6, 1.0)
            assert set(outputs.values()) == {x}

    def test_zero_fault_average_in_one_iteration(self):
        inputs = {1: 0.0, 2: 4.0, 3: 8.0, 4: 12.0}
        outputs, transcript, _ = real_aa_once(4, 0, inputs, 12.0, 1.0)
        assert outputs == {1: 6.0, 2: 6.0, 3: 6.0, 4: 6.0}
        assert transcript.rounds_used == 3  # exactly one 3-round iteration

    def test_round_accounting_exact(self):
        inputs = {pid: float(pid) for pid in range(1, 5)}
        outputs, transcript, _ = real_aa_once(4, 1, inputs, 1000.0, 1.0)
        assert transcript.rounds_used == 3 * plan_iterations(4, 1, 1000.0, 1.0)

    def test_registry_property_run(self):
        n, t, d = 4, 1, 100.0
        base_inputs = {1: 0.0, 2: 10.0, 3: 100.0, 4: 55.0}
        plan = plan_iterations(n, t, d, 1.0)
        for name in sorted(REGISTRY):
            for seed in range(50):
                ctx = context_for_real_aa(n, t, d, 1.0)
                adversary = REGISTRY[name](ctx)
                outputs, transcript, results = real_aa_once(
                    n, t, base_inputs, d, 1.0, adversary, seed
                )
                honest = sorted(outputs)
                v0 = [base_inputs[pid] for pid in honest]
                lo, hi = min(v0), max(v0)
                values = [outputs[pid] for pid in honest]
                # epsilon-agreement, validity at every iteration and the
                # convergence bound, all exact
                assert spread(values) <= 1
                for pid in honest:
                    assert all(lo <= v <= hi for v in results[pid].history)
                assert spread(values) <= guaranteed_spread(n, t, plan, lo, hi)
                # blacklist soundness: no honest party blacklists an honest one
                honest_set = set(honest)
                for pid in honest:
                    assert not (results[pid].blacklist & honest_set)
                assert transcript.rounds_used == 3 * plan

    def test_shared_update_is_keyed_by_the_blacklist(self, monkeypatch):
        # Iteration 2 hands every party equal grades, but party 1 blacklisted
        # sender 4 in iteration 1; an update shared on the grades alone would
        # give one party the other's value and blacklist.
        from treeaa import real_aa

        def grades(*values_and_grades):
            return {s: GradedValue(encode_double(v), g)
                    for s, (v, g) in enumerate(values_and_grades, 1)}

        second = grades((0.0, 2), (0.0, 2), (3.0, 2), (9.0, 2))
        scripts = {pid: iter([grades((0.0, 2), (0.0, 2), (0.0, 2), (0.0, 1 if pid == 1 else 2)),
                              second]) for pid in range(1, 5)}

        mark = [None]  # the pid being stepped

        def scripted_gradecast(n, t, value):
            yield ()
            return dict(next(scripts[mark[0]]))

        monkeypatch.setattr(real_aa, "gradecast_all", scripted_gradecast)
        assert plan_iterations(4, 1, 10.0, 1.0) == 2
        machines = [real_aa_machine(4, 1, 0.0, 10.0, 1.0) for _ in range(4)]
        results, _ = run_simulation(4, 1, [marked(pid, machines, mark) for pid in range(1, 5)])
        assert (results[1].value, results[1].blacklist) == (0.0, frozenset({4}))
        for pid in (2, 3, 4):
            assert (results[pid].value, results[pid].blacklist) == (1.5, frozenset())

    def test_a_grade_one_split_counts_once(self):
        # Party 4 splits its own instance in both iterations: value x to
        # parties 1 and 2, echo to party 1, votes to parties 1 and 2, so they
        # grade x as 1 and party 3 grades it 0.  Iteration 1 meets the
        # guarantee with equality; in iteration 2 every honest party has
        # blacklisted party 4, so its second split counts for nothing.
        inputs = {1: 0.0, 2: 0.0, 3: 10.0, 4: 0.0}
        x = encode_double(10.0)
        script = InstanceScript(4, 4, {1: x, 2: x}, {1: x}, {1: x, 2: x},
                                later=(encode_double(0.0),))
        assert plan_iterations(4, 1, 10.0, 1.0) == 2
        _, _, results = real_aa_once(4, 1, inputs, 10.0, 1.0, script)
        assert sorted(results) == [1, 2, 3]
        first = [res.history[1] for res in results.values()]
        second = [res.history[2] for res in results.values()]
        assert spread(first) == guaranteed_spread(4, 1, 1, 0, 10) == 5
        assert spread(second) <= guaranteed_spread(4, 1, 2, 0, 10) == Fraction(5, 8)
        assert spread(second) == 0


def test_pairwise_sum_matches_fsum():
    from treeaa.real_aa import _pairwise_sum

    rng = random.Random("sums")
    for size in (0, 1, 2, 3, 7, 100):
        xs = [rng.uniform(-1e6, 1e6) for _ in range(size)]
        assert math.isclose(_pairwise_sum(xs), math.fsum(xs), rel_tol=1e-12, abs_tol=1e-9)

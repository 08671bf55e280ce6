"""Tests for the classical baselines."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import Instance
from repro.baselines import (
    SCHEDULER_CLASSES,
    compare_scheduler_classes,
    first_fit_decreasing,
    greedy_partition,
    list_schedule,
    lpt_makespan,
    mcnaughton_makespan,
    mcnaughton_schedule,
    minimal_unrelated_T,
    partition_schedule,
    restrict_instance,
    restricted_family_for,
    solve_restricted,
    solve_semi_greedy,
    solve_unrelated_2approx,
)
from repro.exceptions import InfeasibleError, InvalidFamilyError, InvalidInstanceError
from repro.workloads import random_semi_partitioned, rng_from_seed


class TestMcNaughton:
    def test_makespan_formula(self):
        assert mcnaughton_makespan([3, 3, 3], 2) == Fraction(9, 2)
        assert mcnaughton_makespan([10, 1, 1], 3) == 10
        assert mcnaughton_makespan([], 4) == 0

    def test_schedule_delivers_all_work(self):
        T, s = mcnaughton_schedule([3, 3, 3], 2)
        assert T == Fraction(9, 2)
        for j, length in enumerate([3, 3, 3]):
            assert s.work_of(j) == length

    def test_no_job_overlaps_itself(self):
        T, s = mcnaughton_schedule([5, 5, 5, 5], 4)
        for j in range(4):
            segs = sorted((seg for _m, seg in s.job_segments(j)), key=lambda x: x.start)
            for a, b in zip(segs, segs[1:]):
                assert a.end <= b.start

    def test_job_of_length_T(self):
        T, s = mcnaughton_schedule([4, 2, 2], 2)
        assert T == 4
        assert s.work_of(0) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 15), min_size=1, max_size=10), st.integers(1, 5))
    def test_optimality_and_validity_random(self, lengths, m):
        T, s = mcnaughton_schedule(lengths, m)
        assert T == mcnaughton_makespan(lengths, m)
        assert s.makespan() <= T
        for j, length in enumerate(lengths):
            assert s.work_of(j) == length
            segs = sorted((seg for _mm, seg in s.job_segments(j)), key=lambda x: x.start)
            for a, b in zip(segs, segs[1:]):
                assert a.end <= b.start

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInstanceError):
            mcnaughton_makespan([1], 0)
        with pytest.raises(InvalidInstanceError):
            mcnaughton_makespan([-1], 2)


class TestListScheduling:
    def test_graham_bound(self):
        lengths = [4, 3, 3, 2, 2]
        makespan, _s, _p = list_schedule(lengths, 2)
        opt_lb = mcnaughton_makespan(lengths, 2)
        assert makespan <= (2 - Fraction(1, 2)) * opt_lb

    def test_lpt_at_least_as_good_here(self):
        lengths = [2, 2, 2, 6]
        greedy, _s, _p = list_schedule(lengths, 2, order="input")
        lpt = lpt_makespan(lengths, 2)
        assert lpt <= greedy

    def test_schedule_consistency(self):
        makespan, s, placement = list_schedule([5, 4, 3], 2, order="lpt")
        assert s.makespan() == makespan
        for j, i in placement.items():
            machines = {m for m, _seg in s.job_segments(j)}
            assert machines == {i}

    def test_unknown_order_raises(self):
        with pytest.raises(InvalidInstanceError):
            list_schedule([1], 1, order="random")


class TestPartitioned:
    def test_greedy_prefers_cheap_machine(self):
        p = {0: {0: 10, 1: 1}}
        makespan, placement = greedy_partition(p, [0, 1])
        assert placement[0] == 1 and makespan == 1

    def test_greedy_balances_load(self):
        p = {j: {0: 2, 1: 2} for j in range(4)}
        makespan, placement = greedy_partition(p, [0, 1])
        assert makespan == 4

    def test_lpt_order(self):
        p = {0: {0: 1, 1: 1}, 1: {0: 6, 1: 6}, 2: {0: 2, 1: 2}}
        makespan, _ = greedy_partition(p, [0, 1], order="lpt")
        assert makespan == 6

    def test_first_fit_decreasing(self):
        p = {0: {0: 3, 1: 3}, 1: {0: 3, 1: 3}, 2: {0: 3, 1: 3}}
        placed, overflow = first_fit_decreasing(p, [0, 1], T=3)
        assert len(placed) == 2 and overflow == [2]
        placed2, overflow2 = first_fit_decreasing(p, [0, 1], T=6)
        assert not overflow2

    def test_infeasible_job_raises(self):
        from repro import INF

        with pytest.raises(InfeasibleError):
            greedy_partition({0: {0: INF}}, [0])

    def test_partition_schedule_sequential(self):
        p = {0: {0: 2}, 1: {0: 3}}
        s = partition_schedule(p, [0], {0: 0, 1: 0})
        assert s.makespan() == 5
        assert s.machine_load(0) == 5


class TestLSTUnrelated:
    def test_bound(self):
        p = {j: {i: 3 for i in range(2)} for j in range(3)}
        result = solve_unrelated_2approx(p, [0, 1])
        assert result.makespan <= result.bound
        assert result.T_lp == Fraction(9, 2)

    def test_load_dominated_T(self):
        # Optimum above the largest processing time.
        p = {j: {0: 3, 1: 3} for j in range(4)}
        assert minimal_unrelated_T(p) == 6

    def test_between_breakpoints(self):
        # p values {1, 10}; LP optimum sits between them.
        p = {
            0: {0: 1, 1: 1},
            1: {0: 1, 1: 1},
            2: {0: 1, 1: 1},
            3: {0: 10, 1: 10},
        }
        T = minimal_unrelated_T(p)
        assert T == 10  # the long job needs 10 wherever it lands

    def test_pure_load_balance_fractional(self):
        p = {j: {0: 5, 1: 5} for j in range(3)}
        assert minimal_unrelated_T(p) == Fraction(15, 2)

    #: minimal_unrelated_T on seeded 12x4 matrices, captured while the
    #: min-T LP still declared ``ub=1`` on every variable (one ``<=`` row
    #: each); the bound is implied by the assignment rows.
    SEEDED_T = {0: "18", 1: "1987/99", 2: "25280/953", 3: "622/33", 4: "385465/14117", 5: "15"}

    @pytest.mark.parametrize("backend", ["exact", "hybrid"])
    @pytest.mark.parametrize("seed", sorted(SEEDED_T))
    def test_seeded_T_unchanged_without_bound_rows(self, seed, backend):
        import numpy as np

        rng = np.random.default_rng(seed)
        p = {j: {i: int(rng.integers(1, 30)) for i in range(4)} for j in range(12)}
        assert minimal_unrelated_T(p, backend=backend) == Fraction(self.SEEDED_T[seed])

    @pytest.mark.parametrize("backend", ["exact", "hybrid"])
    def test_load_dominated_T_either_backend(self, backend):
        p = {j: {0: 3, 1: 3, 2: 4} for j in range(7)}
        # Volume bound: T·(1/3 + 1/3 + 1/4) = 7 jobs.
        assert minimal_unrelated_T(p, backend=backend) == Fraction(84, 11)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_2approx_property(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        p = {j: {i: int(rng.integers(1, 10)) for i in range(m)} for j in range(n)}
        result = solve_unrelated_2approx(p, list(range(m)))
        assert result.makespan <= 2 * result.T_lp


class TestSemiGreedy:
    def test_solves_example(self, instance_ii1_big):
        result = solve_semi_greedy(instance_ii1_big)
        assert result.makespan >= 2  # optimum is 2
        from repro import validate_schedule

        assert validate_schedule(
            instance_ii1_big, result.assignment, result.schedule
        ).valid

    def test_requires_semi_partitioned_family(self, small_hierarchical):
        with pytest.raises(InvalidFamilyError):
            solve_semi_greedy(small_hierarchical)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_valid_schedules_random(self, seed):
        rng = rng_from_seed(seed)
        inst = random_semi_partitioned(
            rng, n=int(rng.integers(2, 7)), m=int(rng.integers(2, 4))
        )
        result = solve_semi_greedy(inst)
        from repro import validate_schedule

        assert validate_schedule(inst, result.assignment, result.schedule).valid


class TestRestrictions:
    def test_restricted_families(self, small_hierarchical):
        fam = small_hierarchical.family
        root = frozenset(range(4))
        assert restricted_family_for(small_hierarchical, "global") == [root]
        singles = restricted_family_for(small_hierarchical, "partitioned")
        assert len(singles) == 4
        semi = restricted_family_for(small_hierarchical, "semi")
        assert root in semi and len(semi) == 5
        clustered = restricted_family_for(small_hierarchical, "clustered")
        assert frozenset({0, 1}) in clustered

    def test_unknown_class_raises(self, small_hierarchical):
        with pytest.raises(InvalidFamilyError):
            restricted_family_for(small_hierarchical, "quantum")

    def test_restrict_instance_keeps_times(self, small_hierarchical):
        sub = restrict_instance(small_hierarchical, [frozenset({0})])
        assert sub.p(0, {0}) == small_hierarchical.p(0, {0})

    def test_restrict_to_unknown_set_raises(self, small_hierarchical):
        with pytest.raises(InvalidFamilyError):
            restrict_instance(small_hierarchical, [frozenset({0, 2})])

    def test_solve_restricted_hierarchical_never_worse_than_global(
        self, small_hierarchical
    ):
        comparison = compare_scheduler_classes(small_hierarchical)
        assert set(comparison) == set(SCHEDULER_CLASSES)
        hier = comparison["hierarchical"]
        glob = comparison["global"]
        assert hier.feasible
        if glob.feasible:
            # The hierarchical LP bound is at least as strong.
            assert hier.T_lp <= glob.T_lp

    def test_infeasible_class_reported_not_raised(self, instance_ii1):
        # Jobs 0/1 cannot run globally in Example II.1 (INF) — the global
        # class must come back infeasible, not crash.
        comparison = compare_scheduler_classes(instance_ii1)
        assert not comparison["global"].feasible
        assert comparison["semi"].feasible

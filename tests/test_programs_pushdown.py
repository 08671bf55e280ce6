"""Tests for the (IP-3) program builders and Lemma V.1's push-down."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    FractionalAssignment,
    Instance,
    LaminarFamily,
    minimal_fractional_T,
    solve_exact,
    verify_lp,
)
from repro.core.programs import admissible_pairs, build_ip3, feasible_lp_solution, lp_feasible
from repro.core.pushdown import push_down, push_down_once
from repro.exceptions import InfeasibleError, RoundingError
from repro.workloads import example_ii1, random_hierarchical, rng_from_seed


class TestAdmissiblePairs:
    def test_pruning(self, instance_ii1):
        pairs = admissible_pairs(instance_ii1, 1)
        assert (frozenset({0}), 0) in pairs
        assert (frozenset({0, 1}), 2) not in pairs  # p = 2 > 1
        pairs2 = admissible_pairs(instance_ii1, 2)
        assert (frozenset({0, 1}), 2) in pairs2

    def test_inf_never_admissible(self, instance_ii1):
        pairs = admissible_pairs(instance_ii1, 10**9)
        assert (frozenset({1}), 0) not in pairs


class TestLPFeasibility:
    def test_example_ii1_feasible_exactly_at_2(self, instance_ii1):
        assert not lp_feasible(instance_ii1, 1)
        assert lp_feasible(instance_ii1, 2)

    def test_feasible_solution_satisfies_lp(self, instance_ii1):
        x = feasible_lp_solution(instance_ii1, 2)
        assert x is not None
        assert verify_lp(instance_ii1, x, 2).feasible

    def test_infeasible_returns_none(self, instance_ii1):
        assert feasible_lp_solution(instance_ii1, 1) is None


class TestMinimalFractionalT:
    def test_example_ii1(self, instance_ii1):
        assert minimal_fractional_T(instance_ii1) == 2

    def test_lower_bounds_exact_optimum(self):
        rng = rng_from_seed(11)
        for _ in range(6):
            inst = random_hierarchical(rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 5)))
            T_star = minimal_fractional_T(inst)
            opt = solve_exact(inst).optimum
            assert T_star <= opt

    def test_fractional_optimum_between_breakpoints(self):
        # 3 identical jobs of length 3 on 2 machines: T* = 9/2, not a p value.
        inst = Instance.identical(2, [3, 3, 3])
        assert minimal_fractional_T(inst) == Fraction(9, 2)

    def test_single_job(self):
        inst = Instance.identical(3, [7])
        assert minimal_fractional_T(inst) == 7

    def test_unrelated_equals_collapse_bound(self):
        # For a singleton-complete family, T* equals the minimal feasible T
        # of the unrelated collapse LP (the Section V reduction, both ways).
        rng = rng_from_seed(5)
        inst = random_hierarchical(rng, n=4, m=3)
        from repro.baselines import minimal_unrelated_T

        ext = inst.with_singletons()
        p = {
            j: {i: ext.p(j, frozenset([i])) for i in range(ext.m)}
            for j in range(ext.n)
        }
        assert minimal_fractional_T(ext) == minimal_unrelated_T(p)


class TestBuildIP3:
    def test_variable_count_matches_pruning(self, instance_ii1):
        lp = build_ip3(instance_ii1, 2)
        assert lp.num_variables == len(admissible_pairs(instance_ii1, 2))

    def test_job_without_options_gets_unsatisfiable_row(self, instance_ii1):
        lp = build_ip3(instance_ii1, Fraction(1, 2))
        from repro.lp import solve_lp

        assert solve_lp(lp).status == "infeasible"


class TestPushDownOnce:
    def test_example_ii1_root(self, instance_ii1):
        root = frozenset({0, 1})
        x = FractionalAssignment(
            {(frozenset({0}), 0): 1, (frozenset({1}), 1): 1, (root, 2): 1}
        )
        pushed = push_down_once(instance_ii1, x, 2, root)
        assert pushed.value(root, 2) == 0
        assert pushed.value(frozenset({0}), 2) + pushed.value(frozenset({1}), 2) == 1
        assert verify_lp(instance_ii1, pushed, 2).feasible

    def test_proportional_to_slack(self, instance_ii1):
        root = frozenset({0, 1})
        x = FractionalAssignment(
            {(frozenset({0}), 0): 1, (frozenset({1}), 1): 1, (root, 2): 1}
        )
        # At T = 3: slack({0}) = slack({1}) = 2; equal split.
        pushed = push_down_once(instance_ii1, x, 3, root)
        assert pushed.value(frozenset({0}), 2) == Fraction(1, 2)
        assert pushed.value(frozenset({1}), 2) == Fraction(1, 2)

    def test_untouched_sets_preserved(self, small_hierarchical):
        root = frozenset(range(4))
        cluster = frozenset({0, 1})
        x = FractionalAssignment(
            {
                (root, 0): 1,
                (cluster, 1): 1,
                (frozenset({2}), 2): 1,
                (frozenset({3}), 3): 1,
                (frozenset({0}), 4): 1,
            }
        )
        T = minimal_fractional_T(small_hierarchical)
        big_T = T + 10
        pushed = push_down_once(small_hierarchical, x, big_T, root)
        assert pushed.value(cluster, 1) >= 1  # x on cluster only gains mass
        assert pushed.value(frozenset({2}), 2) == 1

    def test_singleton_target_raises(self, instance_ii1):
        x = FractionalAssignment({(frozenset({0}), 0): 1})
        with pytest.raises(RoundingError):
            push_down_once(instance_ii1, x, 5, frozenset({0}))

    def test_uncovered_children_raise(self):
        fam = LaminarFamily([0, 1, 2], [[0, 1, 2], [0, 1]])
        inst = Instance(
            fam, {0: {frozenset({0, 1}): 1, frozenset({0, 1, 2}): 1}}
        )
        x = FractionalAssignment({(frozenset({0, 1, 2}), 0): 1})
        with pytest.raises(RoundingError):
            push_down_once(inst, x, 3, frozenset({0, 1, 2}))

    def test_infeasible_input_detected(self, instance_ii1):
        root = frozenset({0, 1})
        # At T = 1 the local jobs exhaust both child slacks, yet the root
        # still carries job 2 with p_root = 2 > 0 — inequality (5) fails,
        # which only happens for (4b)-infeasible inputs.
        x = FractionalAssignment(
            {
                (frozenset({0}), 0): 1,
                (frozenset({1}), 1): 1,
                (root, 2): 1,
            }
        )
        with pytest.raises(RoundingError):
            push_down_once(instance_ii1, x, 1, root)

    def test_negative_child_slack_detected(self):
        inst = Instance.semi_partitioned(
            p_local=[[2, 2], [2, 2], [2, 2]], p_global=[2, 2, 2]
        )
        root = frozenset({0, 1})
        # Machine 0 overloaded beyond T = 3: slack({0}) = 3 − 4 < 0.
        x = FractionalAssignment(
            {
                (frozenset({0}), 0): 1,
                (frozenset({0}), 1): 1,
                (root, 2): 1,
            }
        )
        with pytest.raises(RoundingError):
            push_down_once(inst, x, 3, root)


class TestPushDownFull:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_lemma_v1_preserves_feasibility_and_lands_on_singletons(self, seed):
        rng = rng_from_seed(seed)
        inst = random_hierarchical(
            rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 5))
        )
        ext = inst.with_singletons()
        T = minimal_fractional_T(ext)
        x = feasible_lp_solution(ext, T)
        assert x is not None
        pushed = push_down(ext, x, T)
        assert pushed.supported_on_singletons()
        report = verify_lp(ext, pushed, T)
        assert report.feasible, report.violations[:3]

    def test_job_totals_preserved(self, instance_ii1):
        T = 2
        x = feasible_lp_solution(instance_ii1, T)
        pushed = push_down(instance_ii1, x, T)
        for j in range(instance_ii1.n):
            assert pushed.job_total(j) == 1

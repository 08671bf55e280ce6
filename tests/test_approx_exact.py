"""Tests for the Theorem V.2 2-approximation and the exact solver."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import (
    Instance,
    LaminarFamily,
    minimal_fractional_T,
    solve_exact,
    two_approximation,
    validate_schedule,
)
from repro.exceptions import InfeasibleError, SolverError
from repro.workloads import (
    example_ii1,
    example_v1,
    example_v1_optimal_assignment,
    random_hierarchical,
    random_semi_partitioned,
    rng_from_seed,
)


class TestSolveExact:
    def test_example_ii1_optimum(self, instance_ii1):
        result = solve_exact(instance_ii1)
        assert result.optimum == 2
        assert result.assignment[2] == frozenset({0, 1})

    def test_example_v1_series(self):
        for n in (3, 4, 6):
            inst = example_v1(n)
            result = solve_exact(inst)
            assert result.optimum == n - 1
            _opt_assign, opt = example_v1_optimal_assignment(n)
            assert result.optimum == opt

    def test_schedule_buildable(self, instance_ii1):
        result = solve_exact(instance_ii1)
        schedule = result.build_schedule(instance_ii1)
        assert validate_schedule(instance_ii1, result.assignment, schedule).valid

    def test_matches_brute_force_on_tiny_instances(self):
        from itertools import product

        from repro.core.assignment import Assignment, min_T_for_assignment

        rng = rng_from_seed(21)
        for _ in range(5):
            inst = random_hierarchical(rng, n=3, m=3)
            sets = inst.family.sets
            best = None
            for combo in product(range(len(sets)), repeat=3):
                try:
                    a = Assignment({j: sets[combo[j]] for j in range(3)})
                    T = min_T_for_assignment(inst, a)
                except Exception:
                    continue
                if best is None or T < best:
                    best = T
            assert solve_exact(inst).optimum == best

    def test_upper_bound_hint_does_not_change_result(self, instance_ii1):
        plain = solve_exact(instance_ii1)
        hinted = solve_exact(instance_ii1, upper_bound=10)
        assert plain.optimum == hinted.optimum

    def test_infeasible_job_raises(self):
        from repro import INF

        fam = LaminarFamily.global_only(2)
        inst = Instance(fam, {0: {frozenset({0, 1}): INF}})
        with pytest.raises(InfeasibleError):
            solve_exact(inst)

    def test_node_limit(self):
        rng = rng_from_seed(3)
        inst = random_hierarchical(rng, n=8, m=4)
        with pytest.raises(SolverError):
            solve_exact(inst, node_limit=2)


class TestTwoApproximation:
    def test_example_ii1(self, instance_ii1):
        result = two_approximation(instance_ii1)
        assert result.T_lp == 2
        assert result.makespan <= result.bound
        assert result.ratio_vs_lp <= 2

    def test_schedule_valid_in_extended_instance(self, instance_ii1):
        result = two_approximation(instance_ii1)
        report = validate_schedule(result.instance, result.assignment, result.schedule)
        assert report.valid

    def test_original_masks_map_back(self, instance_ii1):
        result = two_approximation(instance_ii1)
        masks = result.original_masks()
        for j in masks:
            assert masks[j] in instance_ii1.family

    def test_pushdown_certificate_path(self, instance_ii1):
        result = two_approximation(instance_ii1, use_pushdown_certificate=True)
        assert result.makespan <= 2 * result.T_lp

    def test_family_without_singletons(self):
        # Theorem V.2 requires the w.l.o.g. singleton completion; check the
        # pipeline performs it internally.
        fam = LaminarFamily([0, 1], [[0, 1]])
        inst = Instance(fam, {0: {frozenset({0, 1}): 4}, 1: {frozenset({0, 1}): 4}})
        result = two_approximation(inst)
        assert result.makespan <= result.bound
        assert result.instance.family.has_all_singletons

    def test_identical_machines_load_balance(self):
        inst = Instance.identical(3, [5, 5, 5])
        result = two_approximation(inst)
        # T* = 5; each job lands alone on a machine: makespan exactly 5.
        assert result.T_lp == 5
        assert result.makespan == 5

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_theorem_v2_bound_random_semi_partitioned(self, seed):
        rng = rng_from_seed(seed)
        inst = random_semi_partitioned(
            rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 4))
        )
        result = two_approximation(inst)
        assert result.makespan <= 2 * result.T_lp
        report = validate_schedule(result.instance, result.assignment, result.schedule)
        assert report.valid

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_theorem_v2_bound_random_hierarchical(self, seed):
        rng = rng_from_seed(seed)
        inst = random_hierarchical(
            rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 5))
        )
        result = two_approximation(inst, use_pushdown_certificate=True)
        assert result.makespan <= 2 * result.T_lp

    def test_ratio_vs_exact_at_most_2(self):
        rng = rng_from_seed(99)
        for _ in range(6):
            inst = random_hierarchical(rng, n=int(rng.integers(2, 5)), m=3)
            approx = two_approximation(inst)
            exact = solve_exact(inst)
            assert approx.makespan <= 2 * exact.optimum
            assert exact.optimum >= approx.T_lp


class TestFindAssignmentWithin:
    def test_witness_at_optimum(self, instance_ii1):
        from repro.core.exact import find_assignment_within
        from repro import min_T_for_assignment

        witness = find_assignment_within(instance_ii1, 2)
        assert witness is not None
        assert min_T_for_assignment(instance_ii1, witness) <= 2

    def test_no_witness_below_optimum(self, instance_ii1):
        from repro.core.exact import find_assignment_within

        assert find_assignment_within(instance_ii1, 1) is None

    def test_agrees_with_solve_exact_random(self):
        from fractions import Fraction

        from repro.core.exact import find_assignment_within
        from repro import solve_exact
        from repro.workloads import random_hierarchical, rng_from_seed

        rng = rng_from_seed(66)
        for _ in range(6):
            inst = random_hierarchical(rng, n=4, m=3)
            opt = solve_exact(inst).optimum
            assert find_assignment_within(inst, opt) is not None
            if opt > 0:
                assert find_assignment_within(inst, opt - Fraction(1, 1000)) is None

    def test_forced_loads_refute_before_the_search(self):
        """At T = 10 the volume slack is 20 − 19 = 1, so jobs 0 and 1 can
        only take machine 0, and 6 + 6 overflows its capacity of 10: no
        witness, decided before the search visits a node."""
        from repro.core.exact import find_assignment_within

        inst = Instance.semi_partitioned(
            p_local=[[6, 9], [6, 9], [10, 7]], p_global=[15, 15, 15]
        )
        assert find_assignment_within(inst, 10, node_limit=1) is None
        # At T = 11 the slack of 3 admits machine 1 too, so the search runs.
        with pytest.raises(SolverError):
            find_assignment_within(inst, 11, node_limit=1)
        assert find_assignment_within(inst, 10) is None

    def test_identical_jobs_refuted_without_reordering_them(self):
        """Seed 520's volume is exactly m·T, so every job takes its
        cheapest option; three machines each need the one free job of
        length 2.  Without the identical-job cut the search re-proves this
        for every ordering of the interchangeable jobs of lengths 4 and 8
        and runs out of nodes."""
        from repro.baselines.restrictions import exact_schedulable_within
        from repro.workloads.generators import utilization_workload

        inst = utilization_workload(
            rng_from_seed(520), LaminarFamily.clustered(4, 2), 1.0, 20
        )
        assert not exact_schedulable_within(
            inst, "partitioned", 20, node_limit=100_000
        )

    def test_identical_job_cut_keeps_the_witness(self):
        """On every seeded draw the plain DFS decides within its budget,
        the search returns the plain DFS's witness (or ``None`` with it)."""
        from repro.baselines.restrictions import (
            restrict_instance,
            restricted_family_for,
        )
        from repro.core.exact import find_assignment_within
        from repro.workloads.generators import utilization_workload

        decided = {True: 0, False: 0}
        for seed in range(20):
            for family in (
                LaminarFamily.clustered(4, 2),
                LaminarFamily.semi_partitioned(4),
            ):
                for u in (0.6, 0.95, 1.0):
                    inst = utilization_workload(
                        rng_from_seed(seed), family, u, 20
                    )
                    for cls in ("hierarchical", "partitioned"):
                        restricted = restrict_instance(
                            inst, restricted_family_for(inst, cls)
                        )
                        try:
                            want = _plain_witness(restricted, 20, 5_000)
                        except SolverError:
                            continue
                        got = find_assignment_within(restricted, 20)
                        assert got == want, (seed, family, u, cls)
                        decided[want is not None] += 1
        assert decided[True] >= 200 and decided[False] >= 10


def _plain_witness(instance, T, node_limit):
    """The witness search without the identical-job cut (and without the
    forced-load refutation): a job-by-job DFS over each job's options,
    cheapest first, in decreasing cheapest-time order, pruned by total
    volume.  It returns the lexicographically first feasible assignment,
    or ``None``."""
    from repro import Assignment
    from repro._fraction import is_inf

    family = instance.family
    sets = family.sets
    index = {alpha: k for k, alpha in enumerate(sets)}
    ups = [[index[a]] + [index[b] for b in family.ancestors(a)] for a in sets]
    capacity = [len(alpha) * T for alpha in sets]
    options = []
    for j in range(instance.n):
        opts = sorted(
            (Fraction(p), index[alpha])
            for alpha in sets
            for p in (instance.p(j, alpha),)
            if not is_inf(p) and Fraction(p) <= T
        )
        if not opts:
            return None
        options.append(opts)
    order = sorted(range(instance.n), key=lambda j: -options[j][0][0])
    # rest[t]: the cheapest volume of the jobs from position t on.
    rest = [sum(options[j][0][0] for j in order[t:]) for t in range(len(order))]
    rest.append(0)
    load = [Fraction(0)] * len(sets)
    chosen = {}
    nodes = 0

    def dfs(t, assigned):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SolverError("plain search gave up")
        if assigned + rest[t] > instance.m * T:
            return False
        if t == len(order):
            return True
        j = order[t]
        for p, k in options[j]:
            if any(load[a] + p > capacity[a] for a in ups[k]):
                continue
            for a in ups[k]:
                load[a] += p
            chosen[j] = sets[k]
            if dfs(t + 1, assigned + p):
                return True
            for a in ups[k]:
                load[a] -= p
        return False

    return Assignment(chosen) if dfs(0, 0) else None


class TestEdgeCases:
    def test_zero_length_jobs_through_pipeline(self):
        inst = Instance.semi_partitioned(
            p_local=[[0, 0], [2, 2]], p_global=[0, 3]
        )
        result = two_approximation(inst)
        assert result.makespan <= result.bound
        assert validate_schedule(
            result.instance, result.assignment, result.schedule
        ).valid

    def test_single_machine_instance(self):
        inst = Instance.unrelated([[3], [4]])
        result = two_approximation(inst)
        assert result.T_lp == 7
        assert result.makespan == 7
        assert solve_exact(inst).optimum == 7

    def test_single_job_prefers_cheapest_mask(self):
        inst = Instance.semi_partitioned(p_local=[[5, 2]], p_global=[6])
        result = two_approximation(inst)
        assert result.makespan == 2
        assert solve_exact(inst).optimum == 2

    def test_all_jobs_identical_times(self):
        inst = Instance.semi_partitioned(
            p_local=[[4, 4]] * 4, p_global=[4] * 4
        )
        exact = solve_exact(inst)
        assert exact.optimum == 8  # two per machine; migration buys nothing

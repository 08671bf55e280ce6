"""Tests for the rounding substrate: matching, pseudoforests, LST."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import InfeasibleError, RoundingError
from repro.rounding import (
    connected_components,
    is_pseudoforest,
    lst_round,
    maximum_bipartite_matching,
    round_fractional_solution,
)
from repro.rounding.lst import assignment_loads, build_unrelated_lp
from repro.rounding.matching import is_perfect_on_left


class TestMatching:
    def test_simple_perfect(self):
        matching = maximum_bipartite_matching({0: [10], 1: [11]})
        assert matching == {0: 10, 1: 11}

    def test_augmenting_path_needed(self):
        # Greedy 0→10 must be undone so 1 (only 10) can match.
        matching = maximum_bipartite_matching({0: [10, 11], 1: [10]})
        assert matching == {0: 11, 1: 10}

    def test_maximum_not_perfect(self):
        matching = maximum_bipartite_matching({0: [10], 1: [10]})
        assert len(matching) == 1

    def test_empty_adjacency(self):
        assert maximum_bipartite_matching({}) == {}
        assert maximum_bipartite_matching({0: []}) == {}

    def test_is_perfect_on_left(self):
        adjacency = {0: [10], 1: [10]}
        matching = maximum_bipartite_matching(adjacency)
        assert not is_perfect_on_left(adjacency, matching)
        assert is_perfect_on_left({0: [], 1: [10]}, {1: 10})

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.dictionaries(
            st.integers(0, 6),
            st.sets(st.integers(100, 106), max_size=4),
            max_size=7,
        )
    )
    def test_agrees_with_networkx(self, adjacency):
        import networkx as nx

        graph = nx.Graph()
        left = set(adjacency)
        graph.add_nodes_from(left, bipartite=0)
        for u, vs in adjacency.items():
            for v in vs:
                graph.add_edge(u, v)
        ours = maximum_bipartite_matching({u: list(vs) for u, vs in adjacency.items()})
        if graph.number_of_edges():
            theirs = nx.bipartite.maximum_matching(graph, top_nodes=left)
            theirs_size = sum(1 for k in theirs if k in left)
        else:
            theirs_size = 0
        assert len(ours) == theirs_size


class TestPseudoforest:
    def test_tree_component(self):
        comps = connected_components([(1, 2), (2, 3)])
        assert len(comps) == 1
        assert comps[0].is_pseudotree and not comps[0].has_cycle

    def test_single_cycle(self):
        comps = connected_components([(1, 2), (2, 3), (3, 1)])
        assert comps[0].has_cycle and comps[0].is_pseudotree

    def test_two_cycles_not_pseudotree(self):
        edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]
        assert not is_pseudoforest(edges)

    def test_multiple_components(self):
        comps = connected_components([(1, 2), (3, 4)])
        assert len(comps) == 2
        assert is_pseudoforest([(1, 2), (3, 4)])

    def test_empty(self):
        assert connected_components([]) == []
        assert is_pseudoforest([])


class TestBuildUnrelatedLP:
    def test_pruning_excludes_large_times(self):
        lp = build_unrelated_lp({0: {0: 1, 1: 5}}, T=3)
        assert lp.has_variable(("x", 0, 0))
        assert not lp.has_variable(("x", 1, 0))

    def test_job_without_options_infeasible(self):
        from repro.lp import solve_lp

        lp = build_unrelated_lp({0: {0: 5}}, T=3)
        assert solve_lp(lp).status == "infeasible"


class TestRoundFractionalSolution:
    def test_integral_passthrough(self):
        values = {("x", 0, 0): Fraction(1), ("x", 1, 1): Fraction(1)}
        assert round_fractional_solution(values) == {0: 0, 1: 1}

    def test_single_fractional_pair_matched(self):
        values = {
            ("x", 0, 0): Fraction(1, 2),
            ("x", 1, 0): Fraction(1, 2),
        }
        result = round_fractional_solution(values)
        assert result[0] in (0, 1)

    def test_path_component(self):
        # jobs 0,1 fractionally share machine 1 in a path 0-0-1-1-2.
        values = {
            ("x", 0, 0): Fraction(1, 2),
            ("x", 1, 0): Fraction(1, 2),
            ("x", 1, 1): Fraction(1, 2),
            ("x", 2, 1): Fraction(1, 2),
        }
        result = round_fractional_solution(values)
        assert result[0] != result[1]

    def test_cycle_component(self):
        # 2 jobs sharing machines 0 and 1 in a 4-cycle.
        values = {
            ("x", 0, 0): Fraction(1, 2),
            ("x", 1, 0): Fraction(1, 2),
            ("x", 0, 1): Fraction(1, 2),
            ("x", 1, 1): Fraction(1, 2),
        }
        result = round_fractional_solution(values)
        assert {result[0], result[1]} == {0, 1}

    def test_double_integral_raises(self):
        values = {("x", 0, 0): Fraction(1), ("x", 1, 0): Fraction(1)}
        with pytest.raises(RoundingError):
            round_fractional_solution(values)

    def test_non_basic_input_rejected(self):
        # 3 jobs × 3 machines all at 1/3: 9 edges, 6 nodes — not a pseudoforest.
        values = {
            ("x", i, j): Fraction(1, 3) for i in range(3) for j in range(3)
        }
        with pytest.raises(RoundingError):
            round_fractional_solution(values)


class TestLSTRound:
    def test_infeasible_horizon_raises(self):
        with pytest.raises(InfeasibleError):
            lst_round({0: {0: 5}}, T=3)

    def test_load_bound_2T(self):
        p = {
            0: {0: 3, 1: 3},
            1: {0: 3, 1: 3},
            2: {0: 3, 1: 3},
        }
        T = Fraction(9, 2)
        mapping = lst_round(p, T)
        loads = assignment_loads(p, mapping)
        assert all(load <= 2 * T for load in loads.values())
        assert set(mapping) == {0, 1, 2}

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 10**6))
    def test_bound_holds_on_random_instances(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        p = {
            j: {i: int(rng.integers(1, 12)) for i in range(m)} for j in range(n)
        }
        from repro.baselines import minimal_unrelated_T

        T = minimal_unrelated_T(p)
        mapping = lst_round(p, T)
        loads = assignment_loads(p, mapping)
        assert set(mapping) == set(range(n))
        assert all(load <= 2 * T for load in loads.values())
        # Every job placed on a machine with p_ij ≤ T (the pruning).
        for j, i in mapping.items():
            assert p[j][i] <= T

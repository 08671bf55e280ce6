"""Tests for the certified hybrid backend and the fraction-free simplex."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from _int_rows import random_lp, scaled
from repro.exceptions import SolverError
from repro.lp import (
    BACKENDS,
    LinearProgram,
    feasible_point_rows,
    solve_lp,
    solve_standard,
    solve_standard_hybrid,
)
from repro.lp.revised import _point_hints


def _feasible_point(lp, backend):
    """A certified feasible point of *lp* keyed by variable, or ``None``."""
    rows, senses, rhs, _objective = lp.to_standard_rows()
    point, _farkas = feasible_point_rows(
        rows, senses, rhs, lp.num_variables, backend=backend
    )
    if point is None:
        return None
    return {key: point[lp.index_of(key)] for key in lp.variable_keys}


def _knapsack_lp():
    lp = LinearProgram()
    lp.add_variable("x", ub=2)
    lp.add_variable("y", ub=3)
    lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
    lp.set_objective({"x": -1, "y": -1})
    return lp


class TestHybridBackend:
    def test_registered(self):
        assert "hybrid" in BACKENDS

    def test_agrees_with_exact_on_optimum(self):
        lp = _knapsack_lp()
        exact = solve_lp(lp, backend="exact")
        hybrid = solve_lp(lp, backend="hybrid")
        assert hybrid.status == "optimal"
        assert hybrid.objective == exact.objective
        # Values are exact rationals, not rationalized floats.
        assert all(isinstance(v, Fraction) for v in hybrid.values.values())

    def test_infeasible_verdict_confirmed_exactly(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        assert solve_lp(lp, backend="hybrid").status == "infeasible"
        assert _feasible_point(lp, backend="hybrid") is None

    def test_unbounded(self):
        result = solve_standard_hybrid(*scaled(
            coeff_rows=[], senses=[], rhs=[], objective=[Fraction(-1)]
        ))
        assert result.status == "unbounded"

    def test_returns_basic_solution(self):
        # A vertex has at most (#rows) nonzeros — the property LST needs.
        rows = [{j: Fraction(1) for j in range(6)}, {0: Fraction(1), 3: Fraction(2)}]
        result = solve_standard_hybrid(*scaled(
            coeff_rows=rows,
            senses=["==", "<="],
            rhs=[Fraction(4), Fraction(3)],
            objective=[Fraction(0)] * 6,
        ))
        assert result.status == "optimal"
        assert sum(1 for v in result.x if v != 0) <= 2

    def test_fractional_vertex_exact(self):
        # Optimum at (8/5, 6/5): rationalization must recover it exactly.
        result = solve_standard_hybrid(*scaled(
            coeff_rows=[
                {0: Fraction(1), 1: Fraction(2)},
                {0: Fraction(3), 1: Fraction(1)},
            ],
            senses=["<=", "<="],
            rhs=[Fraction(4), Fraction(6)],
            objective=[Fraction(-1), Fraction(-1)],
        ))
        assert result.objective == Fraction(-14, 5)
        assert result.x == [Fraction(8, 5), Fraction(6, 5)]


class TestWarmStart:
    def test_warm_values_do_not_change_result(self):
        lp = _knapsack_lp()
        cold = solve_lp(lp, backend="exact")
        warm = solve_lp(lp, backend="exact", warm_values=cold.values)
        assert warm.objective == cold.objective
        assert warm.values == cold.values

    def test_bad_warm_values_are_harmless(self):
        lp = _knapsack_lp()
        nonsense = {"x": Fraction(10**6), "y": Fraction(1, 10**6)}
        warm = solve_lp(lp, backend="exact", warm_values=nonsense)
        assert warm.objective == solve_lp(lp, backend="exact").objective

    def test_warm_start_skips_pivots(self):
        # An equality program needs phase-1 work from a cold start; seeded
        # with the optimal point it should need no more pivots.
        rows = [{j: Fraction(1) for j in range(8)}, {0: Fraction(1), 4: Fraction(1)}]
        senses = ["==", ">="]
        rhs = [Fraction(5), Fraction(1)]
        objective = [Fraction(j + 1) for j in range(8)]
        cold = solve_standard(*scaled(rows, senses, rhs, objective))
        warm = solve_standard(*scaled(rows, senses, rhs, objective), warm_point=cold.x)
        assert warm.objective == cold.objective
        assert warm.pivots <= cold.pivots

    def test_point_hints_order(self):
        hints = _point_hints([Fraction(0), Fraction(1, 2), Fraction(3), Fraction(0)])
        assert hints == [2, 1]


class TestCheckValues:
    def test_certifies_feasible_point(self):
        lp = _knapsack_lp()
        assert lp.check_values({"x": Fraction(2), "y": Fraction(1)}) == []

    def test_detects_row_violation(self):
        lp = _knapsack_lp()
        violations = lp.check_values({"x": Fraction(2), "y": Fraction(3)})
        assert violations and "violated" in violations[0]

    def test_detects_bound_violation(self):
        lp = _knapsack_lp()
        assert lp.check_values({"x": Fraction(-1)})
        assert lp.check_values({"y": Fraction(4)})

    def test_hairline_violation_caught(self):
        # A point off by 10^-12 — invisible to float tolerances, caught
        # exactly.  This is the float-propagation bug the re-check closes.
        lp = LinearProgram()
        lp.add_variable("x")
        lp.add_constraint({"x": 1}, "<=", 1)
        assert lp.check_values({"x": Fraction(1)}) == []
        assert lp.check_values({"x": 1 + Fraction(1, 10**12)})


class TestFeasiblePoint:
    def test_point_is_exactly_feasible(self):
        lp = _knapsack_lp()
        for backend in ("exact", "hybrid"):
            point = _feasible_point(lp, backend=backend)
            assert point is not None
            assert lp.check_values(point) == []

    def test_none_on_infeasible(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({"x": 1}, ">=", 2)
        for backend in ("exact", "hybrid"):
            assert _feasible_point(lp, backend=backend) is None

    def test_empty_row_infeasibility(self):
        # The builders encode "job has no options" as {} == 1.
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.add_constraint({}, "==", 1)
        for backend in ("exact", "hybrid"):
            assert _feasible_point(lp, backend=backend) is None


class TestPivotAccounting:
    def test_pivots_reported(self):
        result = solve_standard(*scaled(
            coeff_rows=[{0: Fraction(1), 1: Fraction(2)}],
            senses=["<="],
            rhs=[Fraction(4)],
            objective=[Fraction(-1), Fraction(-1)],
        ))
        assert result.status == "optimal"
        assert result.pivots >= 1

    def test_unknown_backend_still_raises(self):
        lp = _knapsack_lp()
        with pytest.raises(SolverError):
            solve_lp(lp, backend="cplex")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_hybrid_agrees_with_exact_exactly(data):
    """Status and optimum match to exact equality — the certification claim."""
    rows, senses, rhs, objective = data
    exact = solve_standard(*scaled(rows, senses, rhs, objective))
    hybrid = solve_standard_hybrid(*scaled(rows, senses, rhs, objective))
    assert exact.status == hybrid.status
    if exact.status == "optimal":
        assert exact.objective == hybrid.objective

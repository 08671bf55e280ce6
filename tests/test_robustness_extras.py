"""Final robustness batch: degenerate LPs and fractional-time instances."""

from fractions import Fraction

import pytest
from _int_rows import scaled

from repro import (
    Assignment,
    Instance,
    min_T_for_assignment,
    schedule_hierarchical,
    solve_exact,
    two_approximation,
    validate_schedule,
)
from repro.lp import LinearProgram, solve_lp, solve_standard


class TestDegenerateLPs:
    def test_zero_rhs_degenerate_vertex(self):
        # Multiple constraints tight at the origin — classic degeneracy.
        result = solve_standard(*scaled(
            coeff_rows=[
                {0: Fraction(1), 1: Fraction(-1)},
                {0: Fraction(-1), 1: Fraction(1)},
                {0: Fraction(1), 1: Fraction(1)},
            ],
            senses=["<=", "<=", "<="],
            rhs=[Fraction(0), Fraction(0), Fraction(2)],
            objective=[Fraction(-1), Fraction(-1)],
        ))
        assert result.status == "optimal"
        assert result.objective == -2  # x = y = 1

    def test_beale_style_cycling_candidate(self):
        # Beale's classic cycling constraint matrix (harmless under our
        # Bland switch-over); cross-check the exact optimum against HiGHS.
        from repro.lp.scipy_backend import solve_standard_float

        rows = [
            {0: Fraction(1, 4), 1: Fraction(-8), 2: Fraction(-1), 3: Fraction(9)},
            {0: Fraction(1, 2), 1: Fraction(-12), 2: Fraction(-1, 2), 3: Fraction(3)},
            {2: Fraction(1)},
        ]
        senses = ["<=", "<=", "<="]
        rhs = [Fraction(0), Fraction(0), Fraction(1)]
        objective = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)]
        result = solve_standard(*scaled(rows, senses, rhs, objective))
        assert result.status == "optimal"
        assert result.objective == Fraction(-77, 100)
        floaty = solve_standard_float(*scaled(rows, senses, rhs, objective))
        assert floaty.objective == result.objective

    def test_empty_objective_feasibility(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=5)
        lp.add_constraint({"x": 1}, ">=", 2)
        solution = solve_lp(lp)
        assert solution.is_optimal
        assert 2 <= solution.value("x") <= 5

    def test_all_equality_square_system(self):
        result = solve_standard(*scaled(
            coeff_rows=[
                {0: Fraction(2), 1: Fraction(1)},
                {0: Fraction(1), 1: Fraction(3)},
            ],
            senses=["==", "=="],
            rhs=[Fraction(5), Fraction(10)],
            objective=[Fraction(0), Fraction(0)],
        ))
        assert result.status == "optimal"
        assert result.x == [Fraction(1), Fraction(3)]


class TestFractionalTimeInstances:
    @pytest.fixture
    def frac_instance(self):
        # All processing times are non-integer rationals.
        return Instance.semi_partitioned(
            p_local=[
                [Fraction(3, 2), Fraction(5, 2)],
                [Fraction(7, 3), Fraction(4, 3)],
                [Fraction(1, 2), Fraction(1, 2)],
            ],
            p_global=[Fraction(5, 2), Fraction(7, 3), Fraction(3, 4)],
        )

    def test_exact_solver(self, frac_instance):
        result = solve_exact(frac_instance)
        schedule = result.build_schedule(frac_instance)
        assert validate_schedule(
            frac_instance, result.assignment, schedule
        ).valid

    def test_two_approximation(self, frac_instance):
        result = two_approximation(frac_instance)
        assert result.makespan <= 2 * result.T_lp
        assert validate_schedule(
            result.instance, result.assignment, result.schedule
        ).valid

    def test_schedulers_exact_arithmetic(self, frac_instance):
        root = frozenset({0, 1})
        assignment = Assignment({0: {0}, 1: {1}, 2: root})
        T = min_T_for_assignment(frac_instance, assignment)
        schedule = schedule_hierarchical(frac_instance, assignment, T)
        report = validate_schedule(frac_instance, assignment, schedule, T=T)
        assert report.valid
        # Delivered work is exactly the rational processing times.
        assert schedule.work_of(2) == Fraction(3, 4)

    def test_monotonicity_applies_to_fractions(self):
        from repro.exceptions import MonotonicityError

        with pytest.raises(MonotonicityError):
            Instance.semi_partitioned(
                p_local=[[Fraction(3, 2), Fraction(3, 2)]],
                p_global=[Fraction(4, 3)],
            )

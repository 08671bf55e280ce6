"""Regression tests: degenerate inputs to the T-search and INF guard rails.

Satellites of the certified-hybrid PR:

* ``minimal_fractional_T`` must resolve degenerate instances exactly
  (all-INF rows, zero-volume jobs, ``T* = 0``) instead of probing a vacuous
  binary search;
* the INF sentinel must surface as a domain error
  (:class:`InvalidInstanceError`), never as ``to_fraction``'s bare
  ``ValueError``.
"""

from fractions import Fraction

import pytest

from repro import INF, Instance, LaminarFamily, minimal_fractional_T
from repro._fraction import to_fraction_finite
from repro.exceptions import InvalidInstanceError


def _family2():
    return LaminarFamily([0, 1], [[0, 1], [0], [1]])


class TestDegenerateMinimalT:
    def test_all_inf_row_raises_domain_error(self):
        # Job 1 can run nowhere: structural, not a matter of the horizon.
        fam = _family2()
        inst = Instance(
            fam,
            {
                0: {frozenset({0, 1}): 2, frozenset({0}): 1, frozenset({1}): 1},
                1: {frozenset({0, 1}): INF, frozenset({0}): INF, frozenset({1}): INF},
            },
        )
        with pytest.raises(InvalidInstanceError, match="no finite processing time"):
            minimal_fractional_T(inst)

    def test_all_inf_row_raises_for_every_backend(self):
        fam = LaminarFamily.global_only(2)
        inst = Instance(fam, {0: {frozenset({0, 1}): INF}})
        for backend in ("exact", "hybrid"):
            with pytest.raises(InvalidInstanceError):
                minimal_fractional_T(inst, backend=backend)

    def test_zero_volume_instance_returns_exact_zero(self):
        inst = Instance.identical(3, [0, 0, 0, 0])
        t_star = minimal_fractional_T(inst)
        assert t_star == 0
        assert isinstance(t_star, Fraction)

    def test_mixed_zero_and_inf_entries_zero_optimum(self):
        # Finite times are all 0, but some pairs are forbidden: still T*=0.
        fam = _family2()
        inst = Instance(
            fam,
            {
                0: {frozenset({0, 1}): INF, frozenset({0}): 0, frozenset({1}): INF},
                1: {frozenset({0, 1}): INF, frozenset({0}): INF, frozenset({1}): 0},
            },
        )
        assert minimal_fractional_T(inst) == 0

    def test_single_zero_job(self):
        inst = Instance.identical(2, [0])
        assert minimal_fractional_T(inst) == 0

    def test_nondegenerate_path_unchanged(self):
        # The guards must not disturb the ordinary search.
        inst = Instance.identical(2, [3, 3, 3])
        assert minimal_fractional_T(inst) == Fraction(9, 2)


class TestInfGuards:
    def test_to_fraction_finite_passthrough(self):
        assert to_fraction_finite(Fraction(3, 2)) == Fraction(3, 2)
        assert to_fraction_finite(2) == 2

    def test_to_fraction_finite_inf(self):
        with pytest.raises(InvalidInstanceError, match="INF sentinel"):
            to_fraction_finite(INF, "processing time of job 3")

    def test_to_fraction_finite_nan(self):
        with pytest.raises(InvalidInstanceError, match="NaN"):
            to_fraction_finite(float("nan"))

    def test_message_names_the_quantity(self):
        with pytest.raises(InvalidInstanceError, match="length of job 1"):
            to_fraction_finite(INF, "length of job 1")

    def test_mcnaughton_rejects_inf_as_domain_error(self):
        from repro.baselines import mcnaughton_makespan

        with pytest.raises(InvalidInstanceError):
            mcnaughton_makespan([1, INF, 2], 2)

    def test_list_schedule_rejects_inf_as_domain_error(self):
        from repro.baselines import list_schedule

        with pytest.raises(InvalidInstanceError):
            list_schedule([1, INF], 2)

    def test_assignment_loads_rejects_inf_as_domain_error(self):
        from repro.rounding.lst import assignment_loads

        p = {0: {0: 1, 1: INF}}
        with pytest.raises(InvalidInstanceError):
            assignment_loads(p, {0: 1})

"""The full Lenstra–Shmoys–Tardos 2-approximation for ``R||Cmax``.

The smallest horizon at which the assignment LP is feasible, then the
rounding of :mod:`repro.rounding.lst`.  The assignment LP is (IP-3) on the
family of singletons, so :func:`minimal_unrelated_T` builds that instance
and delegates to :func:`repro.core.programs.minimal_fractional_T`, the one
breakpoint search.  This is simultaneously

* the classical algorithm the paper builds Theorem V.2 on,
* the *partitioned scheduling* reference in experiment E12, and
* the engine of the Section II 8-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Union

from .._fraction import is_inf
from ..core.instance import Instance
from ..core.laminar import LaminarFamily
from ..core.programs import minimal_fractional_T
from ..exceptions import InfeasibleError
from ..rounding.lst import lst_round
from ..schedule.schedule import Schedule
from .partitioned import partition_schedule

PMatrix = Mapping[int, Mapping[int, Union[int, Fraction, float]]]


@dataclass
class LSTResult:
    T_lp: Fraction
    """Smallest LP-feasible horizon — a lower bound on the optimum."""

    placement: Dict[int, int]
    makespan: Fraction
    schedule: Schedule

    @property
    def bound(self) -> Fraction:
        return 2 * self.T_lp

    @property
    def ratio_vs_lp(self) -> Fraction:
        return self.makespan / self.T_lp if self.T_lp else Fraction(0)


def minimal_unrelated_T(p: PMatrix, backend: str = "exact") -> Fraction:
    """Smallest horizon at which the R||Cmax assignment LP is feasible.

    That LP (:func:`~repro.rounding.lst.build_unrelated_lp`: one assignment
    row per job, one ``Σ_j p_ij x_ij ≤ T`` row per machine) is (IP-3) on
    the singletons over the machines with a finite time, so this is
    :func:`~repro.core.programs.minimal_fractional_T` of that instance.
    Raises :class:`InfeasibleError` when the matrix has no finite time or
    some job has none.
    """
    machines = sorted({i for row in p.values() for i, v in row.items() if not is_inf(v)})
    if not machines:
        raise InfeasibleError("no finite processing time in the matrix")
    processing = {}
    for k, j in enumerate(sorted(p)):
        processing[k] = {(i,): v for i, v in p[j].items() if not is_inf(v)}
        if not processing[k]:
            raise InfeasibleError(f"job {j} has no finite processing time")
    family = LaminarFamily(machines, [[i] for i in machines])
    return minimal_fractional_T(Instance(family, processing), backend=backend)


def solve_unrelated_2approx(
    p: PMatrix,
    machines: Sequence[int],
    backend: str = "exact",
) -> LSTResult:
    """Run the full LST algorithm; the makespan is at most ``2·T_lp``."""
    T_lp = minimal_unrelated_T(p, backend=backend)
    placement = lst_round(p, T_lp, backend=backend)
    schedule = partition_schedule(p, machines, placement)
    return LSTResult(
        T_lp=T_lp,
        placement=placement,
        makespan=schedule.makespan(),
        schedule=schedule,
    )

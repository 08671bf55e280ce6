"""The full Lenstra–Shmoys–Tardos 2-approximation for ``R||Cmax``.

Binary search over the processing-time breakpoints, from the first one at
or above the matrix's trivial lower bound, for the smallest horizon at which
the assignment LP is feasible, then the rounding of
:mod:`repro.rounding.lst`.  This is simultaneously

* the classical algorithm the paper builds Theorem V.2 on,
* the *partitioned scheduling* reference in experiment E12, and
* the engine of the Section II 8-approximation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError
from ..lp.solve import solve_lp
from ..rounding.lst import build_unrelated_lp, lst_round
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


def _lower_bound(p: PMatrix) -> Fraction:
    """``max(max_j min_i p_ij, Σ_j min_i p_ij / #machines with a finite time)``.

    A lower bound on the LP's smallest feasible horizon: each job needs one
    machine with ``p_ij ≤ T``, and summing the machine rows with the
    assignment rows gives ``Σ_j min_i p_ij ≤ #machines·T``.  Jobs without a
    finite time are skipped; the LP is infeasible for them at any ``T``.
    """
    mins = [
        min(to_fraction(v) for v in row.values() if not is_inf(v))
        for row in p.values()
        if any(not is_inf(v) for v in row.values())
    ]
    machines = {i for row in p.values() for i, v in row.items() if not is_inf(v)}
    return max(max(mins), sum(mins, Fraction(0)) / len(machines))


def _min_T_lp_above(
    p: PMatrix, anchor: Fraction, t_low: Fraction, backend: str
) -> Fraction:
    """Minimize T over the assignment LP with ``R = R(anchor)``, ``T ≥ t_low``."""
    from ..lp.model import LinearProgram

    t_key = ("__T__",)
    lp = LinearProgram()
    lp.add_variable(t_key, lb=0)
    machines = {}
    for j in sorted(p):
        allowed = []
        for i in sorted(p[j]):
            value = p[j][i]
            if not is_inf(value) and to_fraction(value) <= anchor:
                # ub implied by the assignment row (see build_unrelated_lp).
                lp.add_variable(("x", i, j), lb=0)
                allowed.append(i)
                machines.setdefault(i, []).append(j)
        if not allowed:
            raise InfeasibleError(f"job {j} cannot run anywhere within {anchor}")
        lp.add_constraint({("x", i, j): 1 for i in allowed}, "==", 1)
    for i in sorted(machines):
        row = {("x", i, j): to_fraction(p[j][i]) for j in machines[i]}
        row[t_key] = Fraction(-1)
        lp.add_constraint(row, "<=", 0)
    lp.add_constraint({t_key: 1}, ">=", t_low)
    lp.set_objective({t_key: 1})
    solution = solve_lp(lp, backend=backend)
    if not solution.is_optimal:  # pragma: no cover - always feasible for T big
        raise InfeasibleError("min-T assignment LP failed")
    return to_fraction(solution.value(t_key))


def minimal_unrelated_T(p: PMatrix, backend: str = "exact") -> Fraction:
    """Smallest horizon at which the R||Cmax assignment LP is feasible.

    Binary search over the processing-time breakpoints at or above the
    trivial lower bound ``LB`` (every one below it is infeasible); when the
    load bound dominates (optimum above every processing time), a min-T LP
    with the full pruning set settles the exact value.  An anchor equal to
    ``LB`` is the optimum, with no min-T LP.
    """
    finite = sorted(
        {
            to_fraction(v)
            for row in p.values()
            for v in row.values()
            if not is_inf(v)
        }
    )
    if not finite:
        raise InfeasibleError("no finite processing time in the matrix")
    lower = _lower_bound(p)
    lo, hi = bisect_left(finite, lower), len(finite) - 1
    if lo > hi or not solve_lp(
        build_unrelated_lp(p, finite[hi]), backend=backend
    ).is_optimal:
        return _min_T_lp_above(p, finite[hi], max(finite[hi], lower), backend)
    while lo < hi:
        mid = (lo + hi) // 2
        if solve_lp(build_unrelated_lp(p, finite[mid]), backend=backend).is_optimal:
            hi = mid
        else:
            lo = mid + 1
    anchor = finite[lo]
    if anchor == lower:
        return anchor
    if lo > 0:
        # The optimum may sit strictly inside the previous bracket, where
        # the pruning set is smaller but the load bound is the binding one.
        prev = finite[lo - 1]
        try:
            t_prev = _min_T_lp_above(p, prev, max(prev, lower), backend)
        except InfeasibleError:
            t_prev = None
        if t_prev is not None and t_prev < anchor:
            return t_prev
    return anchor


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

"""Reference oracle: the search's trapped-demand bound, straight from ``inst.p``.

An independent re-derivation of the bound ``B`` that ``minimal_fractional_T``
starts from.  For every bracket ``[b_{k-1}, b_k)`` of consecutive
breakpoints it recomputes each job's trap from scratch (the minimal family
set containing *all* the job's masks with ``p ≤ b_{k-1}``), sums the
cheapest times of the jobs trapped inside each family set directly, and
scans the brackets upward from the one holding ``LB`` for the first whose
``g_k = max_α D_k(α)/|α|`` stays below ``b_k``.  Then
``B = max(LB, b_{k-1}, g_k)``.  It shares no code with ``IP3Builder``: no
trap steps, no bisection, no bottom-up accumulation.

:func:`cheapest_pairs_feasible` is the oracle of the search's max-flow
(``IP3Builder.cheapest_flow``): the decision LP at ``T`` restricted to each
job's cheapest pairs, built as a keyed ``LinearProgram`` from ``inst.p``
and solved exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from repro._fraction import is_inf
from repro.core.instance import Instance
from repro.lp import LinearProgram, solve_lp


def breakpoints(inst: Instance) -> List[Fraction]:
    return sorted({
        Fraction(inst.p(j, alpha))
        for j in range(inst.n)
        for alpha in inst.family.sets
        if not is_inf(inst.p(j, alpha))
    })


def cheapest(inst: Instance) -> List[Fraction]:
    """``min_α p_αj`` per job."""
    return [
        min(Fraction(inst.p(j, a)) for a in inst.family.sets if not is_inf(inst.p(j, a)))
        for j in range(inst.n)
    ]


def trivial_lower(inst: Instance) -> Fraction:
    """``max(max_j min_α p_αj, Σ_j min_α p_αj / m)``."""
    return max(max(cheapest(inst)), volume_bound(inst))


def volume_bound(inst: Instance) -> Fraction:
    """``Σ_j min_α p_αj / m``, the volume term of :func:`trivial_lower`."""
    return sum(cheapest(inst), Fraction(0)) / inst.m


def cheapest_pairs_feasible(inst: Instance, T: Fraction) -> bool:
    """Whether (IP-3)'s LP relaxation at *T* has a point that puts every job
    only on pairs with its cheapest time (exact backend)."""
    family = inst.family
    lp = LinearProgram()
    for j, c in enumerate(cheapest(inst)):
        keys = [
            ("x", a, j) for a in family.sets
            if not is_inf(inst.p(j, a)) and inst.p(j, a) == c and c <= T
        ]
        if not keys:
            return False
        for key in keys:
            lp.add_variable(key)
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for alpha in family.sets:
        row = {
            ("x", beta, j): inst.p(j, beta)
            for beta in family.subsets_of(alpha)
            for j in range(inst.n)
            if lp.has_variable(("x", beta, j))
        }
        lp.add_constraint(row, "<=", len(alpha) * T)
    return solve_lp(lp, backend="exact").is_optimal


def demand_bound(inst: Instance) -> Fraction:
    family = inst.family
    points = breakpoints(inst)
    lower = trivial_lower(inst)
    costs = cheapest(inst)
    for k in range(1, len(points) + 1):
        r = points[k - 1]
        cap = points[k] if k < len(points) else None
        if cap is not None and cap <= lower:
            continue  # the whole bracket lies below LB
        traps = []
        for j in range(inst.n):
            masks = [
                a for a in family.sets
                if not is_inf(inst.p(j, a)) and inst.p(j, a) <= r
            ]
            if not masks:
                break  # some job has no option: the bracket is infeasible
            traps.append(family.minimal_containing(frozenset().union(*masks)))
        else:
            g = max(
                sum(
                    (c for c, t in zip(costs, traps) if t is not None and t <= alpha),
                    Fraction(0),
                ) / len(alpha)
                for alpha in family.sets
            )
            if cap is None or g < cap:
                return max(lower, r, g)
    raise AssertionError("the bracket above the top breakpoint is never refuted")

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
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from repro._fraction import is_inf
from repro.core.instance import Instance


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

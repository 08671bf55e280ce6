"""Demand-bound profiles: the *necessary* side of the analytic test.

By Theorem IV.3 the (IP-2) constraints are necessary and sufficient, so any
quantity that lower-bounds the left-hand side of a (2b)/(2c) constraint in
**every** assignment with makespan ≤ ``T`` yields a sound refutation: if the
bound already exceeds the capacity, no assignment exists and the exact
search (:func:`repro.core.exact.find_assignment_within`) is guaranteed to
return ``None``.  This module computes four such bounds, all polynomial and
all exact Fractions:

* **no feasible mask** — a job whose every admissible set has ``P = ∞`` or
  ``P > T`` violates (2c) outright;
* **trapped-job demand** — every feasible mask of job *j* lies inside the
  minimal family set containing their union (``lca(j)``), so *j* contributes
  at least its cheapest feasible time to the nested volume of every
  ``α ⊇ lca(j)``; summing over jobs gives a demand-bound function ``D(α)``
  that must satisfy ``D(α) ≤ |α|·T`` (the per-level aggregation the busy
  window of the pycpa idiom iterates — here demand is load-independent, so
  the fixpoint is the sum itself);
* **total volume** — every mask lies inside some root, so the cheapest
  total volume must fit in ``T · Σ_roots |root|``;
* **heavy-singleton pigeonhole** — two jobs that can *only* run pinned and
  each need more than ``T/2`` cannot share a machine, so the heavy pinned
  jobs need at least as many distinct machines as there are such jobs.

The first three are **LP-valid**: they also hold for (IP-3)'s LP
relaxation, where a job may be split across its masks.  A split job still
puts at least its cheapest time into the load row of every set that
contains all its masks, and the total-volume test is the same argument
summed over the roots.  So they also bound the relaxation's ``T*``, and
:meth:`repro.core.programs.IP3Builder.demand_bound` uses them, over every
horizon at once, to start the ``T*`` search (total volume there is the
lower value of :meth:`~repro.core.instance.Instance.trivial_bounds`).
The pigeonhole test is **integral-only**: the LP may split heavy pinned
jobs across machines (three jobs of ``0.6·T`` fit fractionally on two), so
the search must not use it.  The ``D(α)`` accumulation itself is
:meth:`~repro.core.laminar.LaminarFamily.trapped_demand`, shared by both.

The profile is also the shared preprocessing for the constructive side
(:mod:`repro.rta.packing`): per-job feasible options, cheapest times, and
the demand accumulated per family set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..core.instance import Instance
from ..core.laminar import MachineSet

#: One feasible choice for a job: ``(processing time, mask)`` with the time
#: finite and ≤ T.  Options are kept sorted cheapest-first with larger masks
#: breaking ties (deterministic across runs).
Option = Tuple[Fraction, MachineSet]


def _option_key(option: Option):
    p, alpha = option
    return (p, -len(alpha), sorted(alpha))


@dataclass
class DemandProfile:
    """Everything the analytic tests need to know about ``(instance, T)``."""

    T: Fraction
    options: Tuple[Tuple[Option, ...], ...]
    """Per job: feasible ``(p, mask)`` choices, cheapest-first."""

    min_feasible: Tuple[Fraction, ...]
    """Cheapest feasible time per job (0 for jobs with no option)."""

    trap: Tuple[Optional[MachineSet], ...]
    """Per job: the minimal family set containing every feasible mask
    (``None`` when no single family set does, e.g. options across two
    disjoint roots, or when the job has no option)."""

    demand: Dict[MachineSet, Fraction]
    """``D(α) = Σ_{j : trap(j) ⊆ α} min_feasible(j)`` for every family set."""

    no_option: Tuple[int, ...]
    """Jobs with no feasible ``(p ≤ T)`` mask at all."""

    def capacity(self, alpha: MachineSet) -> Fraction:
        """The (2b) right-hand side ``|α|·T``."""
        return len(alpha) * self.T

    def demand_margin(self) -> Fraction:
        """``max_α D(α) / (|α|·T)`` — how full the tightest level is."""
        if self.T <= 0:
            return Fraction(0)
        worst = Fraction(0)
        for alpha, d in self.demand.items():
            worst = max(worst, Fraction(d, len(alpha) * self.T))
        return worst


def demand_profile(instance: Instance, T: Union[int, Fraction]) -> DemandProfile:
    """Precompute the per-job option lists and the demand-bound function."""
    T = to_fraction(T)
    family = instance.family
    options: List[Tuple[Option, ...]] = []
    min_feasible: List[Fraction] = []
    trap: List[Optional[MachineSet]] = []
    no_option: List[int] = []
    for j in range(instance.n):
        opts: List[Option] = []
        for alpha in family.sets:
            p = instance.p(j, alpha)
            if not is_inf(p) and to_fraction(p) <= T:
                opts.append((to_fraction(p), alpha))
        opts.sort(key=_option_key)
        options.append(tuple(opts))
        if not opts:
            no_option.append(j)
            min_feasible.append(Fraction(0))
            trap.append(None)
            continue
        min_feasible.append(opts[0][0])
        union = frozenset().union(*(alpha for _p, alpha in opts))
        trap.append(family.minimal_containing(union))

    demand = family.trapped_demand(zip(trap, min_feasible))

    return DemandProfile(
        T=T,
        options=tuple(options),
        min_feasible=tuple(min_feasible),
        trap=tuple(trap),
        demand=demand,
        no_option=tuple(no_option),
    )


def infeasibility_witness(
    instance: Instance, profile: DemandProfile
) -> Optional[Dict[str, object]]:
    """The first violated necessary condition, or ``None`` if all hold.

    The returned dict is the UNSCHEDULABLE certificate: a named test plus
    the exact Fractions of the violated inequality, so a verdict can be
    audited without re-running the analysis.
    """
    T = profile.T
    family = instance.family

    if profile.no_option:
        j = profile.no_option[0]
        return {
            "test": "no-feasible-mask",
            "detail": f"job {j} has no admissible set with P ≤ {T}",
            "job": j,
            "lhs": None,
            "rhs": T,
        }

    # Per-set demand bound, checked top-down so the widest violated level
    # (the most informative one) is reported.
    for alpha in family.top_down():
        d = profile.demand[alpha]
        cap = profile.capacity(alpha)
        if d > cap:
            return {
                "test": "demand-bound",
                "detail": f"trapped demand of α={sorted(alpha)} exceeds |α|·T",
                "set": alpha,
                "lhs": d,
                "rhs": cap,
            }

    # Cheapest total volume vs the capacity of the whole forest (catches
    # jobs whose options straddle several roots and so have no trap set).
    total = sum(profile.min_feasible, Fraction(0))
    forest_cap = sum((len(r) * T for r in family.roots), Fraction(0))
    if total > forest_cap:
        return {
            "test": "total-volume",
            "detail": "cheapest total volume exceeds the forest capacity",
            "lhs": total,
            "rhs": forest_cap,
        }

    # Pigeonhole over heavy pinned jobs: each needs > T/2 on a singleton and
    # has no non-singleton escape, so no two of them can share a machine.
    heavy = [
        j
        for j in range(instance.n)
        if profile.options[j]
        and all(len(alpha) == 1 for _p, alpha in profile.options[j])
        and 2 * profile.min_feasible[j] > T
    ]
    if heavy:
        machines = frozenset().union(
            *(alpha for j in heavy for _p, alpha in profile.options[j])
        )
        if len(heavy) > len(machines):
            return {
                "test": "heavy-singleton-pigeonhole",
                "detail": (
                    f"{len(heavy)} pinned jobs heavier than T/2 share only "
                    f"{len(machines)} machines"
                ),
                "jobs": tuple(heavy),
                "lhs": Fraction(len(heavy)),
                "rhs": Fraction(len(machines)),
            }

    return None

"""Algorithms 2 and 3 of the paper — the hierarchical two-phase scheduler.

**Phase one** (Algorithm 2, bottom-up) decides, for every admissible set
``α`` and machine ``i ∈ α``, how much of the volume assigned to ``α`` runs on
``i`` (``LOAD[i, α]``).  Machines are filled in ascending order up to the
residual capacity ``T − TOT-LOAD[i, β]`` left by the sets below, so after the
round every machine that received α-volume is full except possibly the last —
which is exactly why Lemma IV.2 holds: per set, at most one machine is shared
with an ancestor.

**Phase two** (Algorithm 3, top-down) turns the loads into concrete time
slots using the wrap-around rule.  For each set ``β``, the unique shared
machine (if any) starts β's jobs where its minimal loaded ancestor stopped;
the remaining machines continue around the circle.  Since every set's loads
are consumed as one continuous line, line position equals real time modulo a
fixed offset, and constraint (2c) (``p_{βj} ≤ T``) keeps a job from ever
overlapping itself.

Theorem IV.3: for any feasible (IP-2) solution the result is a valid
schedule on ``[0, T]``.  Lemmas IV.1 and IV.2 are asserted at runtime (they
double as property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .._fraction import to_fraction
from ..exceptions import InfeasibleError, InvalidScheduleError
from ..schedule.schedule import Schedule
from ..schedule.segments import advance_mod, place_arc
from .assignment import Assignment, set_volumes, verify_ip2
from .instance import Instance
from .laminar import MachineSet
from .semi_partitioned import _job_line, _LineCursor, _place_pieces

Time = Union[int, Fraction]


@dataclass
class LoadAllocation:
    """The output of Algorithm 2.

    ``load[(i, α)]`` is machine *i*'s share of the volume assigned to set
    ``α``; ``tot_load[(i, α)] = Σ_{β ⊆ α, i ∈ β} load[(i, β)]`` is the
    cumulative load from ``α`` and everything below it.
    """

    T: Fraction
    load: Dict[Tuple[int, MachineSet], Fraction]
    tot_load: Dict[Tuple[int, MachineSet], Fraction]

    def check_lemma_iv1(self) -> None:
        """Lemma IV.1(i): every cumulative load is at most T."""
        for (i, alpha), value in self.tot_load.items():
            if value > self.T:
                raise InvalidScheduleError(
                    f"Lemma IV.1 violated: TOT-LOAD[{i}, {sorted(alpha)}] = "
                    f"{value} > T = {self.T}"
                )

    def shared_machines(self, family, beta: MachineSet) -> List[int]:
        """Machines of *beta* loaded by beta **and** by some strict superset.

        Lemma IV.2 asserts the returned list has length ≤ 1.
        """
        shared = []
        for i in sorted(beta):
            if self.load.get((i, beta), Fraction(0)) <= 0:
                continue
            for alpha in family.ancestors(beta):
                if self.load.get((i, alpha), Fraction(0)) > 0:
                    shared.append(i)
                    break
        return shared


def allocate_loads(
    instance: Instance,
    assignment: Assignment,
    T: Time,
) -> LoadAllocation:
    """Algorithm 2: bottom-up per-machine volume allocation."""
    T = to_fraction(T)
    family = instance.family
    volumes = set_volumes(instance, assignment)
    load: Dict[Tuple[int, MachineSet], Fraction] = {}
    tot_load: Dict[Tuple[int, MachineSet], Fraction] = {}

    for alpha in family.bottom_up():
        V = volumes[alpha]
        for i in sorted(alpha):  # line 7: ascending machine order
            beta = family.child_containing(alpha, i)
            below = tot_load[(i, beta)] if beta is not None else Fraction(0)
            capacity = T - below
            if capacity < 0:
                raise InfeasibleError(
                    f"machine {i} is overloaded below set {sorted(alpha)}: "
                    f"cumulative load {below} > T={T}"
                )
            delta = min(V, capacity)
            load[(i, alpha)] = delta
            tot_load[(i, alpha)] = below + delta
            V -= delta
        if V > 0:
            # Lemma IV.1(ii) fails only when (IP-2) constraint (2b) is violated.
            raise InfeasibleError(
                f"volume {V} of set {sorted(alpha)} could not be allocated; "
                f"the (IP-2) solution is infeasible"
            )

    allocation = LoadAllocation(T=T, load=load, tot_load=tot_load)
    allocation.check_lemma_iv1()
    return allocation


def schedule_hierarchical(
    instance: Instance,
    assignment: Assignment,
    T: Time,
    check_feasibility: bool = True,
) -> Schedule:
    """Algorithms 2 + 3: build a valid schedule from a feasible (IP-2) pair.

    Raises
    ------
    InvalidAssignmentError
        When *check_feasibility* is on and ``(x, T)`` violates (IP-2).
    InfeasibleError
        When volume placement fails (can only happen on infeasible input).
    """
    if check_feasibility:
        verify_ip2(instance, assignment, T).raise_if_infeasible()
    T = to_fraction(T)
    family = instance.family
    machines = sorted(instance.machines)
    schedule = Schedule(machines, T)
    if T == 0:
        return schedule  # feasibility forces every processing time to be 0

    allocation = allocate_loads(instance, assignment, T)
    load = allocation.load

    # t_end[(i, α)]: the circle position right after α's jobs on machine i.
    t_end: Dict[Tuple[int, MachineSet], Fraction] = {}

    for beta in family.top_down():
        shared = allocation.shared_machines(family, beta)
        if len(shared) > 1:
            raise InvalidScheduleError(
                f"Lemma IV.2 violated for set {sorted(beta)}: shared machines "
                f"{shared}"
            )
        if shared:
            lead = shared[0]
            start: Optional[Fraction] = None
            for alpha in family.ancestors(beta):  # smallest superset first
                if load.get((lead, alpha), Fraction(0)) > 0:
                    start = t_end[(lead, alpha)]
                    break
            assert start is not None  # guaranteed by the shared-machine test
            t_beta = start
        else:
            lead = min(beta)
            t_beta = Fraction(0)
        order = [lead] + [k for k in sorted(beta) if k != lead]

        cursor = _LineCursor(_job_line(instance, assignment, beta))
        for k in order:
            delta = load.get((k, beta), Fraction(0))
            if delta > 0:
                pieces = cursor.take(delta)
                _place_pieces(schedule, k, pieces, t_beta, T)
                t_beta = advance_mod(t_beta, delta, T)
                t_end[(k, beta)] = t_beta
        if not cursor.exhausted() and cursor.remaining > 0:
            raise InfeasibleError(
                f"set {sorted(beta)}: {cursor.remaining} units left unplaced"
            )

    return schedule


def schedule_assignment(
    instance: Instance,
    assignment: Assignment,
    T: Optional[Time] = None,
) -> Schedule:
    """Schedule an assignment at the smallest feasible horizon.

    When *T* is omitted, uses :func:`min_T_for_assignment`, which by
    Theorem IV.3 is exactly the optimal makespan for the given masks.
    """
    from .assignment import min_T_for_assignment

    if T is None:
        T = min_T_for_assignment(instance, assignment)
    return schedule_hierarchical(instance, assignment, T)

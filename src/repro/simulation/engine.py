"""Event-driven execution of a schedule on a hierarchical machine model.

The simulator replays a :class:`~repro.schedule.schedule.Schedule` against a
:class:`~repro.simulation.topology.Topology` and
:class:`~repro.simulation.costs.CostModel`, emitting the event log a real
runtime would produce (start / preempt / resume / migrate / complete) and
charging each transition its tier cost.

Its purpose in the reproduction is to *close the modelling loop*: the paper
claims migration costs can be folded into the mask-dependent processing
times ``P_j(α)``.  :func:`check_overhead_budgets` verifies, schedule by
schedule, that the overhead actually charged to a job never exceeds the
budget ``P_j(α) − base_j`` its mask paid for (with budgets produced by
:func:`repro.simulation.costs.mask_overhead_budget`, this is a theorem-level
invariant: the wrap-around constructions keep each job's transition count
within the budgeted ``|α| − 1`` migrations plus wrap preemption).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .._fraction import to_fraction
from ..core.assignment import Assignment
from ..core.instance import Instance
from ..schedule.metrics import merged_pieces_by_job
from ..schedule.schedule import Schedule
from .costs import CostModel, mask_overhead_budget
from .topology import Topology
from .trace import Event, EventKind, ExecutionTrace

Time = Union[int, Fraction]


def simulate(
    schedule: Schedule,
    topology: Topology,
    cost_model: CostModel,
) -> ExecutionTrace:
    """Replay *schedule* and emit the full event trace with charged costs."""
    trace = ExecutionTrace()
    for job, merged in merged_pieces_by_job(schedule).items():
        first_machine, first_start, _ = merged[0]
        trace.add(Event(first_start, EventKind.START, job, first_machine))
        for (m1, _s1, e1), (m2, s2, _e2) in zip(merged, merged[1:]):
            if m1 != m2:
                tier = topology.migration_tier(m1, m2)
                cost = cost_model.migration_cost(topology, m1, m2)
                trace.add(Event(e1, EventKind.PREEMPT, job, m1))
                trace.add(
                    Event(
                        s2,
                        EventKind.MIGRATE,
                        job,
                        m2,
                        source_machine=m1,
                        overhead=cost,
                        tier=tier,
                    )
                )
            else:
                trace.add(Event(e1, EventKind.PREEMPT, job, m1))
                trace.add(
                    Event(
                        s2,
                        EventKind.RESUME,
                        job,
                        m2,
                        overhead=cost_model.cost_of_tier(0),
                    )
                )
        last_machine, _s, last_end = merged[-1]
        trace.add(Event(last_end, EventKind.COMPLETE, job, last_machine))
    # At equal timestamps a job's PREEMPT (leaving) precedes the MIGRATE /
    # RESUME it causes; COMPLETE sorts last.
    rank = {
        EventKind.PREEMPT: 0,
        EventKind.MIGRATE: 1,
        EventKind.RESUME: 1,
        EventKind.START: 2,
        EventKind.COMPLETE: 3,
    }
    trace.events.sort(key=lambda e: (e.time, e.job, rank[e.kind]))
    return trace


@dataclass
class BudgetReport:
    """Per-job comparison of charged overhead vs. the mask's budget."""

    job: int
    mask: frozenset
    charged: Fraction
    budget: Fraction

    @property
    def within_budget(self) -> bool:
        return self.charged <= self.budget


def check_overhead_budgets(
    trace: ExecutionTrace,
    instance: Instance,
    assignment: Assignment,
    base_work: Mapping[int, Time],
    topology: Topology,
    cost_model: CostModel,
) -> List[BudgetReport]:
    """Verify charged overheads against ``P_j(α) − base_j`` budgets.

    *base_work[j]* is the pure computation content of job *j* (what it would
    take with zero migrations); the mask's processing time must have been
    generated as ``base + mask_overhead_budget`` (see
    :func:`repro.workloads.generators.instance_from_topology`).
    """
    stats = trace.job_stats()
    reports: List[BudgetReport] = []
    for job, alpha in assignment.items():
        charged = stats[job].overhead if job in stats else Fraction(0)
        p = to_fraction(instance.p(job, alpha))
        budget = p - to_fraction(base_work[job])
        reports.append(BudgetReport(job=job, mask=alpha, charged=charged, budget=budget))
    return reports

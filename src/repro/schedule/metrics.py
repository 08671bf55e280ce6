"""Schedule metrics: makespan, migrations, preemptions, utilization.

Two migration accountings coexist, and the difference is a real finding of
this reproduction (see EXPERIMENTS.md, E03):

* **wall-clock** (:func:`job_transitions`): sort a job's merged segments by
  start time; a machine change is a migration, a same-machine gap a pure
  preemption.  This is what an execution trace observes — but the
  wrap-around rule may run the *tail* of a job's processing line (the part
  after the mod-T wrap) earlier in wall-clock time than its head, which can
  convert the wrap preemption into an extra observed migration.  On
  ``m = 2`` one global job can show 2 wall-clock migrations.

* **processing-order** (:func:`distinct_machine_migrations`): the paper's
  Proposition III.2 counts along the job's processing line, where crossing a
  chunk boundary is the migration and the mod-T wrap is a preemption.  In
  the wrap-around constructions each job visits every machine's chunk at
  most once, so line-order migrations equal ``#distinct machines − 1`` —
  which is how we count them without tracking line positions.

The *combined* count (preemptions + migrations = number of merged pieces −
1) is order-invariant, so the ``2m − 2`` bound is checked on wall-clock
data directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .._fraction import to_fraction
from .schedule import Schedule

Time = Union[int, Fraction]


@dataclass(frozen=True)
class JobTransitionCounts:
    migrations: int
    pure_preemptions: int

    @property
    def total(self) -> int:
        """Preemptions and migrations combined (Proposition III.2's 2m−2)."""
        return self.migrations + self.pure_preemptions


def merge_piece_runs(
    raw: List[Tuple[int, Fraction, Fraction]]
) -> List[Tuple[int, Fraction, Fraction]]:
    """Sort ``(machine, start, end)`` pieces and merge same-machine
    contiguous runs — the canonical "merged pieces" every transition
    accounting in this module works on.  Exposed so callers that already
    hold a job's pieces (the admission layer, per instance) can account
    without re-scanning a whole schedule."""
    raw = sorted(raw, key=lambda t: (t[1], t[2]))
    merged: List[Tuple[int, Fraction, Fraction]] = []
    for machine, start, end in raw:
        if merged and merged[-1][0] == machine and merged[-1][2] == start:
            merged[-1] = (machine, merged[-1][1], end)
        else:
            merged.append((machine, start, end))
    return merged


def _merge_pairs(pairs) -> List[Tuple[int, Fraction, Fraction]]:
    return merge_piece_runs([(machine, seg.start, seg.end) for machine, seg in pairs])


def _merged_job_segments(schedule: Schedule, job: int) -> List[Tuple[int, Fraction, Fraction]]:
    return _merge_pairs(schedule.job_segments(job))


def merged_pieces_by_job(
    schedule: Schedule,
) -> Dict[int, List[Tuple[int, Fraction, Fraction]]]:
    """Every scheduled job's merged pieces, in job order, from one
    :meth:`~repro.schedule.schedule.Schedule.segments_by_job` pass."""
    by_job = schedule.segments_by_job()
    return {job: _merge_pairs(by_job[job]) for job in sorted(by_job)}


def transitions_of_merged(
    merged: List[Tuple[int, Fraction, Fraction]]
) -> JobTransitionCounts:
    """Migration/preemption counts of one job's merged pieces."""
    migrations = 0
    pure_preemptions = 0
    for (m1, _s1, e1), (m2, s2, _e2) in zip(merged, merged[1:]):
        if m1 != m2:
            migrations += 1
        elif s2 > e1:
            pure_preemptions += 1
    return JobTransitionCounts(migrations, pure_preemptions)


def job_transitions(schedule: Schedule, job: int) -> JobTransitionCounts:
    """Count migrations and pure preemptions for one job."""
    return transitions_of_merged(_merged_job_segments(schedule, job))


def total_migrations(schedule: Schedule) -> int:
    """Total wall-clock migrations over all jobs (observable accounting)."""
    return sum(
        transitions_of_merged(merged).migrations
        for merged in merged_pieces_by_job(schedule).values()
    )


def distinct_machine_migrations(schedule: Schedule, job: int) -> int:
    """Processing-order migrations of one job: ``#distinct machines − 1``.

    This is Proposition III.2's accounting (the wrap is a preemption, not a
    migration); it is exact for the paper's wrap-around constructions, where
    a job's line segment meets each machine's chunk at most once.
    """
    machines = {m for m, _seg in schedule.job_segments(job)}
    return max(0, len(machines) - 1)


def total_migrations_processing_order(schedule: Schedule) -> int:
    """Total processing-order migrations (Prop. III.2 bound: ``m − 1``)."""
    return sum(
        max(0, len({m for m, _seg in pairs}) - 1)
        for pairs in schedule.segments_by_job().values()
    )


def total_preemptions_and_migrations(schedule: Schedule) -> int:
    """Combined transitions over all jobs (Prop. III.2 bound: ``2m − 2``).

    Order-invariant: equals Σ_j (merged pieces of j − 1).
    """
    return sum(
        transitions_of_merged(merged).total
        for merged in merged_pieces_by_job(schedule).values()
    )


def migration_tier_histogram(schedule, topology) -> Dict[int, int]:
    """Wall-clock migrations bucketed by the topology tier they cross.

    Keys are tier heights (1 = same chip, 2 = same node, …); use
    ``topology.tier_name`` to label them.
    """
    histogram: Dict[int, int] = {}
    for merged in merged_pieces_by_job(schedule).values():
        for (m1, _s1, _e1), (m2, _s2, _e2) in zip(merged, merged[1:]):
            if m1 != m2:
                tier = topology.migration_tier(m1, m2)
                histogram[tier] = histogram.get(tier, 0) + 1
    return histogram


def priced_cost_of_merged(
    merged: List[Tuple[int, Fraction, Fraction]], topology, cost_model
) -> Fraction:
    """Distance-priced overhead of one job's merged pieces.

    Each wall-clock machine change is charged
    ``cost_model.migration_cost(topology, a, b)`` (tier cost plus the
    distance-proportional term when the model has a ``distance_rate``);
    same-machine gaps are charged the tier-0 resume cost.
    """
    total = Fraction(0)
    for (m1, _s1, e1), (m2, s2, _e2) in zip(merged, merged[1:]):
        if m1 != m2:
            total += cost_model.migration_cost(topology, m1, m2)
        elif s2 > e1:
            total += cost_model.cost_of_tier(0)
    return total


def priced_job_migration_cost(schedule, job, topology, cost_model) -> Fraction:
    """One job's migration overhead priced by tier *and* NUMA distance.

    The admission layer prices each admitted *instance* with the same
    accounting (via :func:`priced_cost_of_merged` on pieces it already
    holds).
    """
    return priced_cost_of_merged(
        _merged_job_segments(schedule, job), topology, cost_model
    )


def priced_migration_cost(schedule, topology, cost_model) -> Fraction:
    """Total distance-priced migration overhead over all jobs.

    This is the scalar E17 compares across topologies — on a topology
    without a distance matrix and a rate-0 model it reduces to counting
    migrations weighted by the tier cost profile.
    """
    return sum(
        (
            priced_cost_of_merged(merged, topology, cost_model)
            for merged in merged_pieces_by_job(schedule).values()
        ),
        Fraction(0),
    )


def machine_utilization(schedule: Schedule) -> Dict[int, Fraction]:
    """Busy fraction of each machine over the horizon ``[0, T]``."""
    if schedule.T == 0:
        return {machine: Fraction(0) for machine in schedule.machines}
    return {
        machine: schedule.machine_load(machine) / schedule.T
        for machine in schedule.machines
    }


def average_utilization(schedule: Schedule) -> Fraction:
    """Mean busy fraction across machines over ``[0, T]``."""
    per_machine = machine_utilization(schedule)
    if not per_machine:
        return Fraction(0)
    return sum(per_machine.values(), Fraction(0)) / len(per_machine)


@dataclass(frozen=True)
class ScheduleSummary:
    makespan: Fraction
    migrations: int
    preemptions_and_migrations: int
    segments: int
    avg_utilization: Fraction


def summarize(schedule: Schedule) -> ScheduleSummary:
    """One-call summary used by examples and the benchmark tables."""
    return ScheduleSummary(
        makespan=schedule.makespan(),
        migrations=total_migrations(schedule),
        preemptions_and_migrations=total_preemptions_and_migrations(schedule),
        segments=schedule.total_segments(),
        avg_utilization=average_utilization(schedule),
    )


# ---------------------------------------------------------------------------
# Online metrics: response time, tardiness, deadline misses (E18)
# ---------------------------------------------------------------------------


def tardiness(completion: Time, deadline: Time) -> Fraction:
    """``max(0, completion − deadline)`` — exact, never negative."""
    lateness = to_fraction(completion) - to_fraction(deadline)
    return lateness if lateness > 0 else Fraction(0)


@dataclass(frozen=True)
class ResponseStats:
    """Exact response-time statistics over a set of completed instances.

    All times are :class:`~fractions.Fraction`; ``mean_response`` and
    ``miss_ratio`` are exact rationals (``None`` when no instance
    completed).
    """

    completed: int
    misses: int
    max_response: Optional[Fraction]
    mean_response: Optional[Fraction]
    max_tardiness: Fraction
    total_tardiness: Fraction

    @property
    def miss_ratio(self) -> Optional[Fraction]:
        if self.completed == 0:
            return None
        return Fraction(self.misses, self.completed)


def response_stats(instances: Iterable) -> ResponseStats:
    """Fold completed instances into a :class:`ResponseStats`.

    *instances* is any iterable of objects exposing ``release``,
    ``completion`` and ``deadline`` attributes (duck-typed so the admission
    layer's :class:`~repro.simulation.admission.AdmittedInstance` and plain
    test fixtures both work).  A miss is ``completion > deadline`` —
    strict, because finishing exactly at the deadline meets it.
    """
    count = 0
    misses = 0
    max_response: Optional[Fraction] = None
    total_response = Fraction(0)
    max_tardy = Fraction(0)
    total_tardy = Fraction(0)
    for inst in instances:
        release = to_fraction(inst.release)
        completion = to_fraction(inst.completion)
        deadline = to_fraction(inst.deadline)
        response = completion - release
        count += 1
        total_response += response
        if max_response is None or response > max_response:
            max_response = response
        tardy = tardiness(completion, deadline)
        total_tardy += tardy
        if tardy > max_tardy:
            max_tardy = tardy
        if tardy > 0:
            misses += 1
    return ResponseStats(
        completed=count,
        misses=misses,
        max_response=max_response,
        mean_response=(total_response / count) if count else None,
        max_tardiness=max_tardy,
        total_tardiness=total_tardy,
    )

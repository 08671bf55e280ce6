"""Cyclic interpretation of wrap-around schedules.

The schedules produced by Algorithms 1 and 3 live on the *circle* of
circumference ``T``; running them repeatedly (as a real-time system runs a
planning window) makes the mod-T wrap seamless: a piece ending at ``T``
continues at ``0`` of the next period on the same machine without
interruption.

In the periodic reading, each period executes a **fresh instance** of every
job: :func:`unroll` with ``relabel=True`` (the default) gives period ``q``'s
copy of job ``j`` the id ``j + q·stride``, and attaches the piece that
wrapped past ``T`` to the instance it belongs to.  Per instance, the
wall-clock transition counts then coincide with Proposition III.2's
processing-order accounting — the wrap is a seamless same-machine
continuation, and only genuine chunk-boundary crossings count as
migrations.  This closes the accounting discrepancy documented in
:mod:`repro.schedule.metrics` (experiment E03).

``relabel=False`` keeps one identity per job across periods, which charges
the inter-instance hand-off (last machine of instance ``q`` → first machine
of instance ``q+1``) as an extra migration — the pessimistic reading.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .._fraction import to_fraction
from ..exceptions import InvalidScheduleError
from .metrics import job_transitions
from .schedule import Schedule

Time = Union[int, Fraction]


def wrapped_tail(schedule: Schedule, job: int):
    """The mod-T wrapped piece of *job*, as ``[(machine, segment)]``.

    A tail exists exactly when the job has a piece ending at ``T`` and one
    starting at ``0`` on the same machine (and more than one piece in
    total): that leading run is the seamless continuation of the piece that
    hit the wrap, and in the periodic reading it belongs to the *previous*
    instance.  At most one tail exists (a job's work is ≤ T).

    Shared by :func:`unroll` and the admission layer
    (:mod:`repro.simulation.admission`), so the two readings agree on which
    piece wraps by construction.
    """
    return wrapped_tail_of(schedule.job_segments(job), schedule.T)


def wrapped_tail_of(segs, T: Fraction):
    """:func:`wrapped_tail` of one job's time-ordered ``(machine, segment)``
    pairs (a :meth:`~repro.schedule.schedule.Schedule.segments_by_job`
    entry) on a schedule of horizon *T*."""
    by_machine_end = {m for m, s in segs if s.end == T}
    tail = []
    for machine, seg in segs:
        if seg.start == 0 and machine in by_machine_end and len(segs) > 1:
            tail.append((machine, seg))
            break  # at most one wrapped piece per job (length ≤ T)
    return tail


def unroll(
    schedule: Schedule,
    periods: int,
    relabel: bool = True,
) -> Schedule:
    """Concatenate *periods* copies of *schedule* over ``[0, periods·T)``.

    With ``relabel=True``, period ``q``'s copy of job ``j`` gets the id
    ``j + q·stride`` (``stride = max job id + 1``), and a piece that the
    mod-T rule wrapped to the start of the window is assigned to the
    *previous* period's instance (it is that instance's seamless
    continuation).  Boundary bookkeeping of a finite unroll:

    * period 0's wrapped piece has no predecessor — it is labelled
      ``j + periods·stride`` (a distinct "warm-up" id), mirroring how a
      cold-started periodic system fills the slot before steady state;
    * the last instance's tail would fall in period ``periods`` and is
      truncated.

    Consequently instances of periods ``0 … periods−2`` receive exactly the
    one-shot work; steady-state metrics should be read from interior
    instances (:func:`interior_instance_migrations`).
    """
    if periods < 1:
        raise InvalidScheduleError(f"periods must be ≥ 1, got {periods}")
    T = schedule.T
    if T <= 0:
        raise InvalidScheduleError("cannot unroll a schedule with zero period")
    jobs = schedule.jobs()
    stride = (max(jobs) + 1) if jobs else 1
    result = Schedule(schedule.machines, T * periods)

    if not relabel:
        for q in range(periods):
            offset = q * T
            for machine in schedule.machines:
                for seg in schedule.timeline(machine):
                    result.add_segment(
                        machine, seg.job, seg.start + offset, seg.end + offset
                    )
        return result

    # For each job, split its per-period segments into "head" (the pieces
    # from its first processing onward) and "wrapped tail" (pieces that the
    # mod-T rule pushed to the start of the window) — see wrapped_tail.
    tail_segments = {
        job: wrapped_tail_of(segs, T)
        for job, segs in schedule.segments_by_job().items()
    }

    for q in range(periods):
        offset = q * T
        for machine in schedule.machines:
            for seg in schedule.timeline(machine):
                is_tail = any(
                    seg == t_seg and machine == t_m
                    for t_m, t_seg in tail_segments[seg.job]
                )
                if is_tail and q > 0:
                    # Wrapped tail: belongs to the previous period's instance.
                    instance_id = seg.job + (q - 1) * stride
                elif is_tail:
                    # Period 0's wrapped piece: cold-start warm-up slot.
                    instance_id = seg.job + periods * stride
                else:
                    instance_id = seg.job + q * stride
                result.add_segment(
                    machine, instance_id, seg.start + offset, seg.end + offset
                )
    return result


def steady_state_migrations_per_period(
    schedule: Schedule,
    periods: int = 4,
    relabel: bool = True,
) -> Fraction:
    """Average wall-clock migrations per period in the unrolled schedule.

    With instance relabeling (the periodic reading) the interior periods'
    counts equal the processing-order accounting of Proposition III.2.
    """
    from .metrics import total_migrations

    if periods < 1:
        raise InvalidScheduleError(f"periods must be ≥ 1, got {periods}")
    unrolled = unroll(schedule, periods, relabel=relabel)
    return Fraction(total_migrations(unrolled), periods)


def interior_instance_migrations(
    schedule: Schedule,
    job: int,
    periods: int = 4,
) -> int:
    """Wall-clock migrations of job *job*'s instance in an interior period.

    For the paper's wrap-around schedules this equals the processing-order
    migration count (`distinct machines − 1`) — the property the test suite
    asserts to close the E03 accounting question.
    """
    if periods < 3:
        raise InvalidScheduleError("need ≥ 3 periods for an interior instance")
    jobs = schedule.jobs()
    stride = (max(jobs) + 1) if jobs else 1
    unrolled = unroll(schedule, periods, relabel=True)
    instance_id = job + (periods // 2) * stride
    return job_transitions(unrolled, instance_id).migrations

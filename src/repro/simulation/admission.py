"""Admission-driven execution: map arriving job instances onto the
wrap-around template schedule.

The paper's constructions produce one *template* — a wrap-around schedule
for the planning window ``[0, T)``.  A real-time system runs that template
window after window; online arrivals decide *which instance* fills each
window's slot.  The admission rule here is the planning-window discipline
of the semi-partitioned literature:

* each arriving instance of job ``j`` queues FIFO behind earlier pending
  instances of the same job;
* at every window boundary ``w·T`` the head of each non-empty queue whose
  release is ``≤ w·T`` is admitted into window ``w`` and executes exactly
  job ``j``'s template slots, shifted by ``w·T``;
* a template slot whose mod-T wrap pushed a piece to the start of the
  window keeps the periodic reading of :mod:`repro.schedule.periodic`: the
  wrapped tail is the admitted instance's seamless continuation at the
  start of window ``w + 1`` (the instance id carries over, exactly as
  ``unroll(relabel=True)`` labels it).

Admission therefore never executes a piece before its release (the window
boundary is ≥ the release by the rule itself — re-checked independently by
:func:`repro.schedule.validator.check_releases`), never runs an instance
parallel to itself (the template doesn't), and reproduces the cyclic
reading *bit-for-bit* when arrivals are zero-offset periodic with period
``T`` — the cross-check the test suite pins.

Response times, tardiness and deadline misses come from
:func:`repro.schedule.metrics.response_stats`; migration costs are charged
through the same :class:`~repro.simulation.costs.CostModel` / topology-zoo
machinery the offline metrics use, so online and offline numbers are
directly comparable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..exceptions import InvalidScheduleError
from ..obs.trace import span as trace_span
from ..schedule.arrivals import JobArrival
from ..schedule.metrics import (
    merge_piece_runs,
    priced_cost_of_merged,
    response_stats,
    transitions_of_merged,
)
from ..schedule.periodic import wrapped_tail_of
from ..schedule.schedule import Schedule
from .costs import CostModel
from .topology import Topology


@dataclass(frozen=True)
class AdmittedInstance:
    """One arrival after admission: where it ran and how it fared."""

    job: int
    index: int
    release: Fraction
    deadline: Fraction
    window: int
    """Planning window the instance was admitted into."""

    instance_id: int
    """Label of this instance in the materialized schedule
    (``job + window·stride`` — the id :func:`repro.schedule.periodic.unroll`
    would give the same window's copy)."""

    start: Fraction
    """First execution instant (≥ release by the admission rule)."""

    completion: Fraction
    migrations: int
    """Wall-clock migrations of this instance in the materialized schedule."""

    priced_overhead: Fraction
    """Migration/preemption overhead charged by the cost model (0 without
    a topology)."""

    @property
    def response_time(self) -> Fraction:
        return self.completion - self.release

    @property
    def waiting_time(self) -> Fraction:
        """Time between release and the admitting window boundary."""
        return self.start - self.release

    @property
    def missed_deadline(self) -> bool:
        return self.completion > self.deadline


@dataclass
class AdmissionResult:
    """Outcome of :func:`admit`: the materialized timeline plus accounting."""

    schedule: Schedule
    """All admitted instances placed over ``[0, (windows+1)·T]`` (the extra
    window holds the last admitted instances' wrapped tails)."""

    admitted: List[AdmittedInstance]
    pending: List[JobArrival]
    """Arrivals released before the last window boundary but never admitted
    — genuine leftover backlog."""

    unreleased: List[JobArrival]
    """Arrivals released only after the last boundary: they never saw an
    admission opportunity, so they count as horizon truncation, not
    backlog."""

    template_T: Fraction
    windows: int
    max_backlog: int
    """Largest number of simultaneously queued instances observed at any
    window boundary (after admitting) — growth means overload."""

    @property
    def miss_count(self) -> int:
        return sum(1 for a in self.admitted if a.missed_deadline)

    @property
    def miss_ratio(self) -> Optional[Fraction]:
        if not self.admitted:
            return None
        return Fraction(self.miss_count, len(self.admitted))

    @property
    def schedulable(self) -> bool:
        """No deadline miss and no leftover backlog — the phase-diagram
        predicate of experiment E18."""
        return self.miss_count == 0 and not self.pending

    def stats(self):
        """Response/tardiness/miss statistics over the admitted instances."""
        return response_stats(self.admitted)

    def instances_of(self, job: int) -> List[AdmittedInstance]:
        return sorted(
            (a for a in self.admitted if a.job == job), key=lambda a: a.index
        )

    def releases(self) -> Dict[int, Fraction]:
        """``instance_id → release`` for the materialized schedule — the
        mapping :func:`repro.schedule.validator.check_releases` consumes."""
        return {a.instance_id: a.release for a in self.admitted}


def witness_within(
    instance,
    T_ref,
    scheduler_class: str = "hierarchical",
    prefilter: bool = True,
    analytic_witness: bool = False,
    node_limit: int = 2_000_000,
):
    """Find a template witness (assignment with makespan ≤ ``T_ref``),
    with an optional analytic pre-filter in front of the exact search.

    The admission layer needs a witness assignment to build its template;
    under overload most candidate workloads have none, and proving that by
    branch-and-bound is the expensive part.  With *prefilter* on, the RTA
    engine (:func:`repro.rta.analytic_schedulable`) runs first:

    * **UNSCHEDULABLE** → return ``None`` without searching.  Sound: the
      verdict refutes a necessary (IP-2) bound, so the search would have
      exhausted its tree and returned ``None`` too.
    * **SCHEDULABLE** with *analytic_witness* → return the engine's
      capacity-verified assignment (zero search, zero LP solves).  By
      Theorem IV.3 it is a genuine witness; it may differ from the one the
      search would pick, so the default keeps the exact search for
      byte-identical templates.
    * otherwise → fall through to
      :func:`repro.core.exact.find_assignment_within` on the restricted
      instance, whose result is identical with and without the pre-filter.

    A :class:`~repro.exceptions.SolverError` from the exact search
    propagates — callers decide whether "gave up" is tabulated.
    """
    from ..baselines.restrictions import (
        restrict_instance,
        restricted_family_for,
    )
    from ..core.exact import find_assignment_within
    from ..exceptions import InvalidFamilyError
    from ..rta import SCHEDULABLE, UNSCHEDULABLE, analytic_schedulable

    with trace_span(
        "sim.prefilter",
        scheduler_class=scheduler_class,
        enabled=prefilter,
    ) as sp:
        if prefilter:
            verdict = analytic_schedulable(instance, scheduler_class, T_ref)
            if sp:
                sp.attrs["verdict"] = verdict.status
                sp.attrs["reason"] = verdict.reason
            if verdict.status == UNSCHEDULABLE:
                return None
            if analytic_witness and verdict.status == SCHEDULABLE:
                if sp:
                    sp.attrs["fast_path"] = True
                return verdict.assignment
        try:
            sets = restricted_family_for(instance, scheduler_class)
        except InvalidFamilyError:
            return None
        restricted = restrict_instance(instance, sets)
        return find_assignment_within(restricted, T_ref, node_limit=node_limit)


class WindowSlot(NamedTuple):
    """One job's instance in one planning window, as the template places it.

    Everything here depends only on the template, the window, the topology
    and the cost model — never on the arrival stream — so one slot serves
    every stream that admits the job into that window.
    """

    pieces: Tuple[Tuple[int, Fraction, Fraction], ...]
    """``(machine, start, end)`` in placement order: head pieces, then the
    wrapped tail shifted into the next window."""

    start: Fraction
    completion: Fraction
    migrations: int
    priced_overhead: Fraction


class WindowReplay:
    """A template's window-by-window replay, shared by every arrival stream.

    Built with one grouping pass over the template
    (:meth:`~repro.schedule.schedule.Schedule.segments_by_job`).  Each job
    splits into head pieces and the wrapped tail
    (:func:`repro.schedule.periodic.wrapped_tail_of`, so admission and
    ``unroll(relabel=True)`` can never disagree on which piece wraps), and
    its accounting — merged runs, start, completion, migrations, priced
    overhead — is computed once relative to the window start, since all of
    it is translation-invariant.  :meth:`slot` shifts that into window
    ``w`` once and memoizes it; slots are immutable, so streams share them.
    """

    def __init__(
        self,
        template: Schedule,
        topology: Optional[Topology] = None,
        cost_model: Optional[CostModel] = None,
    ):
        if topology is not None and cost_model is None:
            cost_model = CostModel.numa_like()
        self.template = template
        self.T = template.T
        by_job = template.segments_by_job()
        self.jobs: Tuple[int, ...] = tuple(sorted(by_job))
        self._relative: Dict[int, WindowSlot] = {}
        for job, segs in by_job.items():
            tail = wrapped_tail_of(segs, self.T)
            tail_ids = {(m, s.start, s.end) for m, s in tail}
            pieces = tuple(
                (m, s.start, s.end)
                for m, s in segs
                if (m, s.start, s.end) not in tail_ids
            ) + tuple((m, s.start + self.T, s.end + self.T) for m, s in tail)
            merged = merge_piece_runs(pieces)
            if topology is not None:
                overhead = priced_cost_of_merged(merged, topology, cost_model)
            else:
                overhead = Fraction(0)
            self._relative[job] = WindowSlot(
                pieces,
                min(s for _m, s, _e in merged),
                max(e for _m, _s, e in merged),
                transitions_of_merged(merged).migrations,
                overhead,
            )
        self._slots: Dict[Tuple[int, int], WindowSlot] = {}

    def slot(self, job: int, window: int) -> WindowSlot:
        """Job *job*'s slot in *window*; a job the template never schedules
        (zero work) gets no pieces and completes at the window boundary."""
        key = (job, window)
        found = self._slots.get(key)
        if found is None:
            boundary = window * self.T
            rel = self._relative.get(job)
            if rel is None:
                found = WindowSlot((), boundary, boundary, 0, Fraction(0))
            else:
                found = WindowSlot(
                    tuple((m, s + boundary, e + boundary) for m, s, e in rel.pieces),
                    rel.start + boundary,
                    rel.completion + boundary,
                    rel.migrations,
                    rel.priced_overhead,
                )
            self._slots[key] = found
        return found

    def admit(self, arrivals: Sequence[JobArrival], windows: int) -> AdmissionResult:
        """:func:`admit` of one stream against this replay."""
        with trace_span(
            "sim.admit", windows=windows, arrivals=len(arrivals)
        ) as admit_sp:
            result = self._admit(arrivals, windows)
            if admit_sp:
                admit_sp.attrs["admitted"] = len(result.admitted)
                admit_sp.attrs["pending"] = len(result.pending)
                admit_sp.attrs["max_backlog"] = result.max_backlog
            return result

    def _admit(self, arrivals: Sequence[JobArrival], windows: int) -> AdmissionResult:
        _check_windows(self.template, windows)
        T = self.T
        ordered = sorted(arrivals, key=lambda a: (a.release, a.job, a.index))
        for a in ordered:
            if a.job < 0:
                raise InvalidScheduleError(f"arrival for negative job id {a.job}")

        stride = (max(self.jobs) + 1) if self.jobs else 1
        max_job = max((a.job for a in ordered), default=-1)
        if max_job >= stride:
            stride = max_job + 1

        result_schedule = Schedule(self.template.machines, T * (windows + 1))
        queues: Dict[int, Deque[JobArrival]] = {}
        cursor = 0
        max_backlog = 0
        admitted: List[AdmittedInstance] = []

        for w in range(windows):
            boundary = w * T
            while cursor < len(ordered) and ordered[cursor].release <= boundary:
                queues.setdefault(ordered[cursor].job, deque()).append(ordered[cursor])
                cursor += 1
            for job in sorted(queues):
                queue = queues[job]
                if not queue:
                    continue
                arrival = queue.popleft()
                instance_id = job + w * stride
                slot = self.slot(job, w)
                for machine, start, end in slot.pieces:
                    result_schedule.add_segment(machine, instance_id, start, end)
                admitted.append(
                    AdmittedInstance(
                        job=arrival.job,
                        index=arrival.index,
                        release=arrival.release,
                        deadline=arrival.deadline,
                        window=w,
                        instance_id=instance_id,
                        start=slot.start,
                        completion=slot.completion,
                        migrations=slot.migrations,
                        priced_overhead=slot.priced_overhead,
                    )
                )
            backlog = sum(len(q) for q in queues.values())
            max_backlog = max(max_backlog, backlog)

        pending = sorted(
            (a for q in queues.values() for a in q),
            key=lambda a: (a.release, a.job, a.index),
        )
        return AdmissionResult(
            schedule=result_schedule,
            admitted=admitted,
            pending=pending,
            unreleased=list(ordered[cursor:]),
            template_T=T,
            windows=windows,
            max_backlog=max_backlog,
        )


def _check_windows(template: Schedule, windows: int) -> None:
    if windows < 1:
        raise InvalidScheduleError(f"need ≥ 1 window, got {windows}")
    if template.T <= 0:
        raise InvalidScheduleError("cannot run windows of a zero-horizon template")


def admit(
    template: Schedule,
    arrivals: Sequence[JobArrival],
    windows: int,
    topology: Optional[Topology] = None,
    cost_model: Optional[CostModel] = None,
) -> AdmissionResult:
    """Run *windows* planning windows of *template* against *arrivals*.

    Arrivals are consumed in ``(release, job, index)`` order; instances of
    one job are admitted FIFO, at most one per window.  Arrivals for jobs
    the template never schedules (zero-work jobs) complete instantly at
    their admitting window boundary.

    With a *topology* (and optional *cost_model*, default
    :meth:`~repro.simulation.costs.CostModel.numa_like`), each admitted
    instance is charged its distance-priced migration overhead.

    Equivalent to ``admit_batch(template, [arrivals], ...)[0]``: both run
    the stream through a :class:`WindowReplay` of the template.
    """
    return WindowReplay(template, topology, cost_model).admit(arrivals, windows)


def admit_batch(
    template: Schedule,
    streams: Sequence[Sequence[JobArrival]],
    windows: int,
    topology: Optional[Topology] = None,
    cost_model: Optional[CostModel] = None,
) -> List[AdmissionResult]:
    """Admit many independent arrival *streams* against one template.

    The batch entry point of the scheduling-as-a-service layer.  One
    :class:`WindowReplay` serves every stream: the template is scanned
    **once**, and each ``(job, window)`` slot — its placed pieces and
    their accounting (merged runs, start, completion, migrations, priced
    overhead) — is computed the first time any stream admits that job into
    that window, then reused.  Each stream still places every piece of
    every admitted instance through
    :meth:`~repro.schedule.schedule.Schedule.add_segment`, with its eager
    horizon and overlap checks; a timeline insert is one ``bisect`` plus
    two neighbour checks.  So ``k`` streams cost one template scan plus,
    per stream, one log-time insert per placed piece.  Results are
    returned in stream order and are identical to calling :func:`admit`
    per stream — the streams are independent workload scenarios (e.g. the
    arrival-family axis of E18), not one merged arrival set.
    """
    if not streams:
        return []
    _check_windows(template, windows)
    with trace_span(
        "sim.admit_batch", streams=len(streams), windows=windows
    ):
        replay = WindowReplay(template, topology, cost_model)
        return [replay.admit(stream, windows) for stream in streams]

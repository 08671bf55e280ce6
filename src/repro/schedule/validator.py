"""Exact schedule validity checking — the conditions of Section II.

A schedule is *valid with respect to an assignment* when

1. each job runs only on machines of its affinity mask,
2. no job is processed in parallel with itself,
3. every job receives exactly ``P_j(mask(j))`` units of work,
4. no machine runs two jobs at once, and
5. everything happens inside the horizon ``[0, T]``.

Condition 4 is enforced eagerly by :class:`~repro.schedule.schedule.Schedule`
but re-checked here so the validator stands on its own (e.g. for schedules
deserialized from traces).  All arithmetic is exact.

With the online-arrivals subsystem a sixth condition joins the list:

6. no piece of a job executes before that job's *release time*.

Release feasibility is opt-in via the ``releases`` mapping (offline
schedules have no releases), and :func:`check_releases` is exposed
standalone because admission-layer schedules label *instances* rather than
the 0…n−1 template jobs an :class:`~repro.core.instance.Instance` knows.

Violations are structured: every :class:`ScheduleViolation` carries the
offending ``job``/``machine``/``start``/``end`` and the ``limit`` it broke
next to its rendered ``detail``, and
:meth:`ValidationReport.raise_if_invalid` raises
:class:`~repro.exceptions.ScheduleValidationError` with the full list
attached — callers inspect payloads instead of parsing messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Union

from .._fraction import is_inf, to_fraction
from ..core.assignment import Assignment
from ..core.instance import Instance
from ..exceptions import ScheduleValidationError
from .schedule import Schedule
from .segments import Time


@dataclass(frozen=True)
class ScheduleViolation:
    """One broken validity condition, with its structured evidence.

    ``kind`` names the condition (``mask`` / ``self-parallel`` / ``work`` /
    ``machine-overlap`` / ``horizon`` / ``integrality`` / ``release``);
    ``detail`` is the human rendering.  The optional fields locate the
    offending piece: ``job`` and ``machine`` where applicable, ``start``/
    ``end`` the piece's endpoints, and ``limit`` the bound it violated (the
    horizon, the required work, or the release time).
    """

    kind: str
    detail: str
    job: Optional[int] = None
    machine: Optional[int] = None
    start: Optional[Fraction] = None
    end: Optional[Fraction] = None
    limit: Optional[Fraction] = None

    def as_payload(self) -> dict:
        """The structured fields as a plain dict (log/JSON friendly)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "job": self.job,
            "machine": self.machine,
            "start": self.start,
            "end": self.end,
            "limit": self.limit,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.detail}"


@dataclass
class ValidationReport:
    valid: bool
    violations: List[ScheduleViolation] = field(default_factory=list)
    makespan: Fraction = Fraction(0)

    def raise_if_invalid(self) -> None:
        if not self.valid:
            raise ScheduleValidationError(self.violations)


def check_releases(
    schedule: Schedule,
    releases: Mapping[int, Time],
) -> List[ScheduleViolation]:
    """Condition 6 standalone: no piece before its job's release.

    *releases* maps a job id **as it appears in the schedule** to its
    release time — for admission-layer schedules these are instance ids
    (see :meth:`repro.simulation.admission.AdmissionResult.releases`).
    Jobs absent from the mapping are unconstrained (released at 0).
    """
    violations: List[ScheduleViolation] = []
    by_job = schedule.segments_by_job()
    for job, release in releases.items():
        release = to_fraction(release)
        for machine, seg in by_job.get(job, ()):
            if seg.start < release:
                violations.append(
                    ScheduleViolation(
                        "release",
                        f"job {job} piece [{seg.start},{seg.end}) on machine "
                        f"{machine} starts before its release {release}",
                        job=job,
                        machine=machine,
                        start=seg.start,
                        end=seg.end,
                        limit=release,
                    )
                )
    return violations


def validate_schedule(
    instance: Instance,
    assignment: Assignment,
    schedule: Schedule,
    T: Optional[Time] = None,
    require_integral_times: bool = False,
    releases: Optional[Mapping[int, Time]] = None,
) -> ValidationReport:
    """Check all Section II validity conditions exactly.

    Parameters
    ----------
    T:
        Horizon to check against; defaults to ``schedule.T``.
    require_integral_times:
        The paper assumes preemptions/migrations at integer points.  The
        constructions preserve integrality when ``(x, T)`` is integral, but
        LP-derived fractional horizons legitimately produce fractional
        endpoints, so the check is opt-in.
    releases:
        Optional release times per job (condition 6); jobs absent from the
        mapping are unconstrained.
    """
    horizon = to_fraction(T) if T is not None else schedule.T
    violations: List[ScheduleViolation] = []

    # --- condition 5: horizon ------------------------------------------------
    for machine in schedule.machines:
        for seg in schedule.timeline(machine):
            if seg.start < 0 or seg.end > horizon:
                violations.append(
                    ScheduleViolation(
                        "horizon",
                        f"job {seg.job} on machine {machine} in [{seg.start},{seg.end}) "
                        f"outside [0,{horizon}]",
                        job=seg.job,
                        machine=machine,
                        start=seg.start,
                        end=seg.end,
                        limit=horizon,
                    )
                )

    # --- condition 4: machine exclusivity ------------------------------------
    for machine in schedule.machines:
        segs = sorted(schedule.timeline(machine).segments)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                violations.append(
                    ScheduleViolation(
                        "machine-overlap",
                        f"machine {machine}: jobs {a.job} and {b.job} overlap "
                        f"at [{b.start},{min(a.end, b.end)})",
                        job=b.job,
                        machine=machine,
                        start=b.start,
                        end=min(a.end, b.end),
                    )
                )

    # --- per-job conditions ---------------------------------------------------
    by_job = schedule.segments_by_job()
    for job in range(instance.n):
        mask = assignment[job]
        required = instance.p(job, mask)
        if is_inf(required):
            violations.append(
                ScheduleViolation(
                    "mask",
                    f"job {job} assigned to forbidden set {sorted(mask)}",
                    job=job,
                )
            )
            continue
        required = to_fraction(required)
        segments = by_job.get(job, [])

        # condition 1: mask containment
        for machine, seg in segments:
            if machine not in mask:
                violations.append(
                    ScheduleViolation(
                        "mask",
                        f"job {job} runs on machine {machine} ∉ mask {sorted(mask)}",
                        job=job,
                        machine=machine,
                        start=seg.start,
                        end=seg.end,
                    )
                )

        # condition 2: no parallel self-execution (segments are time-ordered)
        for (m1, s1), (m2, s2) in zip(segments, segments[1:]):
            if s2.start < s1.end:
                violations.append(
                    ScheduleViolation(
                        "self-parallel",
                        f"job {job} runs simultaneously on machines {m1} and {m2} "
                        f"during [{s2.start},{min(s1.end, s2.end)})",
                        job=job,
                        machine=m2,
                        start=s2.start,
                        end=min(s1.end, s2.end),
                    )
                )

        # condition 3: delivered work
        delivered = sum((seg.length for _m, seg in segments), Fraction(0))
        if delivered != required:
            violations.append(
                ScheduleViolation(
                    "work",
                    f"job {job} received {delivered} units, requires {required}",
                    job=job,
                    limit=required,
                )
            )

        if required > 0 and job not in by_job:
            violations.append(
                ScheduleViolation(
                    "work",
                    f"job {job} never scheduled",
                    job=job,
                    limit=required,
                )
            )

    if require_integral_times:
        for machine in schedule.machines:
            for seg in schedule.timeline(machine):
                if seg.start.denominator != 1 or seg.end.denominator != 1:
                    violations.append(
                        ScheduleViolation(
                            "integrality",
                            f"segment [{seg.start},{seg.end}) of job {seg.job} "
                            f"has non-integer endpoints",
                            job=seg.job,
                            machine=machine,
                            start=seg.start,
                            end=seg.end,
                        )
                    )

    # --- condition 6: release feasibility (opt-in) ---------------------------
    if releases:
        violations.extend(check_releases(schedule, releases))

    return ValidationReport(
        valid=not violations,
        violations=violations,
        makespan=schedule.makespan(),
    )

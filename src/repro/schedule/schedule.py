"""The schedule container produced by the paper's Algorithms 1 and 3."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .._fraction import to_fraction
from ..exceptions import InvalidScheduleError
from .segments import MachineTimeline, Segment, Time


def _by_time(pair: Tuple[int, Segment]):
    machine, seg = pair
    return (seg.start, seg.end, machine)


class Schedule:
    """A complete schedule: per-machine timelines over the horizon ``[0, T]``.

    The container enforces per-machine exclusivity eagerly (adding an
    overlapping segment raises); all other validity conditions of Section II
    (no job parallel to itself, delivered work, mask containment) are checked
    by :func:`repro.schedule.validator.validate_schedule`.
    """

    def __init__(self, machines: Iterable[int], T: Time):
        self.T: Fraction = to_fraction(T)
        if self.T < 0:
            raise InvalidScheduleError(f"horizon T must be non-negative, got {self.T}")
        self._timelines: Dict[int, MachineTimeline] = {
            int(i): MachineTimeline(int(i)) for i in machines
        }
        if not self._timelines:
            raise InvalidScheduleError("a schedule needs at least one machine")

    @property
    def machines(self) -> Tuple[int, ...]:
        return tuple(sorted(self._timelines))

    def timeline(self, machine: int) -> MachineTimeline:
        return self._timelines[machine]

    def add_segment(self, machine: int, job: int, start: Time, end: Time) -> Segment:
        """Place job *job* on *machine* during ``[start, end)``."""
        start = to_fraction(start)
        end = to_fraction(end)
        if start < 0 or end > self.T:
            raise InvalidScheduleError(
                f"segment [{start}, {end}) of job {job} outside horizon [0, {self.T}]"
            )
        segment = Segment(start, end, job)
        self._timelines[machine].add(segment)
        return segment

    def job_segments(self, job: int) -> List[Tuple[int, Segment]]:
        """All ``(machine, segment)`` pairs of *job*, sorted by start time."""
        found: List[Tuple[int, Segment]] = []
        for machine, timeline in self._timelines.items():
            for seg in timeline:
                if seg.job == job:
                    found.append((machine, seg))
        found.sort(key=_by_time)
        return found

    def segments_by_job(self) -> Dict[int, List[Tuple[int, Segment]]]:
        """:meth:`job_segments` of every scheduled job, in one pass.

        Maps each job with at least one segment to the list
        ``job_segments(job)`` would return.  Callers that need every job's
        pieces use this instead of one full-schedule scan per job.
        """
        found: Dict[int, List[Tuple[int, Segment]]] = {}
        for machine, timeline in self._timelines.items():
            for seg in timeline:
                found.setdefault(seg.job, []).append((machine, seg))
        for pairs in found.values():
            pairs.sort(key=_by_time)
        return found

    def jobs(self) -> Tuple[int, ...]:
        present = set()
        for timeline in self._timelines.values():
            for seg in timeline:
                present.add(seg.job)
        return tuple(sorted(present))

    def work_of(self, job: int) -> Fraction:
        return sum((seg.length for _m, seg in self.job_segments(job)), Fraction(0))

    def completion_time(self, job: int) -> Fraction:
        segments = self.job_segments(job)
        if not segments:
            return Fraction(0)
        return max(seg.end for _m, seg in segments)

    def makespan(self) -> Fraction:
        """``max_j C_j`` — the latest completion over all scheduled jobs."""
        latest = Fraction(0)
        for timeline in self._timelines.values():
            for seg in timeline:
                latest = max(latest, seg.end)
        return latest

    def machine_load(self, machine: int) -> Fraction:
        return self._timelines[machine].load

    def total_segments(self) -> int:
        return sum(len(t) for t in self._timelines.values())

    def as_table(self) -> str:
        """Human-readable rendering, one machine per line."""
        lines = []
        for machine in self.machines:
            parts = [
                f"j{seg.job}[{seg.start},{seg.end})"
                for seg in self._timelines[machine].merged_segments()
            ]
            lines.append(f"machine {machine}: " + (" ".join(parts) if parts else "idle"))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Schedule(machines={len(self._timelines)}, T={self.T}, "
            f"segments={self.total_segments()})"
        )

"""Time segments and mod-T arc placement.

Both schedulers in the paper place work on the *circle* of circumference
``T``: an interval ``[t, t+δ (mod T))`` either fits before the wrap point or
splits into ``[t, T)`` and ``[0, t+δ−T)``.  :func:`place_arc` implements that
splitting exactly; :class:`MachineTimeline` keeps one machine's segments
sorted and overlap-checked.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

from .._fraction import to_fraction
from ..exceptions import InvalidScheduleError

Time = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Segment:
    """A half-open execution interval ``[start, end)`` of one job.

    Half-open semantics make back-to-back segments (``a.end == b.start``)
    non-overlapping, which is exactly how the wrap-around rule hands a job
    from one machine to the next at a single time instant.
    """

    start: Fraction
    end: Fraction
    job: int

    def __post_init__(self):
        object.__setattr__(self, "start", to_fraction(self.start))
        object.__setattr__(self, "end", to_fraction(self.end))
        if self.end <= self.start:
            raise InvalidScheduleError(
                f"segment of job {self.job} has non-positive length "
                f"[{self.start}, {self.end})"
            )

    @property
    def length(self) -> Fraction:
        return self.end - self.start

    def overlaps(self, other: "Segment") -> bool:
        return self.start < other.end and other.start < self.end


def place_arc(t0: Time, length: Time, T: Time) -> List[Tuple[Fraction, Fraction]]:
    """Place ``length`` units starting at ``t0`` on the circle of size ``T``.

    Returns one or two half-open real-time intervals inside ``[0, T)`` whose
    total length equals *length*.  ``length`` must satisfy
    ``0 ≤ length ≤ T`` (an arc longer than the circle would self-overlap);
    ``t0`` must lie in ``[0, T)``.
    """
    t0 = to_fraction(t0)
    length = to_fraction(length)
    T = to_fraction(T)
    if T <= 0:
        raise InvalidScheduleError(f"period T must be positive, got {T}")
    if not 0 <= t0 < T:
        raise InvalidScheduleError(f"arc start {t0} outside [0, {T})")
    if length < 0 or length > T:
        raise InvalidScheduleError(f"arc length {length} outside [0, {T}]")
    if length == 0:
        return []
    end = t0 + length
    if end <= T:
        return [(t0, end)]
    return [(t0, T), (Fraction(0), end - T)]


def advance_mod(t: Time, delta: Time, T: Time) -> Fraction:
    """``(t + delta) mod T`` with exact arithmetic (lines 7/13 of the paper)."""
    t = to_fraction(t)
    delta = to_fraction(delta)
    T = to_fraction(T)
    result = (t + delta) % T
    return result


class MachineTimeline:
    """The segments executed by one machine, kept sorted by start time.

    ``_starts`` mirrors ``_segments`` start for start.  The timeline is
    disjoint, so starts are unique and ordering by start is the same as
    the ``Segment`` order ``(start, end, job)``.
    """

    def __init__(self, machine: int):
        self.machine = machine
        self._segments: List[Segment] = []
        self._starts: List[Fraction] = []

    def add(self, segment: Segment) -> None:
        """Insert a segment, rejecting any overlap with existing ones.

        In a sorted, disjoint timeline only the neighbours ``i-1`` and ``i``
        of the insertion point can overlap *segment*, and the first of them
        that does is the first overlapping segment in timeline order.
        """
        i = bisect_left(self._starts, segment.start)
        for existing in self._segments[max(i - 1, 0):i + 1]:
            if existing.overlaps(segment):
                raise InvalidScheduleError(
                    f"machine {self.machine}: segment {segment} overlaps {existing}"
                )
        self._segments.insert(i, segment)
        self._starts.insert(i, segment.start)

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def load(self) -> Fraction:
        return sum((s.length for s in self._segments), Fraction(0))

    def busy_at(self, t: Time) -> bool:
        t = to_fraction(t)
        return any(s.start <= t < s.end for s in self._segments)

    def free_intervals(self, T: Time) -> List[Tuple[Fraction, Fraction]]:
        """Maximal idle intervals inside ``[0, T)``."""
        T = to_fraction(T)
        free: List[Tuple[Fraction, Fraction]] = []
        cursor = Fraction(0)
        for seg in self._segments:
            if seg.start > cursor:
                free.append((cursor, seg.start))
            cursor = max(cursor, seg.end)
        if cursor < T:
            free.append((cursor, T))
        return free

    def merged_segments(self) -> List[Segment]:
        """Segments with seamless same-job continuations coalesced."""
        merged: List[Segment] = []
        for seg in self._segments:
            if merged and merged[-1].job == seg.job and merged[-1].end == seg.start:
                merged[-1] = Segment(merged[-1].start, seg.end, seg.job)
            else:
                merged.append(seg)
        return merged

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

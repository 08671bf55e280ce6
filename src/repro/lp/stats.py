"""Solver performance counters and an opt-in aggregation scope.

Perf work on the LP substrate needs numbers that survive machine noise:
wall-clock alone cannot tell "the kernel pivots less" from "the laptop was
idle".  Every solve therefore fills a :class:`SolverStats` record (pivot
counts, phase-1 share, basis refactorizations, warm-start outcomes) that is
attached to the :class:`~repro.lp.revised.SimplexResult` /
:class:`~repro.lp.model.LPSolution` it produced.

Higher-level pipelines (the ``minimal_fractional_T`` binary search, the
2-approximation, whole experiments) run many solves whose results are not
individually surfaced.  :func:`collect_stats` opens an aggregation scope:
while it is active, every solve (and every probe shortcut that *avoided* a
solve) adds its counters to the scope's aggregate.  ``repro … --profile``
wraps a CLI run in such a scope and prints the totals, so future perf PRs
can cite counters, not just seconds.

Scopes are per-process (module state, not shared across a sweep's worker
pool) and nestable — an inner scope does not steal counts from an outer one.
The sweep runner closes the per-process gap by running every task inside a
scope and handing the aggregate back to the driver (see
:mod:`repro.runner.executor`), where it is persisted in the store index.

An open trace span is a scope too: :func:`repro.obs.trace.span` attaches
the span's :class:`SolverStats` for as long as the span is open, so spans
and ``collect_stats`` aggregates read one counter stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List


@dataclass
class SolverStats:
    """Counters for one LP solve (or an aggregate of many).

    Every field is an ``int`` counter; :meth:`add`, :meth:`to_json` and
    :meth:`from_json` follow the field list, so a counter is declared once.

    ``warm_start_attempts``/``warm_start_hits`` count crash-basis
    factorizations tried/succeeded (a hit means phase 1 was skipped
    outright).  ``point_reuses``/``farkas_reuses`` count binary-search
    probes answered by re-checking a cached feasible point / Farkas
    certificate instead of solving — the incremental-pipeline shortcuts.
    """

    solves: int = 0
    pivots: int = 0
    phase1_pivots: int = 0
    refactorizations: int = 0
    warm_start_attempts: int = 0
    warm_start_hits: int = 0
    point_reuses: int = 0
    farkas_reuses: int = 0
    #: ``basis_reuses`` is always 0: solves are warm-started from points
    #: only, and no solver basis is carried between solves.  The field stays
    #: because ``perfbench/workload.py`` still reports it as
    #: ``lp.basis_reuses``.
    basis_reuses: int = 0
    #: Session-layer solve cache outcomes: a hit means a whole solve (or a
    #: whole pipeline of solves) was answered from the content-addressed
    #: store with zero pivots; a miss means the cold path ran and its
    #: payload was recorded for next time.
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, other: "SolverStats") -> None:
        for name in _COUNTERS:
            value = getattr(other, name)
            if value:
                setattr(self, name, getattr(self, name) + value)

    def to_json(self) -> Dict[str, int]:
        """Exact JSON-ready form: one plain int per counter.

        The wire format of the sweep hand-back: workers serialize their
        per-task aggregate, the driver and ``repro report --profile``
        rebuild it with :meth:`from_json`.
        """
        return {name: getattr(self, name) for name in _COUNTERS}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SolverStats":
        """Inverse of :meth:`to_json`; unknown keys are ignored, missing
        ones default to 0 (an older artifact stays readable)."""
        return cls(**{name: int(payload.get(name, 0)) for name in _COUNTERS})

    def render(self) -> str:
        """One human-readable block (the ``--profile`` output)."""
        return "\n".join(
            [
                "solver profile:",
                f"  solves            {self.solves}",
                f"  pivots            {self.pivots}  (phase 1: {self.phase1_pivots})",
                f"  refactorizations  {self.refactorizations}",
                f"  warm starts       {self.warm_start_hits}/{self.warm_start_attempts} hits",
                f"  probe shortcuts   {self.point_reuses} point reuses, "
                f"{self.farkas_reuses} Farkas reuses",
                f"  solve cache       {self.cache_hits} hits, "
                f"{self.cache_misses} misses",
            ]
        )


_COUNTERS = tuple(f.name for f in fields(SolverStats))

#: Active aggregation scopes: ``collect_stats`` aggregates and the counters
#: of open trace spans.  Module state: cheap, and the solver hot path must
#: not pay for collection when nothing listens.
_scopes: List[SolverStats] = []


def record(stats: SolverStats) -> None:
    """Add *stats* to every active scope (a no-op when there is none)."""
    for scope in _scopes:
        scope.add(stats)


def attach(scope: SolverStats) -> None:
    """Make *scope* receive every :func:`record` until :func:`detach`."""
    _scopes.append(scope)


def detach(scope: SolverStats) -> None:
    """Stop *scope* receiving records (by identity; a no-op if absent).

    Identity, not ``==``: ``SolverStats`` is a value-comparing dataclass,
    and a nested scope can hold exactly the outer scope's counters
    (:func:`record` feeds both), so ``list.remove`` would pop the wrong —
    outermost equal — scope.
    """
    for i in range(len(_scopes) - 1, -1, -1):
        if _scopes[i] is scope:
            del _scopes[i]
            break


@contextmanager
def collect_stats() -> Iterator[SolverStats]:
    """Aggregate the stats of every solve performed inside the scope.

    Teardown is exception-safe and order-independent: the scope is removed
    by identity wherever it sits in the stack, so scopes unwound out of
    order (e.g. generators closed late, or exceptions propagating through
    several nested scopes at once) each remove exactly themselves and never
    leak.
    """
    scope = SolverStats()
    attach(scope)
    try:
        yield scope
    finally:
        detach(scope)

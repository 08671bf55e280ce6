"""Per-task resource budgets for the sweep runner.

A :class:`TaskBudget` caps what one sweep task may consume before it is
declared failed and (possibly) retried:

* ``wall_seconds`` — wall-clock per attempt, **enforced in the driver**:
  the executor tracks each in-flight future's submission time and kills the
  worker pool when a deadline expires (a hung worker cannot be interrupted
  from inside, so the kill has to come from outside).  Ignored on the
  serial (``jobs=1``) path, where there is no second process to do the
  killing.
* ``max_pivots`` — simplex pivot budget per attempt, enforced **in the
  worker** by swapping the process pivot cap
  (:data:`repro.lp.revised.MAX_PIVOTS`) around the task; any
  solve that exhausts it raises the existing structured
  :class:`~repro.exceptions.PivotLimitError`, which the worker converts to
  a :class:`~repro.exceptions.TaskBudgetError` of kind ``"pivots"``.
* ``max_memory_mb`` — Python-allocation peak per attempt, enforced **in the
  worker** by a :mod:`tracemalloc` guard.  tracemalloc (rather than
  ``resource.setrlimit``) keeps the check deterministic across machines:
  it measures the task's own allocations, not the interpreter baseline or
  address-space layout, so the same task trips the same budget everywhere.

``retries`` rides along because every budget violation feeds the same
retry machinery: a task gets ``retries + 1`` attempts before its failure is
recorded as final in the store's failure ledger.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..exceptions import PivotLimitError, TaskBudgetError

_MIB = 1024 * 1024


@dataclass(frozen=True)
class TaskBudget:
    """Resource limits for one sweep task (``None`` = unlimited).

    Picklable by construction — the driver ships the budget to every pool
    worker inside the task tuple.
    """

    wall_seconds: Optional[float] = None
    max_pivots: Optional[int] = None
    max_memory_mb: Optional[float] = None
    #: Extra attempts after the first failure; ``retries + 1`` total
    #: attempts per task before the failure ledger records it as final.
    retries: int = 0

    def __post_init__(self):
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        if self.max_pivots is not None and self.max_pivots < 0:
            raise ValueError("max_pivots must be >= 0")
        if self.max_memory_mb is not None and self.max_memory_mb <= 0:
            raise ValueError("max_memory_mb must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def limits_worker(self) -> bool:
        """Whether any in-worker guard (pivots/memory) is active."""
        return self.max_pivots is not None or self.max_memory_mb is not None


@contextmanager
def pivot_cap(cap: Optional[int]) -> Iterator[None]:
    """Install *cap* as the process pivot budget for the scope.

    Restores the previous cap on exit, so a pool worker that runs many
    tasks back to back never leaks one task's budget into the next.
    """
    if cap is None:
        yield
        return
    from ..lp import revised

    previous = revised.MAX_PIVOTS
    revised.MAX_PIVOTS = cap
    try:
        yield
    finally:
        revised.MAX_PIVOTS = previous


@contextmanager
def memory_guard(max_mb: Optional[float]) -> Iterator[None]:
    """Raise :class:`TaskBudgetError` when the scope's Python-allocation
    peak exceeds *max_mb* MiB.

    The peak is read from :mod:`tracemalloc` after the scope finishes (or
    fails for another reason — the budget check never masks the task's own
    exception).  A guard opened while tracing is already active leaves the
    outer trace running and compares against the delta from its own start.
    """
    if max_mb is None:
        yield
        return
    import tracemalloc

    owns_trace = not tracemalloc.is_tracing()
    if owns_trace:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    baseline, _peak = tracemalloc.get_traced_memory()
    try:
        yield
    finally:
        _current, peak = tracemalloc.get_traced_memory()
        if owns_trace:
            tracemalloc.stop()
    used_mb = (peak - baseline) / _MIB
    if used_mb > max_mb:
        raise TaskBudgetError(
            "memory", max_mb, round(used_mb, 2), detail="tracemalloc peak"
        )


@contextmanager
def worker_guards(budget: Optional[TaskBudget]) -> Iterator[None]:
    """The in-worker half of budget enforcement: pivots + memory.

    Converts a :class:`PivotLimitError` escaping the task into the
    structured :class:`TaskBudgetError` the retry/ledger machinery acts
    on.  Wall-clock is deliberately absent — that half lives in the driver
    (see :mod:`repro.runner.executor`).
    """
    if budget is None or not budget.limits_worker():
        yield
        return
    try:
        with pivot_cap(budget.max_pivots):
            with memory_guard(budget.max_memory_mb):
                yield
    except PivotLimitError as exc:
        raise TaskBudgetError(
            "pivots", exc.budget, exc.pivots,
            detail=f"phase {exc.phase}",
        ) from exc

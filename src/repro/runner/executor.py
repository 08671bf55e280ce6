"""Process-pool task executor with deterministic, resumable, fault-tolerant
output.

A sweep is a list of :class:`Task` objects — ``(experiment id, run()
kwargs, content key)``.  :func:`run_tasks` executes the ones missing from
the store, either inline (``jobs=1``) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Two properties make ``--jobs N`` indistinguishable from a serial run:

* every task is a self-contained ``spec.run(**params)`` call whose seed (if
  any) is already inside ``params`` — nothing about a worker or its
  schedule can leak into the result;
* completed records are flushed to the store in **task order**, buffering
  out-of-order completions, so even the payload files come out
  byte-identical.

Fault tolerance (see also :mod:`repro.runner.budget` and
:mod:`repro.runner.chaos`):

* **Budgets** — a :class:`~repro.runner.budget.TaskBudget` caps wall-clock
  (driver-enforced: an expired deadline kills the worker pool and rebuilds
  it), pivots and memory (worker-enforced guards); every violation is a
  structured :class:`~repro.exceptions.TaskBudgetError`.
* **Retries** — a failed attempt is retried up to ``budget.retries`` times.
  Retry *ordering* is deterministic and wall-clock-free: the re-submission
  slot is derived from ``derive_seed(0, "backoff", key, attempt)``, so a
  chaos run replays identically.
* **Crash recovery** — a dead worker (``BrokenProcessPool``) no longer
  kills the sweep: buffered ready results are flushed, the pool is rebuilt,
  and only the tasks that were in flight are resubmitted (byte-identical
  payloads are guaranteed because tasks are pure functions of their
  params).  Under chaos the driver *predicts* which in-flight task was
  scheduled to crash (the injector is a pure function both sides evaluate)
  and charges only that task an attempt; co-scheduled victims resubmit for
  free.  A real, unpredicted crash charges every in-flight task — the
  bound that guarantees termination.
* **Failure ledger** — every failed attempt is recorded in the store's
  ``failures`` table (error class, message, traceback, cumulative
  attempts), and cleared on eventual success.  Tasks whose recorded
  attempts already exhaust the retry budget are **quarantined** on resume
  (skipped as poison) unless ``retry_failed`` is set.

Cancellation is not failure: a ``KeyboardInterrupt``/``SystemExit`` —
whether raised in the driver or shipped back from a worker — aborts the
sweep after flushing buffered results, and records nothing in the ledger.

Wall-clock is measured per task and stored in the index only; table columns
an :class:`~repro.runner.registry.ExperimentSpec` declares volatile (e.g.
E14's ``seconds``) are masked to ``None`` in the persistent payload so the
payload stays a pure function of (code, params).
"""

from __future__ import annotations

import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import TaskBudgetError, WorkerCrashError
from ..lp.stats import SolverStats, collect_stats, record as record_stats
from ..obs.trace import (
    Tracer,
    adopt_spans,
    install,
    reset as obs_reset,
    span as trace_span,
    tracing_enabled,
    uninstall,
)
from ..session.cache import SolveCache
from ..session.canon import canonical
from ..workloads.generators import derive_seed
from .budget import TaskBudget, worker_guards
from .chaos import ChaosSpec, inject as chaos_inject, resolve as resolve_chaos
from .registry import get_spec

#: ``Task.label()`` truncates each param's repr at this many characters so
#: one enormous parameter (a 10k-entry tuple, a pasted matrix) cannot flood
#: error lines, the failure ledger, or the echo stream.
LABEL_VALUE_LIMIT = 48


def _truncated_repr(value: Any, limit: int = LABEL_VALUE_LIMIT) -> str:
    """Deterministic bounded repr: same value, same (short) text, always."""
    text = repr(value)
    if len(text) <= limit:
        return text
    kept = limit - 8
    return f"{text[:kept]}…(+{len(text) - kept} chars)"


@dataclass(frozen=True)
class Task:
    """One unit of sweep work: run ``experiment`` with ``params``."""

    experiment: str
    params: Dict[str, Any]
    key: str

    def label(self) -> str:
        inner = ", ".join(
            f"{k}={_truncated_repr(v)}" for k, v in sorted(self.params.items())
        )
        return f"{self.experiment}({inner})"


@dataclass
class SweepStats:
    """What a sweep did; ``executed + skipped + failed + quarantined ==
    total``.

    ``retried`` counts re-submitted attempts (not tasks), ``budget_kills``
    counts workers killed by the driver's wall deadline, ``pool_rebuilds``
    counts process pools rebuilt after a crash or a deadline kill; none of
    the three participates in the total.  ``errors`` holds one entry per
    finally-failed task, **including the traceback** of its last attempt.
    """

    total: int = 0
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    quarantined: int = 0
    retried: int = 0
    budget_kills: int = 0
    pool_rebuilds: int = 0
    errors: List[str] = field(default_factory=list)


def execute_task(
    experiment: str,
    params: Dict[str, Any],
    key: str,
    fingerprint: str,
    trace: bool = False,
    budget: Optional[TaskBudget] = None,
    chaos: Optional[ChaosSpec] = None,
    attempt: int = 0,
    allow_kill: bool = False,
) -> Tuple[Dict[str, Any], float, Dict[str, Any]]:
    """Run one task; return ``(store record, elapsed seconds, profile)``.

    Module-level so it pickles for the process pool; workers re-resolve the
    spec through the registry, which re-imports the experiment module under
    spawn-style start methods.

    The *profile* dict is the measured side of the task: ``"stats"`` holds
    the aggregated :class:`~repro.lp.stats.SolverStats` of the run (always
    collected — it feeds the store index and ``--profile``), and, when
    *trace* is set **in a worker process** (no ambient tracer), ``"spans"``
    holds the task's span tree as ``Span.to_json()`` payloads for the
    driver to :func:`~repro.obs.trace.adopt_spans`.  When the task runs in
    the driver itself, spans flow into the ambient tracer directly and
    ``"spans"`` stays absent.

    *budget* applies the in-worker guards (pivot cap, memory peak); wall
    enforcement lives in the driver.  *chaos*, when given, draws this
    (*key*, *attempt*)'s injected fault — ``allow_kill`` tells the injector
    whether it runs in an expendable pool worker (may SIGKILL/hang) or in
    the driver itself (faults degrade to raised errors).
    """
    spec = get_spec(experiment)
    fault = chaos.draw(key, attempt) if chaos is not None else None
    fault = chaos_inject(fault, allow_kill)
    if fault == "pivot":
        # Exhaust the pivot budget: a zero cap makes the task's first LP
        # pivot raise through the real PivotLimitError channel.
        budget = replace(budget or TaskBudget(), max_pivots=0)
    local_tracer: Optional[Tracer] = None
    if trace and not tracing_enabled():
        local_tracer = Tracer()
        install(local_tracer)
    try:
        with worker_guards(budget):
            with collect_stats() as scope:
                with trace_span(
                    "sweep.task",
                    experiment=experiment, key=key[:12], attempt=attempt,
                ):
                    start = time.perf_counter()
                    result = spec.run(**params)
                    elapsed = time.perf_counter() - start
    finally:
        if local_tracer is not None:
            uninstall(local_tracer)
    profile: Dict[str, Any] = {"stats": scope.to_json()}
    if local_tracer is not None:
        profile["spans"] = [sp.to_json() for sp in local_tracer.spans]
    payload = result.table.to_json()
    volatile = set(spec.volatile_columns) & set(payload["headers"])
    if volatile:
        masked = [payload["headers"].index(c) for c in volatile]
        for row in payload["rows"]:
            for idx in masked:
                row[idx] = None
    record = {
        "key": key,
        "experiment": experiment,
        "params": canonical(params),
        "seed": params.get("seed"),
        "fingerprint": fingerprint,
        "table": payload,
    }
    return record, elapsed, profile


def store_record(
    cache: SolveCache,
    record: Dict[str, Any],
    elapsed_s: float,
    stats: Optional[Dict[str, Any]] = None,
) -> None:
    """Persist one finished task: JSONL payload + index row.

    The one place a task record turns into :meth:`SolveCache.put`'s index
    columns.  *stats*, when given, is the task's aggregated solver-counter
    dict (``SolverStats.to_json()`` shape); it lands in the index only —
    payload bytes stay a pure function of (experiment, params, code).
    """
    cache.put(
        record["key"],
        record["experiment"],
        record,
        params=record["params"],
        seed=record.get("seed"),
        fingerprint=record["fingerprint"],
        elapsed_s=elapsed_s,
        stats=stats,
    )


def _execute_tuple(
    args: Tuple[
        str, Dict[str, Any], str, str, bool,
        Optional[TaskBudget], Optional[ChaosSpec], int,
    ]
):
    # Pool-worker entry: a fork-started worker inherits the driver's
    # installed tracer; reset so execute_task installs a worker-local one
    # whose span tree ships back in the profile instead of vanishing.
    obs_reset()
    experiment, params, key, fingerprint, trace, budget, chaos, attempt = args
    return execute_task(
        experiment, params, key, fingerprint, trace=trace,
        budget=budget, chaos=chaos, attempt=attempt, allow_kill=True,
    )


def _format_traceback(exc: BaseException) -> str:
    """Full traceback text, remote (worker) frames included via the cause
    chain ``concurrent.futures`` attaches."""
    return "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of *pool* (best-effort; the pool is then dead).

    Reaches into ``_processes`` because the executor API has no kill — a
    hung worker cannot be asked nicely.  When the attribute is missing
    (a future CPython rearrangement) the shutdown below still abandons the
    pool; the hung process leaks, which beats hanging the sweep.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass


def run_tasks(
    tasks: List[Task],
    cache: SolveCache,
    fingerprint: str,
    jobs: int = 1,
    echo: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    budget: Optional[TaskBudget] = None,
    chaos: "ChaosSpec | str | None" = None,
    retry_failed: bool = False,
) -> SweepStats:
    """Execute every task not already in *cache*; flush in task order.

    Each executed task's solver counters land in the store index
    (``stats_json``) next to its wall-clock.  With *trace* set and a tracer
    installed in the driver, worker span trees are shipped back and grafted
    under the driver's current span, so ``--jobs N`` still yields one
    merged trace.

    *budget* caps each attempt (wall enforced on the parallel path only —
    the serial driver cannot kill itself) and carries the retry count;
    *chaos* (spec, spec string, or the ``REPRO_CHAOS`` environment default)
    injects deterministic faults; *retry_failed* re-runs tasks the failure
    ledger has quarantined.
    """
    say = echo or (lambda _msg: None)
    budget = budget or TaskBudget()
    chaos_spec = resolve_chaos(chaos)
    max_attempts = budget.max_attempts
    stats = SweepStats(total=len(tasks))

    pending: List[Tuple[int, Task]] = []
    attempts: Dict[int, int] = {}
    for idx, task in enumerate(tasks):
        if cache.has(task.key):
            stats.skipped += 1
            say(f"skip {task.label()}  [cached {task.key[:12]}]")
            continue
        prior = 0 if retry_failed else cache.failure_attempts(task.key)
        if prior >= max_attempts:
            stats.quarantined += 1
            say(
                f"quarantine {task.label()}  [{prior} failed attempt"
                f"{'s' if prior != 1 else ''} in the ledger; pass "
                f"--retry-failed to retry]"
            )
            continue
        attempts[idx] = prior
        pending.append((idx, task))
    if not pending:
        return stats

    by_index = {idx: task for idx, task in pending}

    def fail_or_retry(idx: int, exc: BaseException, elapsed: float,
                      tb_text: Optional[str]) -> bool:
        """Ledger one failed attempt; return True when a retry remains."""
        task = by_index[idx]
        attempts[idx] += 1
        attempt_count = attempts[idx]
        cache.record_failure(
            task.key, task.experiment,
            type(exc).__name__, str(exc), attempt_count,
            traceback_text=tb_text, params=task.params,
            fingerprint=fingerprint, elapsed_s=elapsed,
        )
        if attempt_count < max_attempts:
            stats.retried += 1
            say(
                f"retry {task.label()}  [{type(exc).__name__}; attempt "
                f"{attempt_count + 1}/{max_attempts}]"
            )
            return True
        stats.failed += 1
        detail = f"{task.label()}: {exc!r}"
        if tb_text:
            detail += f"\n{tb_text.rstrip()}"
        stats.errors.append(detail)
        say(f"FAIL {task.label()}: {exc!r}  [{attempt_count} attempts]")
        return False

    if jobs <= 1:
        if budget.wall_seconds is not None:
            say(
                "note: the wall budget (--task-timeout) is enforced by the "
                "parallel driver only; --jobs 1 runs without it"
            )
        for idx, task in pending:
            while True:
                start = time.monotonic()
                try:
                    record, elapsed, profile = execute_task(
                        task.experiment, task.params, task.key, fingerprint,
                        trace=trace, budget=budget, chaos=chaos_spec,
                        attempt=attempts[idx], allow_kill=False,
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise  # cancellation, not failure: nothing to ledger
                except Exception as exc:  # noqa: BLE001 - reported per task
                    if fail_or_retry(
                        idx, exc, time.monotonic() - start,
                        _format_traceback(exc),
                    ):
                        continue
                    break
                store_record(cache, record, elapsed, stats=profile.get("stats"))
                stats.executed += 1
                say(f"done {task.label()}  ({elapsed:.2f}s)")
                break
        return stats

    # Parallel path: submit a window of at most `jobs` tasks (so every
    # in-flight future is actually running and its deadline is honest), and
    # commit results to the store in submission order so payload files
    # match the serial run byte-for-byte.
    order: List[int] = [idx for idx, _task in pending]
    queue: deque = deque(order)
    inflight: Dict[Any, Tuple[int, float]] = {}
    ready: Dict[int, Tuple[Dict[str, Any], float, Dict[str, Any]]] = {}
    resolved_failures: set = set()
    cursor = 0  # next position in `order` eligible to flush
    wall = budget.wall_seconds

    def commit(idx: int) -> None:
        task = by_index[idx]
        record, elapsed, profile = ready.pop(idx)
        store_record(cache, record, elapsed, stats=profile.get("stats"))
        # The work happened in a worker: replay its counter aggregate into
        # the driver's ambient scopes/spans and graft its span tree under
        # the driver's current span.
        worker_stats = profile.get("stats")
        if worker_stats:
            record_stats(SolverStats.from_json(worker_stats))
        adopt_spans(profile.get("spans", ()))
        stats.executed += 1
        say(f"done {task.label()}  ({elapsed:.2f}s)")

    def flush(force: bool = False) -> None:
        """Commit the contiguous ready prefix (task order → byte-identical
        payload files).  *force* additionally commits gap-blocked buffered
        results — only reached on abort/cancellation, where recovering
        finished work beats preserving the file's serial line order (the
        records themselves stay byte-identical; reports sort canonically).
        """
        nonlocal cursor
        while cursor < len(order):
            idx = order[cursor]
            if idx in ready:
                commit(idx)
            elif idx in resolved_failures:
                pass  # ledgered; nothing to write, the cursor moves on
            else:
                break
            cursor += 1
        if force:
            for idx in sorted(ready):
                commit(idx)

    def requeue_retry(idx: int) -> None:
        """Deterministic wall-clock-free backoff: the retry re-enters the
        queue a seed-derived number of slots back instead of sleeping."""
        task = by_index[idx]
        slot = 1 + derive_seed(0, "backoff", task.key, attempts[idx]) % jobs
        queue.insert(min(slot, len(queue)), idx)

    def settle(fut, idx: int, started: float) -> bool:
        """Absorb a finished future (result or its own error); return
        False when the future died with the pool (caller must requeue)."""
        if not fut.done():
            return False
        try:
            ready[idx] = fut.result()
            return True
        except BrokenProcessPool:
            return False
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - reported per task
            if fail_or_retry(
                idx, exc, time.monotonic() - started, _format_traceback(exc)
            ):
                requeue_retry(idx)
            else:
                resolved_failures.add(idx)
            return True

    def rebuild_after_crash(pool, crashed: List[int]):
        """BrokenProcessPool recovery: flush, attribute guilt, rebuild.

        Chaos crashes are predictable (the injector is a pure function the
        driver can evaluate), so only tasks *scheduled* to crash are
        charged an attempt; co-scheduled victims resubmit for free —
        deterministic attempt sequences under chaos.  A real crash is
        unattributable, so every in-flight task is charged (the bound that
        keeps a genuinely crashing task from looping forever).
        """
        stats.pool_rebuilds += 1
        flush()  # buffered ready results survive the rebuild
        guilty = [
            idx for idx in crashed
            if chaos_spec is not None
            and chaos_spec.draw(by_index[idx].key, attempts[idx]) == "crash"
        ]
        if not guilty:
            guilty = list(crashed)
        say(
            f"worker pool broke with {len(crashed)} task(s) in flight; "
            f"rebuilding and resubmitting"
        )
        for idx in guilty:
            exc = WorkerCrashError(
                "worker process died mid-task (crash/OOM/kill); pool rebuilt"
            )
            if fail_or_retry(idx, exc, 0.0, None):
                requeue_retry(idx)
            else:
                resolved_failures.add(idx)
        for idx in sorted(set(crashed) - set(guilty), reverse=True):
            queue.appendleft(idx)  # victims rerun free, original order kept
        pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=jobs)

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        while queue or inflight:
            while queue and len(inflight) < jobs:
                idx = queue.popleft()
                task = by_index[idx]
                try:
                    fut = pool.submit(
                        _execute_tuple,
                        (
                            task.experiment, task.params, task.key,
                            fingerprint, trace, budget, chaos_spec,
                            attempts[idx],
                        ),
                    )
                except BrokenProcessPool:
                    crashed = [idx]
                    for stale, (victim, _t0) in list(inflight.items()):
                        inflight.pop(stale)
                        if not settle(stale, victim, _t0):
                            crashed.append(victim)
                    pool = rebuild_after_crash(pool, crashed)
                    continue
                inflight[fut] = (idx, time.monotonic())
            if not inflight:
                continue

            timeout = None
            if wall is not None:
                earliest = min(t0 for _idx, t0 in inflight.values())
                timeout = max(0.05, earliest + wall - time.monotonic())
            done, _not_done = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            crashed = []
            for fut in done:
                idx, started = inflight.pop(fut)
                if not settle(fut, idx, started):
                    crashed.append(idx)
            if crashed:
                for fut, (idx, started) in list(inflight.items()):
                    inflight.pop(fut)
                    if not settle(fut, idx, started):
                        crashed.append(idx)
                pool = rebuild_after_crash(pool, crashed)
                flush()
                continue

            if wall is not None and inflight:
                now = time.monotonic()
                expired = {
                    fut for fut, (_idx, t0) in inflight.items()
                    if now - t0 >= wall and not fut.done()
                }
                if expired:
                    say(
                        f"deadline: killing {len(expired)} task(s) past the "
                        f"{wall:g}s wall budget"
                    )
                    _kill_pool_workers(pool)
                    stats.pool_rebuilds += 1
                    victims: List[int] = []
                    for fut, (idx, started) in list(inflight.items()):
                        inflight.pop(fut)
                        if settle(fut, idx, started):
                            continue  # finished in the race window
                        if fut in expired:
                            stats.budget_kills += 1
                            exc = TaskBudgetError(
                                "wall", wall, round(now - started, 2),
                                detail="worker killed by the sweep deadline",
                            )
                            if fail_or_retry(idx, exc, now - started, None):
                                requeue_retry(idx)
                            else:
                                resolved_failures.add(idx)
                        else:
                            victims.append(idx)
                    for idx in sorted(victims, reverse=True):
                        queue.appendleft(idx)  # killed alongside; rerun free
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=jobs)

            flush()
    finally:
        # Cancellation/failure must not lose buffered completed work: the
        # forced flush commits everything harvested so far (out-of-order
        # stragglers included), then the pool is released without joining
        # possibly-hung workers.
        flush(force=True)
        pool.shutdown(wait=False, cancel_futures=True)
    return stats

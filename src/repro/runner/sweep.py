"""Sweep orchestration: expand specs into tasks, execute, reassemble tables.

``run_sweep`` is the programmatic face of ``repro sweep``: it expands each
selected experiment's parameter space into tasks (optionally replicated
over derived seeds), keys every task by content hash, and hands the missing
ones to the executor.  ``assemble_table`` is the face of ``repro report``:
it folds a store's accumulated records for one experiment back into a
single :class:`~repro.analysis.tables.Table`.

The store is a :class:`~repro.session.cache.SolveCache` and the sweep adds
two conventions to it:

* a task is keyed by :func:`task_key` — the content hash of ``(experiment
  id, canonicalized params, code fingerprint)`` — so re-running an
  identical sweep finds every key present and executes nothing ("skip
  completed" is nothing but a cache hit);
* each experiment id is one payload bucket.  A
  :class:`~repro.session.Session` sharing the directory writes session
  buckets (:data:`~repro.session.request.SESSION_BUCKET_PREFIX`), which
  :func:`experiment_buckets` leaves out so reports never tabulate raw
  solve payloads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import Table, decode_cell
from ..session.cache import SolveCache
from ..session.canon import canonical_json, code_fingerprint, content_key
from ..session.request import SESSION_BUCKET_PREFIX
from ..workloads.generators import derive_seed
from .budget import TaskBudget
from .executor import SweepStats, Task, run_tasks
from .registry import get_spec

#: Root seed used for replicate derivation when ``--seed0`` is not given.
DEFAULT_SEED0 = 2017


def task_key(experiment: str, params: Dict[str, Any], fingerprint: str) -> str:
    """Content hash identifying one (experiment, params, code) task."""
    return content_key(experiment, canonical_json(params), fingerprint)


def experiment_buckets(cache: SolveCache) -> List[str]:
    """Experiment buckets with completed tasks (session buckets left out)."""
    return [
        name for name in cache.buckets()
        if not name.startswith(SESSION_BUCKET_PREFIX)
    ]


def build_tasks(
    experiment_ids: Sequence[str],
    overrides: Optional[Mapping[str, Any]] = None,
    seeds: int = 1,
    seed0: Optional[int] = None,
    fingerprint: Optional[str] = None,
) -> List[Task]:
    """Expand experiments into the deterministic, ordered sweep task list.

    Seed policy: with ``seeds == 1`` and no explicit ``seed0`` each task
    keeps its experiment's built-in default seed, so a sweep point equals a
    direct ``run()`` call.  Asking for replicates (``seeds > 1``) or a base
    seed derives one seed per (experiment, point, replicate) via
    :func:`repro.workloads.generators.derive_seed` — worker- and
    order-independent by construction.  An explicit ``seed`` override in
    *overrides* wins over derivation.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    fingerprint = fingerprint or code_fingerprint()
    derive = seeds > 1 or seed0 is not None
    base = DEFAULT_SEED0 if seed0 is None else seed0
    tasks: List[Task] = []
    for exp_id in experiment_ids:
        spec = get_spec(exp_id)
        for point in spec.points(overrides):
            if spec.seedable and derive and "seed" not in point:
                replicates = range(seeds)
                point_sig = canonical_json(point)
                for r in replicates:
                    params = dict(point)
                    params["seed"] = derive_seed(base, spec.id, point_sig, r)
                    tasks.append(
                        Task(spec.id, params, task_key(spec.id, params, fingerprint))
                    )
            else:
                params = dict(point)
                tasks.append(
                    Task(spec.id, params, task_key(spec.id, params, fingerprint))
                )
    return tasks


def shard_tasks(tasks: Sequence[Task], shard: Tuple[int, int]) -> List[Task]:
    """Deterministic round-robin slice ``K/N`` of the ordered task list.

    Shard *K* (1-based) of *N* takes every N-th task starting at position
    ``K−1``: the shards partition the list exactly, are stable across
    machines (the task list itself is deterministic), and interleave heavy
    experiments instead of handing one machine a contiguous block of them.
    Because task keys are content hashes, independent CI machines can run
    disjoint shards into separate stores — or sequentially into one — and
    a final un-sharded resume executes nothing.
    """
    k, n = shard
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"shard must satisfy 1 ≤ K ≤ N, got {k}/{n}")
    return [task for idx, task in enumerate(tasks) if idx % n == k - 1]


def run_sweep(
    experiment_ids: Sequence[str],
    cache: SolveCache,
    jobs: int = 1,
    overrides: Optional[Mapping[str, Any]] = None,
    seeds: int = 1,
    seed0: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
    echo: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    budget: Optional[TaskBudget] = None,
    chaos: Optional[Any] = None,
    retry_failed: bool = False,
) -> SweepStats:
    """Run (the missing part of) a sweep against *cache*; returns stats.

    *shard* restricts execution to slice ``(K, N)`` of the deterministic
    task list (see :func:`shard_tasks`) so independent machines can split
    one sweep.  *trace* ships worker span trees back to the driver's
    tracer (see :func:`~repro.runner.executor.run_tasks`).  *budget*
    (per-task limits + retries), *chaos* (a fault-injection spec, spec
    string, or the ``REPRO_CHAOS`` default) and *retry_failed* (re-run
    ledger-quarantined tasks) pass straight through to the executor.
    """
    fingerprint = code_fingerprint()
    tasks = build_tasks(
        experiment_ids, overrides=overrides, seeds=seeds, seed0=seed0,
        fingerprint=fingerprint,
    )
    if shard is not None:
        tasks = shard_tasks(tasks, shard)
    return run_tasks(
        tasks, cache, fingerprint, jobs=jobs, echo=echo, trace=trace,
        budget=budget, chaos=chaos, retry_failed=retry_failed,
    )


def _sortable(obj: Any):
    """A comparison key that orders numeric axes numerically.

    Records of one experiment share their params structure, so recursive
    conversion lines up; scalars are type-tagged so e.g. mixed str/int
    tuples (E10's ``("semi", 6, 2)`` shapes) never raise on comparison.
    """
    if isinstance(obj, dict):
        return tuple((k, _sortable(obj[k])) for k in sorted(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_sortable(v) for v in obj)
    if isinstance(obj, bool):
        return ("b", obj)
    if isinstance(obj, (int, float)):
        return ("n", obj)
    return ("s", str(obj))


def _record_sort_key(record: Dict[str, Any]):
    seed = record.get("seed")
    return (
        _sortable(record.get("params", {})),
        seed if isinstance(seed, int) else -1,
        record.get("key", ""),
    )


def assemble_table(
    cache: SolveCache,
    experiment: str,
    timings: bool = False,
) -> Optional[Table]:
    """Fold every stored record of *experiment* into one accumulated table.

    Row order is canonical (sorted by params, then seed) so report output
    does not depend on completion or insertion order.  With ``timings=True``
    a per-task ``elapsed s`` column is appended from the store index —
    measured metadata, deliberately kept out of the payloads.
    """
    records = sorted(cache.records(experiment), key=_record_sort_key)
    if not records:
        return None
    row_dicts: List[Dict[str, Any]] = []
    multi_seed = len({r.get("seed") for r in records}) > 1
    for record in records:
        payload = record["table"]
        headers = payload["headers"]
        elapsed = None
        if timings:
            meta = cache.meta(record["key"]) or {}
            elapsed = meta.get("elapsed_s")
        for row in payload["rows"]:
            out: Dict[str, Any] = {}
            if multi_seed:
                out["seed"] = record.get("seed")
            out.update(zip(headers, (decode_cell(c) for c in row)))
            if timings:
                out["elapsed s"] = elapsed
            row_dicts.append(out)
    title = (
        f"{experiment} — accumulated sweep "
        f"({len(records)} task{'s' if len(records) != 1 else ''})"
    )
    return Table.from_records(row_dicts, title=title)

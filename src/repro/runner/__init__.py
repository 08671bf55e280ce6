"""Parallel sweep runner: experiment registry, executor, persistent store.

The scale-out layer of the harness.  ``repro sweep`` / ``repro report`` on
the CLI are thin wrappers over:

* :mod:`repro.runner.registry` — each experiment module registers an
  :class:`ExperimentSpec` (id, parameter space, ``run``);
* :mod:`repro.runner.executor` — process-pool sharding of (experiment,
  params, seed) tasks with order-independent, bit-reproducible results,
  committed to a :class:`~repro.session.cache.SolveCache` (SQLite-indexed
  JSONL keyed by content hash, so finished tasks are never recomputed);
* :mod:`repro.runner.sweep` — task keys, orchestration plus table
  reassembly;
* :mod:`repro.runner.budget` / :mod:`repro.runner.chaos` — per-task
  resource budgets with retries, and the deterministic fault injector that
  exercises the recovery paths.
"""

from .budget import TaskBudget
from .chaos import ChaosError, ChaosSpec
from .executor import SweepStats, Task, execute_task, run_tasks, store_record
from .registry import ExperimentSpec, all_specs, experiment_ids, get_spec, register
from .sweep import (
    assemble_table,
    build_tasks,
    experiment_buckets,
    run_sweep,
    shard_tasks,
    task_key,
)

__all__ = [
    "ChaosError",
    "ChaosSpec",
    "ExperimentSpec",
    "SweepStats",
    "Task",
    "TaskBudget",
    "all_specs",
    "assemble_table",
    "build_tasks",
    "execute_task",
    "experiment_buckets",
    "experiment_ids",
    "get_spec",
    "register",
    "run_sweep",
    "run_tasks",
    "shard_tasks",
    "store_record",
    "task_key",
]

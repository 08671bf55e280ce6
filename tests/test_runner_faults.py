"""Fault tolerance in the sweep runner: budgets, retries, crash recovery,
the failure ledger, and the deterministic chaos harness.

The load-bearing properties:

* a ``--jobs N`` sweep whose workers are SIGKILL'd mid-task (injected
  chaos) resumes to completion with payload bytes identical to a
  fault-free serial run;
* an injected hang is killed by the driver's wall deadline and recorded;
* a task that keeps failing is quarantined as poison after its attempt
  budget and only re-run under ``--retry-failed``;
* failed payloads never enter the content-addressed store — they live in
  the failure ledger until a success clears them;
* every chaos draw is a pure function of ``(spec, task key, attempt)``.
"""

from __future__ import annotations

import os
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.analysis.tables import Table
from repro.exceptions import TaskBudgetError, WorkerCrashError
from repro.lp import solve_standard
from repro.lp import revised
from repro.runner import (
    ChaosError,
    ChaosSpec,
    ExperimentSpec,
    Task,
    TaskBudget,
    register,
    run_tasks,
)
from repro.runner.budget import memory_guard, pivot_cap, worker_guards
from repro.runner.chaos import CHAOS_ENV, inject, resolve
from repro.runner.executor import _truncated_repr
from repro.session import Session, SolveCache, SolveRequest, code_fingerprint
from repro.workloads import example_ii1


def _result(**cells):
    return SimpleNamespace(table=Table.from_records([cells], title="ft"))


def run_ft_ok(value: int = 1):
    return _result(value=value, square=value * value)


def run_ft_flaky(counter_path: str = "", fail_times: int = 1, value: int = 7):
    """Fails its first *fail_times* invocations (counted in a side file),
    then succeeds — the chaos-free way to exercise the retry loop."""
    count = 0
    if os.path.exists(counter_path):
        with open(counter_path) as fh:
            count = int(fh.read() or 0)
    with open(counter_path, "w") as fh:
        fh.write(str(count + 1))
    if count < fail_times:
        raise RuntimeError(f"flaky failure #{count}")
    return _result(value=value)


def run_ft_lp(n: int = 3):
    """A tiny exact LP solve, so the pivot budget has pivots to count."""
    result = solve_standard(
        coeff_rows=[{0: 1, 1: 2}, {0: 3, 1: 1}],
        senses=["<=", "<="],
        rhs=[4 * n, 6 * n],
        objective=[Fraction(-1), Fraction(-1)],
        scales=[1, 1],
    )
    return _result(objective=result.objective)


def run_ft_alloc(mib: int = 24):
    blob = bytearray(mib * 1024 * 1024)
    return _result(allocated=len(blob))


def run_ft_interrupt():
    raise KeyboardInterrupt


register(ExperimentSpec(id="ft_ok", run=run_ft_ok, space={"value": (1, 2, 3, 4)}))
register(ExperimentSpec(id="ft_flaky", run=run_ft_flaky))
register(ExperimentSpec(id="ft_lp", run=run_ft_lp))
register(ExperimentSpec(id="ft_alloc", run=run_ft_alloc))
register(ExperimentSpec(id="ft_interrupt", run=run_ft_interrupt))

FP = code_fingerprint()


def _task(experiment: str, **params) -> Task:
    from repro.runner import task_key

    return Task(experiment, params, task_key(experiment, params, FP))


class TestChaosSpec:
    def test_parse_round_trip(self):
        spec = ChaosSpec.parse("crash:0.1,hang@2:0.05,pivot:0.25,fail:0.5")
        assert spec.faults == (
            ("crash", None, 0.1), ("hang", 2, 0.05),
            ("pivot", None, 0.25), ("fail", None, 0.5),
        )
        assert ChaosSpec.parse(spec.to_text()) == spec

    @pytest.mark.parametrize("bad", [
        "explode:0.5",          # unknown kind
        "crash",                # no probability
        "crash:1.5",            # out of range
        "crash:-0.1",           # out of range
        "crash:lots",           # not a float
        "crash@x:0.5",          # bad attempt qualifier
        "crash@-1:0.5",         # negative attempt
        "crash:0.7,fail:0.7",   # mass > 1 at every attempt
        "crash@1:0.6,fail:0.6",  # mass > 1 at attempt 1
        "",                     # no faults
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_draw_is_pure_and_respects_attempt_qualifier(self):
        spec = ChaosSpec.parse("crash@0:1.0")
        for key in ("aaa", "bbb", "a-long-task-key"):
            assert spec.draw(key, 0) == "crash"
            assert spec.draw(key, 0) == spec.draw(key, 0)
            assert spec.draw(key, 1) is None

    def test_draw_certain_fault(self):
        spec = ChaosSpec.parse("fail:1.0")
        assert all(spec.draw(f"k{i}", 0) == "fail" for i in range(20))

    def test_draw_varies_with_key_and_attempt(self):
        spec = ChaosSpec.parse("fail:0.5")
        draws = {(spec.draw(f"k{i}", a)) for i in range(40) for a in (0, 1)}
        assert draws == {None, "fail"}

    def test_resolve_and_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "fail:0.25")
        assert resolve(None) == ChaosSpec.parse("fail:0.25")
        monkeypatch.delenv(CHAOS_ENV)
        assert resolve(None) is None
        spec = ChaosSpec.parse("pivot:1.0")
        assert resolve(spec) is spec
        assert resolve("pivot:1.0") == spec

    def test_inject_fail_and_pivot(self):
        with pytest.raises(ChaosError):
            inject("fail", allow_kill=True)
        assert inject("pivot", allow_kill=True) == "pivot"
        assert inject(None, allow_kill=True) is None

    def test_inject_downgrades_kills_on_serial_path(self):
        for fault in ("crash", "hang"):
            with pytest.raises(ChaosError, match="downgraded"):
                inject(fault, allow_kill=False)


class TestTaskBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskBudget(wall_seconds=0)
        with pytest.raises(ValueError):
            TaskBudget(max_pivots=-1)
        with pytest.raises(ValueError):
            TaskBudget(max_memory_mb=0)
        with pytest.raises(ValueError):
            TaskBudget(retries=-1)

    def test_max_attempts(self):
        assert TaskBudget().max_attempts == 1
        assert TaskBudget(retries=3).max_attempts == 4

    def test_pivot_cap_scopes_the_process_default(self):
        before = revised.MAX_PIVOTS
        with pivot_cap(5):
            assert revised.MAX_PIVOTS == 5
        assert revised.MAX_PIVOTS == before

    def test_pivot_budget_trips_through_the_solver(self):
        with pytest.raises(TaskBudgetError) as info:
            with worker_guards(TaskBudget(max_pivots=0)):
                run_ft_lp()
        assert info.value.kind == "pivots"
        assert info.value.limit == 0

    def test_memory_guard_trips_and_passes(self):
        with pytest.raises(TaskBudgetError) as info:
            with memory_guard(4):
                run_ft_alloc(mib=24)
        assert info.value.kind == "memory"
        assert info.value.observed > 4
        with memory_guard(256):
            run_ft_alloc(mib=4)

    def test_memory_guard_never_masks_the_task_error(self):
        with pytest.raises(RuntimeError, match="task error"):
            with memory_guard(1):
                blob = bytearray(8 * 1024 * 1024)
                raise RuntimeError(f"task error ({len(blob)})")

    def test_budget_error_pickles_with_structure(self):
        err = TaskBudgetError("wall", 2.0, 3.7, detail="killed")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.kind, clone.limit, clone.observed) == ("wall", 2.0, 3.7)
        assert "killed" in str(clone)


class TestFailureLedger:
    def test_record_read_clear(self, tmp_path):
        with SolveCache(str(tmp_path)) as cache:
            assert cache.failure_attempts("k1") == 0
            cache.record_failure(
                "k1", "exp", "RuntimeError", "boom", 1,
                traceback_text="Traceback...", params={"n": 2},
                elapsed_s=0.5,
            )
            cache.record_failure(
                "k1", "exp", "RuntimeError", "boom again", 2,
            )
            assert cache.failure_attempts("k1") == 2
            row = cache.failure("k1")
            assert row["message"] == "boom again"
            assert cache.failure_count() == 1
            assert cache.failure_count("exp") == 1
            assert cache.failure_count("other") == 0
            assert [r["key"] for r in cache.failures("exp")] == ["k1"]
            cache.clear_failure("k1")
            assert cache.failure("k1") is None

    def test_successful_put_clears_the_ledger_row(self, tmp_path):
        with SolveCache(str(tmp_path)) as cache:
            cache.record_failure("k1", "exp", "RuntimeError", "boom", 1)
            cache.put("k1", "exp", {"key": "k1", "table": {}})
            assert cache.failure("k1") is None
            assert cache.get("k1") is not None

    def test_put_refuses_failed_payloads(self, tmp_path):
        with SolveCache(str(tmp_path)) as cache:
            with pytest.raises(ValueError, match="failed payload"):
                cache.put("k1", "exp", {"error": "boom"})
            with pytest.raises(ValueError, match="failed payload"):
                cache.put("k1", "exp", {"status": "failed"})
            assert cache.get("k1") is None


class TestSerialRetries:
    def test_retry_succeeds_and_clears_the_ledger(self, tmp_path):
        counter = str(tmp_path / "count")
        task = _task("ft_flaky", counter_path=counter, fail_times=1)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks(
                [task], store, FP, budget=TaskBudget(retries=2)
            )
            assert (stats.executed, stats.failed, stats.retried) == (1, 0, 1)
            assert store.failure(task.key) is None
            assert store.has(task.key)

    def test_exhausted_retries_record_final_failure_with_traceback(self, tmp_path):
        task = _task("ft_ok", value=9)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks(
                [task], store, FP,
                budget=TaskBudget(retries=1), chaos="fail:1.0",
            )
            assert (stats.executed, stats.failed, stats.retried) == (0, 1, 1)
            assert "ChaosError" in stats.errors[0]
            assert "Traceback" in stats.errors[0]
            row = store.failure(task.key)
            assert row["attempts"] == 2
            assert row["error_class"] == "ChaosError"
            assert "Traceback" in row["traceback"]
            assert not store.has(task.key)

    def test_poison_quarantine_and_retry_failed(self, tmp_path):
        task = _task("ft_ok", value=9)
        budget = TaskBudget(retries=1)
        with SolveCache(str(tmp_path / "store")) as store:
            run_tasks([task], store, FP, budget=budget, chaos="fail:1.0")
            # Resume without --retry-failed: the ledger says the attempt
            # budget is spent, so the task is skipped as poison.
            stats = run_tasks([task], store, FP, budget=budget)
            assert (stats.executed, stats.quarantined) == (0, 1)
            assert stats.failed == 0
            # --retry-failed re-runs it; success clears the ledger row.
            stats = run_tasks(
                [task], store, FP, budget=budget, retry_failed=True
            )
            assert stats.executed == 1
            assert store.failure(task.key) is None
            assert store.has(task.key)

    def test_keyboard_interrupt_aborts_without_a_failure_record(self, tmp_path):
        task = _task("ft_interrupt")
        with SolveCache(str(tmp_path / "store")) as store:
            with pytest.raises(KeyboardInterrupt):
                run_tasks([task], store, FP, budget=TaskBudget(retries=3))
            assert store.failure(task.key) is None
            assert store.failure_count() == 0
            assert not store.has(task.key)

    def test_chaos_pivot_fault_fires_through_the_lp(self, tmp_path):
        task = _task("ft_lp", n=2)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks([task], store, FP, chaos="pivot:1.0")
            assert stats.failed == 1
            row = store.failure(task.key)
            assert row["error_class"] == "TaskBudgetError"
            assert "pivot" in row["message"]


class TestParallelFaults:
    def test_crashed_workers_resume_to_byte_identical_payloads(self, tmp_path):
        tasks = [_task("ft_ok", value=v) for v in (1, 2, 3, 4)]
        serial_dir = tmp_path / "serial"
        chaos_dir = tmp_path / "chaos"
        with SolveCache(str(serial_dir)) as store:
            clean = run_tasks(tasks, store, FP)
            assert clean.executed == 4
        with SolveCache(str(chaos_dir)) as store:
            stats = run_tasks(
                tasks, store, FP, jobs=2,
                budget=TaskBudget(retries=2), chaos="crash@0:1.0",
            )
            assert stats.executed == 4
            assert stats.failed == 0
            assert stats.pool_rebuilds >= 1
            assert stats.retried >= 1
            assert store.failure_count() == 0
        serial_bytes = (serial_dir / "payloads" / "ft_ok.jsonl").read_bytes()
        chaos_bytes = (chaos_dir / "payloads" / "ft_ok.jsonl").read_bytes()
        assert chaos_bytes == serial_bytes

    def test_hang_is_killed_by_the_wall_deadline_then_retried(self, tmp_path):
        task = _task("ft_ok", value=5)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks(
                [task], store, FP, jobs=2,
                budget=TaskBudget(wall_seconds=1.0, retries=1),
                chaos="hang@0:1.0",
            )
            assert stats.executed == 1
            assert stats.budget_kills == 1
            assert stats.retried == 1
            assert store.failure(task.key) is None

    def test_hang_without_retries_lands_in_the_ledger(self, tmp_path):
        task = _task("ft_ok", value=6)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks(
                [task], store, FP, jobs=2,
                budget=TaskBudget(wall_seconds=1.0), chaos="hang@0:1.0",
            )
            assert (stats.executed, stats.failed) == (0, 1)
            assert stats.budget_kills == 1
            row = store.failure(task.key)
            assert row["error_class"] == "TaskBudgetError"
            assert "wall" in row["message"]

    def test_worker_crash_error_names_the_crash(self, tmp_path):
        task = _task("ft_ok", value=8)
        with SolveCache(str(tmp_path / "store")) as store:
            stats = run_tasks(
                [task], store, FP, jobs=2, chaos="crash:1.0",
            )
            assert stats.failed == 1
            row = store.failure(task.key)
            assert row["error_class"] == WorkerCrashError.__name__


class TestLabelTruncation:
    def test_huge_param_reprs_are_bounded(self):
        task = Task("ft_ok", {"value": "x" * 500, "n": 3}, "k")
        label = task.label()
        assert len(label) < 120
        assert "…(+" in label and label.endswith(")")
        assert task.label() == label  # deterministic

    def test_short_params_are_untouched(self):
        task = Task("ft_ok", {"value": 3}, "k")
        assert task.label() == "ft_ok(value=3)"

    def test_truncated_repr_is_exact_at_the_limit(self):
        assert _truncated_repr("a" * 10, limit=48) == repr("a" * 10)
        text = _truncated_repr("a" * 100, limit=48)
        assert text.startswith("'aaa")
        assert text.endswith("chars)")


class TestSessionNeverCachesFailure:
    def test_failed_compute_leaves_the_cache_empty(self, tmp_path):
        instance = example_ii1()
        request = SolveRequest("ft_failing", instance, {})

        def boom():
            raise RuntimeError("solver exploded")

        with SolveCache(str(tmp_path)) as cache:
            with Session(cache=cache) as session:
                with pytest.raises(RuntimeError, match="solver exploded"):
                    session._solve(
                        request, compute=boom,
                        encode=lambda v: v, decode=lambda v: v,
                    )
            assert cache.get(request.key()) is None
            assert cache.bucket_summary() == {}

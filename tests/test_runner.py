"""Tests for the parallel sweep runner: registry, store, executor, CLI.

The load-bearing properties:

* parallel (``--jobs N``) sweep output is byte-identical to serial output;
* the store round-trip preserves ``Fraction`` cells exactly;
* resuming against a populated store re-executes nothing;
* ``benchmarks/_common.emit`` writes atomically.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
from fractions import Fraction

import pytest

from repro.analysis.tables import Table, decode_cell, encode_cell
from repro.cli import main as cli_main
from repro.runner import (
    all_specs,
    assemble_table,
    build_tasks,
    execute_task,
    experiment_buckets,
    get_spec,
    run_sweep,
    store_record,
    task_key,
)
from repro.session import SolveCache, canonical_json, code_fingerprint
from repro.workloads import derive_seed

#: Overrides that shrink every seedable experiment used below to test scale.
TINY = {"machine_counts": (2,), "trials": 2, "n_jobs": 4}


class TestRegistry:
    def test_all_nineteen_registered(self):
        # Other test modules register throwaway specs (the fault-injection
        # suite does); the paper's e-suite must still be exactly E01–E19.
        ids = [s.id for s in all_specs() if s.id.startswith("e")]
        assert ids == [f"e{k:02d}" for k in range(1, 20)]

    def test_summaries_come_from_docstrings(self):
        for spec in all_specs():
            if not spec.id.startswith("e"):
                continue  # test-registered specs live in test modules
            assert spec.summary.startswith(spec.id.upper().replace("E0", "E0"))
            assert len(spec.summary) > 10

    def test_params_match_run_signatures(self):
        """Every declared cli_param / space axis is a real run() kwarg."""
        for spec in all_specs():
            params = inspect.signature(spec.run).parameters
            for key in spec.cli_params:
                assert key in params, (spec.id, key)
            for key in spec.space:
                assert key in params, (spec.id, key)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_spec("e99")

    def test_points_cartesian_product_and_overrides(self):
        spec = get_spec("e15")
        points = spec.points()
        assert len(points) == 2  # two utilization levels x singleton axes
        overridden = spec.points({"utilizations": (0.5,), "nonsense": 1})
        assert len(overridden) == 1
        assert overridden[0]["utilizations"] == (0.5,)
        assert "nonsense" not in overridden[0]


class TestDeriveSeed:
    def test_deterministic_and_component_sensitive(self):
        a = derive_seed(7, "e07", "params", 0)
        assert a == derive_seed(7, "e07", "params", 0)
        assert a != derive_seed(7, "e07", "params", 1)
        assert a != derive_seed(8, "e07", "params", 0)
        assert 0 <= a < 2**63

    def test_usable_as_numpy_seed(self):
        from repro.workloads import rng_from_seed

        rng = rng_from_seed(derive_seed(1, "x"))
        assert 0 <= rng.random() < 1


class TestTableJson:
    def _table(self):
        t = Table("T — demo", ["name", "exact", "approx"], digits=4)
        t.add_row("a", Fraction(10, 3), 1.25)
        t.add_row("b", Fraction(-7, 2), None)
        t.add_row("c", 42, True)
        return t

    def test_round_trip_preserves_fractions_exactly(self):
        t = self._table()
        back = Table.from_json(json.loads(json.dumps(t.to_json())))
        assert back.rows[0][1] == Fraction(10, 3)
        assert isinstance(back.rows[0][1], Fraction)
        assert back.rows[1][1] == Fraction(-7, 2)
        assert back.rows == t.rows
        assert back.render() == t.render()

    def test_to_json_is_strict_json(self):
        t = Table("inf", ["v"])
        t.add_row(float("inf"))
        blob = json.dumps(t.to_json(), allow_nan=False)
        assert decode_cell(json.loads(blob)["rows"][0][0]) == float("inf")

    def test_encode_decode_cells(self):
        for cell in [None, True, False, 3, 2.5, "x", Fraction(355, 113)]:
            assert decode_cell(encode_cell(cell)) == cell

    def test_from_records_union_headers(self):
        t = Table.from_records(
            [{"a": 1, "b": Fraction(1, 2)}, {"b": 2, "c": "x"}], title="acc"
        )
        assert t.headers == ["a", "b", "c"]
        assert t.rows[0] == [1, Fraction(1, 2), None]
        assert t.rows[1] == [None, 2, "x"]

    def test_add_row_arity_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)


class TestStoreAndKeys:
    def test_canonical_json_normalizes_tuples_and_fractions(self):
        assert canonical_json({"b": (1, 2), "a": Fraction(1, 3)}) == canonical_json(
            {"a": Fraction(1, 3), "b": [1, 2]}
        )

    def test_canonical_json_is_strict_json_even_for_inf(self):
        blob = canonical_json({"x": float("inf"), "f": Fraction(1, 2)})
        assert "Infinity" not in blob  # no non-standard JSON literals
        parsed = json.loads(blob)
        assert parsed["x"] == {"$float": "inf"}
        assert parsed["f"] == {"$frac": [1, 2]}

    def test_task_key_sensitive_to_every_component(self):
        fp = "f" * 64
        base = task_key("e07", {"trials": 4}, fp)
        assert base == task_key("e07", {"trials": 4}, fp)
        assert base != task_key("e08", {"trials": 4}, fp)
        assert base != task_key("e07", {"trials": 5}, fp)
        assert base != task_key("e07", {"trials": 4}, "0" * 64)

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_store_round_trip(self, tmp_path):
        with SolveCache(str(tmp_path / "store")) as store:
            record, elapsed, _profile = execute_task(
                "e01", {}, task_key("e01", {}, code_fingerprint()), code_fingerprint()
            )
            store_record(store, record, elapsed)
            assert store.has(record["key"])
            assert experiment_buckets(store) == ["e01"]
            (got,) = list(store.records("e01"))
            table = Table.from_json(got["table"])
            # E01's measured optimum is the exact Fraction 2, preserved.
            assert table.rows[0][2] == 2
            meta = store.meta(record["key"])
            assert meta["status"] == "done"
            assert meta["elapsed_s"] >= 0


class TestSweep:
    def test_build_tasks_default_keeps_builtin_seed(self):
        tasks = build_tasks(["e03"], overrides=TINY)
        assert len(tasks) == 1
        assert "seed" not in tasks[0].params  # run() default applies

    def test_build_tasks_replicates_with_derived_seeds(self):
        tasks = build_tasks(["e03"], overrides=TINY, seeds=3, seed0=11)
        assert len(tasks) == 3
        seeds = [t.params["seed"] for t in tasks]
        assert len(set(seeds)) == 3
        # Derivation is a pure function of (seed0, id, point, replicate).
        again = build_tasks(["e03"], overrides=TINY, seeds=3, seed0=11)
        assert [t.key for t in again] == [t.key for t in tasks]

    def test_explicit_seed_override_wins(self):
        tasks = build_tasks(["e03"], overrides=dict(TINY, seed=5), seeds=2, seed0=1)
        assert all(t.params["seed"] == 5 for t in tasks)
        assert len(tasks) == 1

    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        ids = ["e01", "e03"]
        stats = {}
        for jobs, name in ((1, "serial"), (2, "parallel")):
            with SolveCache(str(tmp_path / name)) as store:
                stats[name] = run_sweep(ids, store, jobs=jobs, overrides=TINY)
        assert stats["serial"].executed == stats["parallel"].executed == 2
        assert stats["serial"].failed == stats["parallel"].failed == 0
        for exp in ids:
            serial = (tmp_path / "serial" / "payloads" / f"{exp}.jsonl").read_bytes()
            parallel = (tmp_path / "parallel" / "payloads" / f"{exp}.jsonl").read_bytes()
            assert serial == parallel
            assert serial  # non-empty

    def test_resume_skips_every_completed_task(self, tmp_path):
        with SolveCache(str(tmp_path / "store")) as store:
            first = run_sweep(["e01", "e03"], store, jobs=1, overrides=TINY)
            second = run_sweep(["e01", "e03"], store, jobs=2, overrides=TINY)
        assert first.executed == 2 and first.skipped == 0
        assert second.executed == 0 and second.skipped == 2

    def test_shards_partition_the_task_list(self):
        from repro.runner import shard_tasks

        tasks = build_tasks(["e16", "e17"])
        for n in (1, 2, 3, len(tasks), len(tasks) + 3):
            shards = [shard_tasks(tasks, (k, n)) for k in range(1, n + 1)]
            rebuilt = []
            for idx in range(len(tasks)):
                rebuilt.append(shards[idx % n][idx // n])
            assert rebuilt == tasks
            assert sum(len(s) for s in shards) == len(tasks)

    def test_shard_rejects_bad_indices(self):
        from repro.runner import shard_tasks

        tasks = build_tasks(["e16"])
        with pytest.raises(ValueError):
            shard_tasks(tasks, (0, 2))
        with pytest.raises(ValueError):
            shard_tasks(tasks, (3, 2))

    def test_sharded_sweeps_compose_into_one_store(self, tmp_path):
        ids = ["e01", "e03"]
        with SolveCache(str(tmp_path / "store")) as store:
            first = run_sweep(ids, store, overrides=TINY, shard=(1, 2))
            second = run_sweep(ids, store, overrides=TINY, shard=(2, 2))
            full = run_sweep(ids, store, overrides=TINY)
        assert first.executed + second.executed == 2
        assert full.executed == 0 and full.skipped == 2

    def test_volatile_columns_masked_in_payload(self):
        params = {"shapes": ((4, 2),), "backends": ("exact",)}
        record, _elapsed, _profile = execute_task(
            "e14", params, task_key("e14", params, "fp"), "fp"
        )
        headers = record["table"]["headers"]
        sec = headers.index("seconds")
        assert all(row[sec] is None for row in record["table"]["rows"])
        # ...but the non-volatile measurement columns survive.
        ratio = headers.index("ratio vs T*")
        assert all(row[ratio] is not None for row in record["table"]["rows"])

    def test_assemble_table_accumulates_across_invocations(self, tmp_path):
        with SolveCache(str(tmp_path / "store")) as store:
            run_sweep(["e03"], store, jobs=1, overrides=TINY)
            run_sweep(
                ["e03"], store, jobs=1,
                overrides={**TINY, "machine_counts": (3,)},
            )
            table = assemble_table(store, "e03")
        assert table is not None
        assert len(table.rows) == 2  # one row per machine count, two sweeps
        assert "2 tasks" in table.title

    def test_assemble_table_empty_store(self, tmp_path):
        with SolveCache(str(tmp_path / "store")) as store:
            assert assemble_table(store, "e03") is None

    def test_assemble_table_orders_numeric_axes_numerically(self, tmp_path):
        with SolveCache(str(tmp_path / "store")) as store:
            for counts in ((10,), (2,)):
                run_sweep(
                    ["e03"], store, jobs=1,
                    overrides={**TINY, "machine_counts": counts},
                )
            table = assemble_table(store, "e03")
        m_col = table.headers.index("m")
        assert [row[m_col] for row in table.rows] == [2, 10]

    def test_report_never_mixes_code_generations(self, tmp_path):
        """After a (simulated) code edit, only the latest generation shows."""
        with SolveCache(str(tmp_path / "store")) as store:
            for fp in ("old" * 21 + "x", "new" * 21 + "x"):
                record, elapsed, _profile = execute_task(
                    "e01", {}, task_key("e01", {}, fp), fp
                )
                store_record(store, record, elapsed)
            latest = list(store.records("e01"))
            assert len(latest) == 1
            assert latest[0]["fingerprint"].startswith("new")
            everything = list(store.records("e01", fingerprint="*"))
            assert len(everything) == 2
            table = assemble_table(store, "e01")
            assert len(table.rows) == 3  # one generation's three rows, not six


class TestStoreTornWrites:
    """Crash-resilience of the JSONL payloads (a writer killed mid-append).

    The index is the source of truth: a torn trailing line belongs to a
    task that was never committed, so readers must skip it and a resumed
    sweep must re-execute that task and append a clean copy — without the
    fragment corrupting the fresh record.
    """

    E01_PARAMS: dict = {}

    def _store_with_torn_tail(self, tmp_path, fragment: str):
        store = SolveCache(str(tmp_path / "store"))
        run_sweep(["e01"], store, jobs=1)
        payload = tmp_path / "store" / "payloads" / "e01.jsonl"
        with open(payload, "a", encoding="utf-8") as fh:
            fh.write(fragment)  # no trailing newline: a torn write
        return store, payload

    def test_records_skip_truncated_last_line(self, tmp_path):
        store, payload = self._store_with_torn_tail(
            tmp_path, '{"key": "deadbeef", "experiment": "e01", "tab'
        )
        records = list(store.records("e01"))
        assert len(records) == 1  # the committed task, not the fragment
        assert records[0]["key"] != "deadbeef"
        store.close()

    def test_records_skip_unindexed_but_parseable_line(self, tmp_path):
        # A complete JSON line whose key never made it into the index (the
        # crash happened between fsync and commit) is equally uncommitted.
        store, payload = self._store_with_torn_tail(
            tmp_path, '{"key": "deadbeef", "experiment": "e01"}\n'
        )
        assert len(list(store.records("e01"))) == 1
        store.close()

    def test_resume_repairs_torn_tail_and_reexecutes_nothing_extra(self, tmp_path):
        store, payload = self._store_with_torn_tail(tmp_path, '{"key": "de')
        store.close()
        # The crashed writer is gone; the resume opens a *fresh* store.
        store = SolveCache(str(tmp_path / "store"))
        # The completed task is still indexed, so resume executes nothing…
        stats = run_sweep(["e01"], store, jobs=1)
        assert stats.executed == 0 and stats.skipped == 1
        # …and a *new* task appended after the torn tail is sealed off on
        # its own line, readable alongside the original record.
        record, elapsed, _profile = execute_task(
            "e01", {}, task_key("e01", {"v": 2}, code_fingerprint()),
            code_fingerprint(),
        )
        store_record(store, record, elapsed)
        records = list(store.records("e01"))
        assert len(records) == 2
        lines = payload.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith('{"experiment"') or lines[-1].startswith('{"')
        assert json.loads(lines[-1])["key"] == record["key"]
        store.close()

    def test_ends_mid_line_detection(self, tmp_path):
        path = tmp_path / "f.jsonl"
        assert not SolveCache._ends_mid_line(str(path))  # missing
        path.write_text("")
        assert not SolveCache._ends_mid_line(str(path))  # empty
        path.write_text('{"a": 1}\n')
        assert not SolveCache._ends_mid_line(str(path))  # clean
        path.write_text('{"a": 1}\n{"b"')
        assert SolveCache._ends_mid_line(str(path))  # torn

    def test_blank_and_non_dict_lines_skipped(self, tmp_path):
        store, payload = self._store_with_torn_tail(tmp_path, "\n\n[1, 2]\n42\n")
        assert len(list(store.records("e01"))) == 1
        store.close()


class TestMixedExperimentStore:
    """One store holding both e16 and e18 rows — the `repro report` path
    the sweep smoke misses."""

    E16_TINY = {"cycles": (3,), "rho_percents": (100,), "jitter_denom": 16}
    E18_TINY = {
        "utilizations": (0.6,),
        "arrival_families": ("synchronous",),
        "topologies": ("flat4",),
        "trials": 1,
    }

    def _populated_store(self, tmp_path):
        store = SolveCache(str(tmp_path / "store"))
        s16 = run_sweep(["e16"], store, jobs=1, overrides=self.E16_TINY)
        s18 = run_sweep(["e18"], store, jobs=1, overrides=self.E18_TINY)
        assert s16.failed == 0 and s18.failed == 0
        assert s16.executed >= 1 and s18.executed >= 1
        return store

    def test_store_lists_both_experiments(self, tmp_path):
        store = self._populated_store(tmp_path)
        assert experiment_buckets(store) == ["e16", "e18"]
        store.close()

    def test_assemble_each_experiment_independently(self, tmp_path):
        store = self._populated_store(tmp_path)
        t16 = assemble_table(store, "e16")
        t18 = assemble_table(store, "e18")
        assert t16 is not None and "cycle" in t16.headers
        assert t18 is not None and "miss ratio" in t18.headers
        # Rows never leak across experiments: headers stay disjoint shapes.
        assert "miss ratio" not in t16.headers
        assert "cycle" not in t18.headers
        store.close()

    def test_cli_report_renders_both(self, tmp_path, capsys):
        store = self._populated_store(tmp_path)
        store.close()
        assert cli_main(["report", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "e16 — accumulated sweep" in out
        assert "e18 — accumulated sweep" in out

    def test_e18_parallel_payload_byte_identical(self, tmp_path):
        overrides = dict(self.E18_TINY, arrival_families=("synchronous", "sporadic"))
        for jobs, name in ((1, "serial"), (2, "parallel")):
            with SolveCache(str(tmp_path / name)) as store:
                stats = run_sweep(["e18"], store, jobs=jobs, overrides=overrides)
                assert stats.failed == 0
        serial = (tmp_path / "serial" / "payloads" / "e18.jsonl").read_bytes()
        parallel = (tmp_path / "parallel" / "payloads" / "e18.jsonl").read_bytes()
        assert serial == parallel and serial


class TestCli:
    def test_experiments_list(self, capsys):
        assert cli_main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("e01", "e07", "e15"):
            assert exp_id in out
        assert "Example II.1" in out

    def test_sweep_report_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(
            ["sweep", "e01", "--jobs", "1", "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        assert cli_main(
            ["sweep", "e01", "--jobs", "2", "--store", store]
        ) == 0
        assert "0 executed" in capsys.readouterr().out
        assert cli_main(["report", store]) == 0
        out = capsys.readouterr().out
        assert "e01 — accumulated sweep" in out
        assert "semi-partitioned" in out

    def test_sweep_params_override(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = cli_main(
            [
                "sweep", "e03", "--store", store,
                "--params", "machine_counts=(2,)", "trials=2", "n_jobs=4",
            ]
        )
        assert rc == 0
        assert "machine_counts=(2,)" in capsys.readouterr().out

    def test_sweep_unknown_id(self, capsys):
        assert cli_main(["sweep", "e99"]) == 2

    def test_sweep_shard_cli_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(["sweep", "e16", "--shard", "1/2", "--store", store]) == 0
        assert "shard 1/2" in capsys.readouterr().out
        assert cli_main(["sweep", "e16", "--shard", "2/2", "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["sweep", "e16", "--store", store]) == 0
        assert "0 executed" in capsys.readouterr().out
        assert cli_main(["report", store, "e16"]) == 0
        assert "e16 — accumulated sweep (2 tasks)" in capsys.readouterr().out

    def test_sweep_shard_malformed(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "e16", "--shard", "banana", "--store", str(tmp_path)])
        with pytest.raises(SystemExit):
            cli_main(["sweep", "e16", "--shard", "3/2", "--store", str(tmp_path)])

    def test_sweep_rejects_seeds_on_unseedable_selection(self, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "e01", "e02", "--seeds", "8", "--store", str(tmp_path / "s")]
        )
        assert rc == 2
        assert "no effect" in capsys.readouterr().out
        rc = cli_main(
            ["sweep", "e01", "--seed0", "42", "--store", str(tmp_path / "s")]
        )
        assert rc == 2
        assert "no effect" in capsys.readouterr().out

    def test_sweep_rejects_typoed_params_key(self, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "e03", "--store", str(tmp_path / "s"), "--params", "trails=5"]
        )
        assert rc == 2
        assert "trails" in capsys.readouterr().out

    def test_report_missing_store(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2


class TestAtomicEmit:
    def _load_common(self):
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "_common.py",
        )
        spec = importlib.util.spec_from_file_location("bench_common", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_emit_atomic_and_clean(self, tmp_path, monkeypatch, capsys):
        common = self._load_common()
        monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
        table = Table("t", ["a"])
        table.add_row(Fraction(1, 2))
        common.emit("demo", table)
        assert (tmp_path / "demo.txt").read_text().startswith("t\n")
        # No temp droppings: the only file left is the final one.
        assert os.listdir(tmp_path) == ["demo.txt"]
        common.emit("demo", table)  # overwrite goes through os.replace too
        assert os.listdir(tmp_path) == ["demo.txt"]

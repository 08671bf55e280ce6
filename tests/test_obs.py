"""Tests for the observability substrate: spans, exporters, the sweep
stats hand-back, and the never-perturb-results invariant.

The load-bearing properties:

* :func:`repro.obs.span` is free when no tracer is installed (yields
  ``None``, allocates nothing) and builds a correctly parented tree when
  one is;
* counter deltas recorded while a span is open attach to it (and to its
  ancestors): an open span's counters are a ``collect_stats``-style scope,
  detached when the span closes or tracing is uninstalled, reset or
  suspended;
* ``SolverStats.to_json``/``from_json`` and ``Span`` round-trip exactly —
  the sweep worker→driver wire format — and older payloads still load;
* scopes survive out-of-order unwinds under exceptions;
* **byte-identity**: traced runs produce bit-identical results, payload
  files, and counter totals to untraced runs — observability feeds
  nothing back into the computation;
* the Chrome-trace exporter emits structurally valid ``trace_event``
  payloads and the validator rejects malformed ones;
* worker span trees and per-task counters survive the 2-worker sweep
  round trip into the driver's tracer and the store index.
"""

from __future__ import annotations

import json
import os
import sqlite3
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.core.programs import minimal_fractional_T
from repro.lp import stats as lp_stats
from repro.lp.stats import SolverStats, collect_stats, record
from repro.obs import (
    JsonlSpanSink,
    Span,
    Tracer,
    adopt_spans,
    chrome_trace,
    current_span,
    span,
    suspended,
    tracing,
    tracing_enabled,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.trace import install, uninstall
from repro.obs.trace import reset as obs_reset
from repro.session.cache import SolveCache
from repro.workloads import random_hierarchical, rng_from_seed


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with no tracer and no open spans."""
    obs_reset()
    yield
    obs_reset()


class TestSpanBasics:
    def test_disabled_span_yields_none_and_collects_nothing(self):
        assert not tracing_enabled()
        with span("lp.solve", kernel="revised") as sp:
            assert sp is None
        assert current_span() is None

    def test_nesting_builds_parented_tree(self):
        with tracing() as tracer:
            with span("outer", depth=0) as outer:
                assert current_span() is outer
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                with span("inner2") as inner2:
                    assert inner2.parent_id == outer.span_id
            assert outer.parent_id is None
        names = [sp.name for sp in tracer.spans]
        # Children finish (and are collected) before their parent.
        assert names == ["inner", "inner2", "outer"]
        assert all(sp.end_ns >= sp.start_ns for sp in tracer.spans)
        assert tracer.spans[-1].attrs == {"depth": 0}

    def test_stats_attach_to_all_open_spans(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    record(SolverStats(solves=1, pivots=7))
                record(SolverStats(pivots=2))
        inner, outer = tracer.spans
        assert (inner.stats.solves, inner.stats.pivots) == (1, 7)
        # The parent aggregates its child's delta plus its own.
        assert (outer.stats.solves, outer.stats.pivots) == (1, 9)
        assert not lp_stats._scopes

    def test_span_exception_teardown_closes_and_collects(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        assert [sp.name for sp in tracer.spans] == ["doomed"]
        assert current_span() is None

    def test_suspended_drops_spans_and_counter_attachment(self):
        with collect_stats() as outer, tracing() as tracer:
            with span("kept") as kept:
                with suspended():
                    assert not tracing_enabled()
                    with span("invisible") as sp:
                        assert sp is None
                    record(SolverStats(pivots=100))
                assert tracing_enabled()
                assert current_span() is kept
                # Re-attached on exit: the open span counts again.
                record(SolverStats(pivots=1))
        assert [sp.name for sp in tracer.spans] == ["kept"]
        assert tracer.spans[0].stats.pivots == 1
        # The outer scope kept counting while the span was suspended.
        assert outer.pivots == 101
        assert not lp_stats._scopes

    def test_uninstall_clears_stack_and_sink(self):
        with tracing():
            with span("left-open"):
                pass
        assert current_span() is None
        assert not lp_stats._scopes

    @pytest.mark.parametrize("teardown", ["uninstall", "reset"])
    def test_teardown_with_open_spans_detaches_their_counters(self, teardown):
        tracer = Tracer()
        install(tracer)
        outer_cm, inner_cm = span("outer"), span("inner")
        outer, inner = outer_cm.__enter__(), inner_cm.__enter__()
        assert [id(s) for s in lp_stats._scopes] == [
            id(outer.stats), id(inner.stats),
        ]
        if teardown == "uninstall":
            uninstall(tracer)
        else:
            obs_reset()
        assert not lp_stats._scopes
        assert current_span() is None
        record(SolverStats(pivots=5))
        assert outer.stats.pivots == inner.stats.pivots == 0
        # Closing the orphaned spans late is harmless.
        inner_cm.__exit__(None, None, None)
        outer_cm.__exit__(None, None, None)
        assert not lp_stats._scopes


class TestRoundTrips:
    def test_solver_stats_json_round_trip_exact(self):
        stats = SolverStats(
            solves=3, pivots=41, phase1_pivots=11, refactorizations=2,
            warm_start_attempts=3, warm_start_hits=2, point_reuses=1,
            farkas_reuses=4, cache_hits=5, cache_misses=6,
        )
        payload = stats.to_json()
        assert all(type(v) is int for v in payload.values())
        # Mutating the payload leaves stats alone.
        payload["pivots"] = 99
        assert stats.pivots == 41
        rebuilt = SolverStats.from_json(stats.to_json())
        assert rebuilt == stats
        # JSON wire trip (what actually crosses the process boundary).
        assert SolverStats.from_json(json.loads(json.dumps(stats.to_json()))) == stats

    def test_solver_stats_from_json_tolerates_missing_and_unknown(self):
        rebuilt = SolverStats.from_json(
            {"solves": 2, "not_a_counter": 9, "crash_skips": 4}
        )
        assert rebuilt.solves == 2 and rebuilt.pivots == 0
        # A payload written before kernels and warm_key_drops were dropped
        # (and before crash_skips and sparse_btrans were) still loads.
        old = SolverStats.from_json(
            {"solves": 3, "pivots": 8, "kernels": {"revised": 3},
             "warm_key_drops": 0, "crash_skips": 1, "sparse_btrans": 2}
        )
        assert old == SolverStats(solves=3, pivots=8)

    def test_span_json_round_trip(self):
        sp = Span(
            name="lp.solve", span_id=7, parent_id=3,
            start_ns=1_000, end_ns=5_000,
            attrs={"kernel": "revised", "T": str(Fraction(7, 2))},
            stats=SolverStats(solves=1, pivots=4),
            pid=1234,
        )
        rebuilt = Span.from_json(json.loads(json.dumps(sp.to_json())))
        assert rebuilt == sp
        # Empty attrs/stats are omitted from the payload entirely.
        bare = Span(name="x", span_id=1, parent_id=None, start_ns=0, end_ns=1)
        payload = bare.to_json()
        assert "attrs" not in payload and "stats" not in payload
        assert Span.from_json(payload) == bare

    def test_adopt_remaps_ids_and_reparents_roots(self):
        foreign = [
            Span(name="root", span_id=1, parent_id=None, start_ns=0, end_ns=9),
            Span(name="child", span_id=2, parent_id=1, start_ns=1, end_ns=8),
            Span(name="orphan", span_id=9, parent_id=77, start_ns=2, end_ns=3),
        ]
        tracer = Tracer()
        anchor = Span(name="anchor", span_id=tracer._allocate_id(),
                      parent_id=None, start_ns=0, end_ns=10)
        adopted = tracer.adopt([s.to_json() for s in foreign], parent=anchor)
        root, child, orphan = adopted
        assert root.parent_id == anchor.span_id
        assert child.parent_id == root.span_id
        # An unknown foreign parent re-parents under the anchor too.
        assert orphan.parent_id == anchor.span_id
        assert len({s.span_id for s in adopted} | {anchor.span_id}) == 4

    def test_adopt_spans_helper_is_noop_when_disabled(self):
        assert adopt_spans([{"name": "x", "span_id": 1, "parent_id": None,
                             "start_ns": 0}]) == []


class TestSinkHardening:
    def test_nested_scopes_unwound_out_of_order_under_exceptions(self):
        """Regression: generator-held scopes torn down in the 'wrong' order
        (inner exit after outer exit) must each remove exactly themselves."""

        def scoped_counts():
            with collect_stats() as inner:
                yield inner

        outer_cm = collect_stats()
        outer = outer_cm.__enter__()
        gen = scoped_counts()
        inner = next(gen)
        record(SolverStats(pivots=3))
        # Outer exits first — inner is still registered at that moment.
        try:
            raise RuntimeError("unwind")
        except RuntimeError:
            outer_cm.__exit__(*__import__("sys").exc_info())
        gen.close()  # inner exits second
        assert outer.pivots == 3 and inner.pivots == 3
        assert not lp_stats._scopes  # nothing leaked
        # Recording after full teardown aggregates nowhere and is harmless.
        record(SolverStats(pivots=1))
        assert outer.pivots == 3


class TestByteIdentity:
    """Observability must never perturb results — the tentpole invariant."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_traced_equals_untraced_minimal_fractional_T(self, seed):
        inst = random_hierarchical(rng_from_seed(seed), n=8, m=3)
        with collect_stats() as cold:
            t_cold = minimal_fractional_T(inst)
        with tracing() as tracer:
            with collect_stats() as traced:
                t_traced = minimal_fractional_T(inst)
        assert t_traced == t_cold
        assert traced == cold  # identical counter totals
        # Every solve shows as a span.  Seed 23's T* is the trapped-set
        # bound, which one probe proves from a certified HiGHS point.
        assert any(sp.name == "lp.solve" for sp in tracer.spans) == (seed != 23)
        root = [sp for sp in tracer.spans
                if sp.name == "search.minimal_fractional_T"]
        assert len(root) == 1
        # The search root aggregates exactly the scope's solve counters.
        assert root[0].stats.solves == traced.solves
        assert root[0].stats.pivots == traced.pivots
        # Spans and scopes read one stream: every counter agrees.
        assert root[0].stats.to_json() == traced.to_json()

    def test_traced_sweep_payloads_byte_identical(self, tmp_path, capsys):
        # e07 solves LPs (e01 and e02 solve none), so the traced run has
        # solver counters and solve spans to carry.
        params = [
            "sweep", "e07", "e02", "--jobs", "2",
        ]
        plain_store = str(tmp_path / "plain")
        traced_store = str(tmp_path / "traced")
        trace_file = str(tmp_path / "sweep.trace.json")
        assert cli_main(params + ["--store", plain_store]) == 0
        assert cli_main(
            params + ["--store", traced_store, "--trace", trace_file]
        ) == 0
        for bucket in ("e07", "e02"):
            plain = open(
                os.path.join(plain_store, "payloads", f"{bucket}.jsonl"), "rb"
            ).read()
            traced = open(
                os.path.join(traced_store, "payloads", f"{bucket}.jsonl"), "rb"
            ).read()
            assert plain == traced and plain
        # The traced run's store carries per-task counters in the index…
        with SolveCache(traced_store) as cache:
            totals = cache.stats_totals()
        assert totals["e07"].solves > 0 and totals["e07"].pivots > 0
        # …and the emitted Chrome trace is valid and contains the merged
        # worker span trees.
        payload = json.loads(open(trace_file).read())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"repro.sweep", "sweep.task", "lp.solve"} <= names
        capsys.readouterr()

    def test_report_profile_renders_fleet_totals(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(["sweep", "e07", "--jobs", "2", "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["report", store, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-experiment solver counters" in out
        assert "fleet-wide solver profile" in out
        assert "solves            0" not in out

    def test_store_stats_command(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert cli_main(["sweep", "e01", "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["store", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "bucket" in out and "e01" in out
        assert "fleet-wide solver profile" in out
        assert cli_main(["store", "stats", str(tmp_path / "absent")]) == 2
        capsys.readouterr()


class TestExport:
    def _sample_spans(self):
        with tracing() as tracer:
            with span("session.solve", backend="hybrid"):
                with span("lp.solve", kernel="revised"):
                    record(SolverStats(solves=1, pivots=3))
        return tracer.spans

    def test_chrome_trace_structure(self):
        spans = self._sample_spans()
        payload = chrome_trace(spans, label="unit")
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"] == {"label": "unit"}
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(metas) == 1 and metas[0]["args"]["name"].startswith("repro pid")
        assert len(xs) == 2
        by_name = {e["name"]: e for e in xs}
        lp = by_name["lp.solve"]
        assert lp["args"]["kernel"] == "revised"
        assert lp["args"]["pivots"] == 3
        assert lp["args"]["solves"] == 1
        # Zero counters stay out of the event args.
        assert "cache_hits" not in lp["args"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        # The child lies within the parent on the same track.
        parent = by_name["session.solve"]
        assert parent["ts"] <= lp["ts"]
        assert lp["ts"] + lp["dur"] <= parent["ts"] + parent["dur"] + 1e-6

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad_events = {
            "traceEvents": [
                {"name": "", "ph": "X", "pid": 1, "tid": 1, "ts": -1, "dur": 2},
                {"name": "ok", "ph": "Z", "pid": "x", "tid": 1},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(bad_events)
        assert len(problems) >= 4

    def test_write_chrome_trace_and_jsonl(self, tmp_path):
        spans = self._sample_spans()
        chrome_path = str(tmp_path / "trace.json")
        write_chrome_trace(chrome_path, spans)
        assert validate_chrome_trace(json.load(open(chrome_path))) == []
        jsonl_path = str(tmp_path / "spans.jsonl")
        write_spans_jsonl(jsonl_path, spans)
        lines = open(jsonl_path).read().splitlines()
        assert [Span.from_json(json.loads(l)) for l in lines] == spans

    def test_jsonl_sink_streams_per_span(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        with JsonlSpanSink(path) as sink:
            with tracing(Tracer(sink=sink)):
                with span("a"):
                    pass
                # The first span is on disk before the run ends.
                assert len(open(path).read().splitlines()) == 1
                with span("b"):
                    pass
        rebuilt = [
            Span.from_json(json.loads(l))
            for l in open(path).read().splitlines()
        ]
        assert [sp.name for sp in rebuilt] == ["a", "b"]


class TestStoreStatsColumn:
    def test_pre_stats_store_migrates_in_place(self, tmp_path):
        root = str(tmp_path / "old-store")
        os.makedirs(os.path.join(root, "payloads"))
        db = sqlite3.connect(os.path.join(root, "index.sqlite"))
        db.executescript(
            """
            CREATE TABLE tasks (
                key TEXT PRIMARY KEY, experiment TEXT NOT NULL,
                params_json TEXT NOT NULL, seed INTEGER,
                fingerprint TEXT NOT NULL, status TEXT NOT NULL,
                elapsed_s REAL,
                created_at TEXT NOT NULL DEFAULT (datetime('now')),
                payload_path TEXT
            );
            """
        )
        db.execute(
            "INSERT INTO tasks (key, experiment, params_json, fingerprint,"
            " status, elapsed_s) VALUES ('k1', 'e01', '{}', 'fp', 'done', 0.5)"
        )
        db.commit()
        db.close()
        with SolveCache(root) as cache:
            columns = {
                row[1] for row in cache._db.execute("PRAGMA table_info(tasks)")
            }
            assert {"payload_offset", "stats_json"} <= columns
            # Old rows carry no counters and aggregate to nothing.
            assert cache.stats_totals() == {}
            summary = cache.bucket_summary()
            assert summary["e01"]["entries"] == 1
            assert summary["e01"]["with_stats"] == 0
            # New entries record counters alongside.
            cache.put(
                "k2", "e01", {"key": "k2", "x": 1}, fingerprint="fp",
                stats=SolverStats(solves=2, pivots=9).to_json(),
            )
            totals = cache.stats_totals()
            assert totals["e01"].solves == 2 and totals["e01"].pivots == 9
            assert cache.bucket_summary()["e01"]["with_stats"] == 1

    def test_stats_never_reach_payload_bytes(self, tmp_path):
        a = SolveCache(str(tmp_path / "a"))
        b = SolveCache(str(tmp_path / "b"))
        rec = {"key": "k", "result": {"T": "3/2"}}
        a.put("k", "bucket", rec, fingerprint="fp")
        b.put("k", "bucket", rec, fingerprint="fp",
              stats=SolverStats(solves=5).to_json())
        pa = open(os.path.join(a.root, "payloads", "bucket.jsonl"), "rb").read()
        pb = open(os.path.join(b.root, "payloads", "bucket.jsonl"), "rb").read()
        assert pa == pb
        a.close()
        b.close()


class TestInstrumentationShape:
    def test_e01_style_session_run_emits_expected_span_kinds(self, tmp_path):
        from repro.session import Session

        # Example II.1's T* is flow-proven with no LP; this draw probes,
        # solves and refines the bracket below its anchor.
        inst = random_hierarchical(rng_from_seed(35), n=8, m=3)
        with tracing() as tracer:
            with Session(cache=str(tmp_path / "cache")) as session:
                session.minimal_fractional_T(inst)
                session.minimal_fractional_T(inst)  # warm: cache hit
        names = [sp.name for sp in tracer.spans]
        assert names.count("session.minimal_fractional_T") == 2
        assert "search.minimal_fractional_T" in names
        assert "search.probe" in names and "lp.solve" in names
        sessions = [sp for sp in tracer.spans
                    if sp.name == "session.minimal_fractional_T"]
        assert [sp.attrs["cache"] for sp in sessions] == ["miss", "hit"]
        hit = sessions[1]
        assert hit.stats.cache_hits == 1 and hit.stats.solves == 0

    def test_lp_solve_span_records_basis(self):
        from repro import two_approximation

        # The min-T LP's T column sits in every load row and its
        # assignment rows are all +1, so it runs on GUBBasis; every column
        # of the LST LP has at most two non-zeros, so it runs on the
        # pseudo-forest basis.
        inst = random_hierarchical(rng_from_seed(0), n=8, m=3)
        with tracing() as tracer:
            two_approximation(inst, backend="exact")
        by_id = {sp.span_id: sp for sp in tracer.spans}
        solves = [
            (by_id[sp.parent_id].name if sp.parent_id in by_id else None,
             sp.attrs["basis"])
            for sp in tracer.spans if sp.name == "lp.solve"
        ]
        assert solves == [("search.min_T", "gub"), (None, "forest")]

    def test_admission_spans(self):
        from repro.schedule.arrivals import PeriodicArrivals
        from repro.schedule.schedule import Schedule
        from repro.simulation.admission import admit_batch

        template = Schedule(range(2), Fraction(4))
        template.add_segment(0, 0, Fraction(0), Fraction(2))
        template.add_segment(1, 1, Fraction(1), Fraction(3))
        model = PeriodicArrivals(n_jobs=2, period=Fraction(4))
        streams = [
            model.arrivals_until(Fraction(8)),
            model.arrivals_until(Fraction(12)),
        ]
        with tracing() as tracer:
            admit_batch(template, streams, windows=3)
        names = [sp.name for sp in tracer.spans]
        assert names.count("sim.admit") == 2
        assert names.count("sim.admit_batch") == 1
        admits = [sp for sp in tracer.spans if sp.name == "sim.admit"]
        assert all(sp.attrs["admitted"] > 0 for sp in admits)
        batch = next(sp for sp in tracer.spans if sp.name == "sim.admit_batch")
        assert all(sp.parent_id == batch.span_id for sp in admits)

    @pytest.mark.parametrize("u", [0.5, 1.2])
    def test_prefilter_span_records_verdict_reason(self, u):
        from repro.rta import analytic_schedulable
        from repro.simulation.admission import witness_within
        from repro.workloads.families import make_topology
        from repro.workloads.generators import utilization_workload

        family = make_topology("flat4").family
        inst = utilization_workload(rng_from_seed(5), family, u, 20)
        with tracing() as tracer:
            witness_within(inst, 20, node_limit=20_000)
        (sp,) = [sp for sp in tracer.spans if sp.name == "sim.prefilter"]
        verdict = analytic_schedulable(inst, "hierarchical", 20)
        assert sp.attrs["verdict"] == verdict.status
        assert sp.attrs["reason"] == verdict.reason
        assert verdict.reason
        analyzed = next(s for s in tracer.spans if s.name == "rta.analyze")
        assert analyzed.attrs["reason"] == sp.attrs["reason"]

    def test_e14_timed_region_stays_trace_off(self):
        from repro.experiments.e14_scaling import run as e14_run

        with tracing() as tracer:
            e14_run(shapes=((4, 2),), backends=("exact",))
        # The session/search/lp spans of the timed solves are suppressed;
        # only spans opened outside suspended() may appear.
        assert not any(
            sp.name.startswith(("lp.", "search.", "session."))
            for sp in tracer.spans
        )

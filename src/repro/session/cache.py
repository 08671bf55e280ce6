"""Content-addressed solve cache: SQLite index + JSONL payloads.

The one store API: the sweep runner (:mod:`repro.runner`), the
:class:`~repro.session.Session` and the CLI all read and write it
directly.  Layout under the root::

    <root>/
      index.sqlite          # entry index: key -> status + run metadata
      payloads/
        <bucket>.jsonl      # one deterministic JSON record per entry

Every entry is addressed by a **content key** — in practice the sha256 of
``(what was solved, canonical params, code fingerprint)`` — and lives in a
named *bucket* (one JSONL file).  Sweep tasks use their experiment id as the
bucket; :class:`repro.session.Session` uses session buckets (named with
:data:`~repro.session.request.SESSION_BUCKET_PREFIX`), which the sweep
reporter deliberately ignores (`repro report` only assembles experiment
buckets, see :func:`repro.runner.sweep.experiment_buckets`), so one store
directory can serve both.

The index/payload split is deliberate and unchanged from the sweep store:

* the JSONL payload holds only *reproducible* content — two runs with the
  same code and params produce byte-identical payload files;
* the SQLite index holds the *measured* side (wall-clock, timestamps) plus
  the fast key lookup that makes a hit O(1).

On-disk compatibility: the schema is the sweep store's ``tasks`` table.
Opening a store written before the index gained its ``payload_offset``
column transparently migrates it by adding that (index-only) column —
payload files are never rewritten, so old stores stay readable and their
bytes stay authoritative.
Entries recorded without an offset fall back to a bucket scan on
:meth:`SolveCache.get`.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, Iterator, List, Optional

from .canon import canonical_bytes, canonical_json

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    key         TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    params_json TEXT NOT NULL,
    seed        INTEGER,
    fingerprint TEXT NOT NULL,
    status      TEXT NOT NULL,
    elapsed_s   REAL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now')),
    payload_path TEXT,
    payload_offset INTEGER,
    stats_json  TEXT
);
CREATE INDEX IF NOT EXISTS tasks_by_experiment ON tasks (experiment);
CREATE TABLE IF NOT EXISTS failures (
    key         TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    params_json TEXT NOT NULL,
    error_class TEXT NOT NULL,
    message     TEXT NOT NULL,
    traceback   TEXT,
    attempts    INTEGER NOT NULL,
    fingerprint TEXT NOT NULL DEFAULT '',
    elapsed_s   REAL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now'))
);
CREATE INDEX IF NOT EXISTS failures_by_experiment ON failures (experiment);
"""

_FAILURE_COLUMNS = (
    "key", "experiment", "params_json", "error_class", "message",
    "traceback", "attempts", "fingerprint", "elapsed_s", "created_at",
)

_META_COLUMNS = (
    "key", "experiment", "params_json", "seed", "fingerprint",
    "status", "elapsed_s", "created_at", "payload_path",
)


class SolveCache:
    """The on-disk content-addressed store; one writer at a time."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.payload_dir = os.path.join(self.root, "payloads")
        os.makedirs(self.payload_dir, exist_ok=True)
        self.index_path = os.path.join(self.root, "index.sqlite")
        self._db = sqlite3.connect(self.index_path)
        self._db.executescript(_SCHEMA)
        self._migrate()
        self._db.commit()
        # Payload files this cache object has already appended to cleanly:
        # a torn tail is only possible before our first append, so the
        # newline check runs once per (cache, file).
        self._clean_payloads: set = set()

    def _migrate(self) -> None:
        """Bring an older store's index up to the current schema.

        Schema deltas are index-only columns (``payload_offset`` from the
        store/cache split, ``stats_json`` from the observability layer) or
        whole index-only tables (``failures``, created by the
        ``IF NOT EXISTS`` schema script on open); migrating never touches
        payload bytes.
        """
        columns = {
            row[1] for row in self._db.execute("PRAGMA table_info(tasks)")
        }
        if "payload_offset" not in columns:
            self._db.execute(
                "ALTER TABLE tasks ADD COLUMN payload_offset INTEGER"
            )
        if "stats_json" not in columns:
            self._db.execute("ALTER TABLE tasks ADD COLUMN stats_json TEXT")

    # -- lookup ----------------------------------------------------------

    def has(self, key: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM tasks WHERE key = ? AND status = 'done'", (key,)
        ).fetchone()
        return row is not None

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._db.execute(
            f"SELECT {', '.join(_META_COLUMNS)} FROM tasks WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return dict(zip(_META_COLUMNS, row))

    def buckets(self) -> List[str]:
        rows = self._db.execute(
            "SELECT DISTINCT experiment FROM tasks WHERE status = 'done'"
            " ORDER BY experiment"
        ).fetchall()
        return [r[0] for r in rows]

    def latest_fingerprint(self, bucket: str) -> Optional[str]:
        """Fingerprint of the most recently completed entry of *bucket*."""
        row = self._db.execute(
            "SELECT fingerprint FROM tasks WHERE experiment = ? AND"
            " status = 'done' ORDER BY created_at DESC, rowid DESC LIMIT 1",
            (bucket,),
        ).fetchone()
        return row[0] if row else None

    def done_keys(self, bucket: str) -> Dict[str, str]:
        """Completed keys of *bucket* mapped to their fingerprint."""
        rows = self._db.execute(
            "SELECT key, fingerprint FROM tasks WHERE experiment = ? AND"
            " status = 'done'",
            (bucket,),
        ).fetchall()
        return dict(rows)

    # -- measured-side aggregation (``--profile`` / ``store stats``) ------

    def stats_totals(self, bucket: Optional[str] = None) -> Dict[str, Any]:
        """Aggregated solver counters per bucket, from the index.

        Sums the ``stats_json`` column (``SolverStats.to_json()`` shape)
        over every completed entry that recorded one — entries written
        before the observability layer, or by code paths that do not
        collect stats, simply contribute nothing.  Returns ``bucket →
        SolverStats``.
        """
        from ..lp.stats import SolverStats

        if bucket is None:
            rows = self._db.execute(
                "SELECT experiment, stats_json FROM tasks"
                " WHERE status = 'done' AND stats_json IS NOT NULL"
            )
        else:
            rows = self._db.execute(
                "SELECT experiment, stats_json FROM tasks"
                " WHERE status = 'done' AND stats_json IS NOT NULL"
                " AND experiment = ?",
                (bucket,),
            )
        totals: Dict[str, Any] = {}
        for name, stats_json in rows:
            try:
                payload = json.loads(stats_json)
            except (TypeError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            totals.setdefault(name, SolverStats()).add(
                SolverStats.from_json(payload)
            )
        return totals

    def bucket_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-bucket bookkeeping: entry count, elapsed total, disk usage.

        ``entries``/``elapsed_s``/``with_stats`` come from the index;
        ``payload_bytes`` is the current on-disk size of the bucket's JSONL
        file (0 when missing).
        """
        rows = self._db.execute(
            "SELECT experiment, COUNT(*), COALESCE(SUM(elapsed_s), 0),"
            " COUNT(stats_json) FROM tasks WHERE status = 'done'"
            " GROUP BY experiment ORDER BY experiment"
        ).fetchall()
        summary: Dict[str, Dict[str, Any]] = {}
        for name, entries, elapsed, with_stats in rows:
            path = os.path.join(self.payload_dir, f"{name}.jsonl")
            try:
                payload_bytes = os.path.getsize(path)
            except OSError:
                payload_bytes = 0
            summary[name] = {
                "entries": entries,
                "elapsed_s": float(elapsed),
                "with_stats": with_stats,
                "payload_bytes": payload_bytes,
            }
        return summary

    # -- write -----------------------------------------------------------

    @staticmethod
    def _ends_mid_line(path: str) -> bool:
        """Whether *path* exists, is non-empty, and lacks a final newline.

        That is the signature of a writer killed mid-append: the torn last
        line must be sealed off before new records are appended, or the
        next record would concatenate onto the fragment and *two* results
        would become unreadable instead of zero.
        """
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        if size == 0:
            return False
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"

    def put(
        self,
        key: str,
        bucket: str,
        record: Dict[str, Any],
        params: Any = None,
        seed: Optional[int] = None,
        fingerprint: str = "",
        elapsed_s: float = 0.0,
        stats: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist one entry: canonical JSONL payload line + index row.

        *record* is written in canonical form (sorted keys, exact Fraction
        tags), so re-running the same computation appends byte-identical
        lines.  The measured side — *elapsed_s* and the optional *stats*
        counter dict (``SolverStats.to_json()`` shape) — goes into the
        index only, never into the payload, so recording it cannot perturb
        byte-identity.

        Failures never enter the payload store: a record that carries an
        ``"error"`` field (or a non-``done`` status) is rejected outright —
        failed work belongs in the :meth:`record_failure` ledger, where it
        can be retried, never in the content-addressed cache, where it
        would be served forever.  Conversely a successful ``put`` clears
        any ledger entry for the key: success supersedes failure.
        """
        if "/" in bucket or "\\" in bucket or bucket in ("", ".", ".."):
            raise ValueError(f"bucket name {bucket!r} is not filename-safe")
        if "error" in record or record.get("status") not in (None, "done"):
            raise ValueError(
                "refusing to cache a failed payload (record carries an "
                "'error' field or a non-done status); record failures via "
                "record_failure() instead"
            )
        payload_rel = os.path.join("payloads", f"{bucket}.jsonl")
        payload_path = os.path.join(self.root, payload_rel)
        line = canonical_bytes(record)
        repair_newline = (
            payload_path not in self._clean_payloads
            and self._ends_mid_line(payload_path)
        )
        with open(payload_path, "ab") as fh:
            if repair_newline:
                fh.write(b"\n")
            # O_APPEND writes always land at EOF, but the *reported* initial
            # position is platform-dependent — resolve it explicitly.
            fh.seek(0, os.SEEK_END)
            offset = fh.tell()
            fh.write(line + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._clean_payloads.add(payload_path)
        self._db.execute(
            "INSERT OR REPLACE INTO tasks"
            " (key, experiment, params_json, seed, fingerprint, status,"
            "  elapsed_s, payload_path, payload_offset, stats_json)"
            " VALUES (?, ?, ?, ?, ?, 'done', ?, ?, ?, ?)",
            (
                key,
                bucket,
                canonical_json(params if params is not None else {}),
                seed,
                fingerprint,
                float(elapsed_s),
                payload_rel,
                offset,
                canonical_json(stats) if stats is not None else None,
            ),
        )
        self._db.execute("DELETE FROM failures WHERE key = ?", (key,))
        self._db.commit()

    # -- failure ledger ---------------------------------------------------

    def record_failure(
        self,
        key: str,
        bucket: str,
        error_class: str,
        message: str,
        attempts: int,
        traceback_text: Optional[str] = None,
        params: Any = None,
        fingerprint: str = "",
        elapsed_s: float = 0.0,
    ) -> None:
        """Persist one failed entry in the ``failures`` ledger (index only).

        Called after **every** failed attempt with the cumulative attempt
        count, so the ledger survives a driver crash mid-retry exactly like
        successes survive in ``tasks``: a resumed sweep reads the count
        back and grants only the attempts that remain.  A later successful
        :meth:`put` of the same key deletes the row — the ledger holds
        *open* failures only.
        """
        self._db.execute(
            "INSERT OR REPLACE INTO failures"
            " (key, experiment, params_json, error_class, message,"
            "  traceback, attempts, fingerprint, elapsed_s)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                bucket,
                canonical_json(params if params is not None else {}),
                error_class,
                message,
                traceback_text,
                int(attempts),
                fingerprint,
                float(elapsed_s),
            ),
        )
        self._db.commit()

    def failure(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._db.execute(
            f"SELECT {', '.join(_FAILURE_COLUMNS)} FROM failures"
            " WHERE key = ?",
            (key,),
        ).fetchone()
        return dict(zip(_FAILURE_COLUMNS, row)) if row is not None else None

    def failure_attempts(self, key: str) -> int:
        """Recorded attempt count for *key* (0 when the ledger has no row)."""
        row = self._db.execute(
            "SELECT attempts FROM failures WHERE key = ?", (key,)
        ).fetchone()
        return int(row[0]) if row else 0

    def clear_failure(self, key: str) -> None:
        self._db.execute("DELETE FROM failures WHERE key = ?", (key,))
        self._db.commit()

    def failures(self, bucket: Optional[str] = None) -> List[Dict[str, Any]]:
        """Open failure-ledger rows, oldest first (optionally one bucket)."""
        sql = f"SELECT {', '.join(_FAILURE_COLUMNS)} FROM failures"
        args: tuple = ()
        if bucket is not None:
            sql += " WHERE experiment = ?"
            args = (bucket,)
        sql += " ORDER BY created_at, rowid"
        return [
            dict(zip(_FAILURE_COLUMNS, row))
            for row in self._db.execute(sql, args).fetchall()
        ]

    def failure_count(self, bucket: Optional[str] = None) -> int:
        if bucket is None:
            row = self._db.execute("SELECT COUNT(*) FROM failures").fetchone()
        else:
            row = self._db.execute(
                "SELECT COUNT(*) FROM failures WHERE experiment = ?", (bucket,)
            ).fetchone()
        return int(row[0])

    # -- read back -------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload record stored under *key*, or ``None`` on a miss.

        Fast path: seek to the offset the index recorded.  Entries written
        by a pre-split store carry no offset and fall back to scanning
        their bucket file — correctness never depends on the offset.
        """
        row = self._db.execute(
            "SELECT experiment, payload_path, payload_offset FROM tasks"
            " WHERE key = ? AND status = 'done'",
            (key,),
        ).fetchone()
        if row is None:
            return None
        bucket, payload_rel, offset = row
        path = (
            os.path.join(self.root, payload_rel)
            if payload_rel
            else os.path.join(self.payload_dir, f"{bucket}.jsonl")
        )
        if offset is not None:
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    record = json.loads(fh.readline().decode("utf-8"))
                if isinstance(record, dict) and record.get("key") == key:
                    return record
            except (OSError, ValueError):
                pass  # stale offset: fall through to the scan
        for record in self._scan(path):
            if record.get("key") == key:
                return record
        return None

    @staticmethod
    def _scan(path: str) -> Iterator[Dict[str, Any]]:
        """Parseable dict records of one bucket file, torn lines skipped."""
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write of an uncommitted entry
                if isinstance(record, dict):
                    yield record

    def records(
        self,
        bucket: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield stored payload records, restricted to keys in the index.

        A JSONL line whose key is absent from the index (e.g. a crashed run
        that appended the payload but died before committing the index row)
        is skipped — the index is the source of truth for completion.  A
        line that does not even parse (the crash tore the write mid-line)
        is skipped for the same reason: its entry was never committed, so
        resuming re-executes it and appends a clean copy.

        *fingerprint* selects one code generation; the default is each
        bucket's **latest** completed generation, so results produced
        before a code edit never mix into the same report as results
        produced after it.  Pass ``fingerprint="*"`` to see everything.
        """
        buckets = [bucket] if bucket else self.buckets()
        for name in buckets:
            path = os.path.join(self.payload_dir, f"{name}.jsonl")
            done = self.done_keys(name)
            wanted = (
                self.latest_fingerprint(name) if fingerprint is None else fingerprint
            )
            seen: set = set()
            for record in self._scan(path):
                key = record.get("key", "")
                if key in seen or key not in done:
                    continue
                if wanted != "*" and done[key] != wanted:
                    continue
                seen.add(key)
                yield record

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SolveCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

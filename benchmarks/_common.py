"""Shared helpers for the benchmark harness.

Every bench prints the experiment table it reproduces and also writes it to
``benchmarks/results/<name>.txt`` so the tables survive pytest's output
capture (EXPERIMENTS.md is assembled from those files).  The script-mode
benches write their ``BENCH_*.json`` artifacts through
:func:`write_bench_json`, summarize repeats with :func:`summary` and scale
wall-clock to the machine with :func:`calibration_sample` (re-exported from
``perfbench/workload.py``).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

# The repository benchmark's machine-speed sample: one loop for every
# wall-clock figure the repository scales to the machine.
from perfbench.workload import calibration_sample  # noqa: E402,F401


def _write_atomic(path: str, text: str) -> None:
    """Write *text* to *path* atomically (temp file in the same directory +
    ``os.replace``): concurrent bench/sweep runs may race on the same file,
    and a reader — or a crashed writer — must never observe a truncated
    one."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def emit(name: str, table) -> None:
    """Print a table and persist it under benchmarks/results/ (atomically)."""
    rendered = table.render()
    print()
    print(rendered)
    _write_atomic(os.path.join(RESULTS_DIR, f"{name}.txt"), rendered + "\n")


def write_bench_json(out: str, default_out: str, payload) -> None:
    """Write a ``BENCH_*.json`` *payload* to *out* atomically.

    A run that writes the default artifact (*default_out*) also refreshes
    its mirror under ``benchmarks/results/``.  A run with ``--out``
    elsewhere (the CI smoke runs) leaves that mirror of the last full run
    alone.
    """
    text = json.dumps(payload, indent=2)
    _write_atomic(out, text)
    if os.path.abspath(out) == os.path.abspath(default_out):
        _write_atomic(
            os.path.join(RESULTS_DIR, os.path.basename(default_out)), text
        )


def summary(values):
    """Median, min and interquartile range of one measurement's repeats."""
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {
        "median": round(statistics.median(vals), 4),
        "min": round(vals[0], 4),
        "iqr": round(q3 - q1, 4),
    }


def run_once(benchmark, fn):
    """Time *fn* exactly once (experiment sweeps are too slow for rounds)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

"""LP backend benchmark: ``hybrid`` vs ``exact``.

Runs the full Theorem V.2 pipeline (the E14 scaling family: search for
``T*`` + LST rounding + scheduling) under each backend on identical
instances, verifies that every configuration agrees on ``T*`` to *exact*
equality, and records wall-clock times plus solver counters (pivots,
refactorizations) from :func:`repro.lp.stats.collect_stats`.

Every (shape, backend) configuration gets :data:`WARMUP` untimed runs and
:data:`REPEATS` timed ones (three with ``--quick``), reported as median,
min and interquartile range; the configurations run in an order shuffled
by :data:`ORDER_SEED`.  Before each timed run the script takes
:data:`CALIBRATION_PER_REPEAT` samples of
:func:`_common.calibration_sample`, and each row records the median of its
samples as ``calibration_s``.  ``check_perf_regression.py`` gates each
row's ``seconds`` scaled by that sample to the nominal machine
(:func:`_common.calibrated`).

Results are written to ``BENCH_lp_backends.json`` at the repository root
(the perf-trajectory artifact CI uploads) and mirrored under
``benchmarks/results/``; a run with ``--out`` elsewhere writes only that
file.  Each row names the solver that did the work in its ``kernel`` field
(``revised`` for both backends).

Usage::

    PYTHONPATH=src python benchmarks/bench_lp_backends.py          # full run
    PYTHONPATH=src python benchmarks/bench_lp_backends.py --quick  # smoke
    PYTHONPATH=src python benchmarks/bench_lp_backends.py \\
        --shapes 16x6,24x8,32x10 --out /tmp/fresh.json             # CI gate

The full run asserts the hybrid-over-exact speedup target (aggregate).
Runs with ``--quick`` or ``--shapes`` only check exact ``T*`` agreement.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_lp_backends.json")

from _common import calibration_sample, summary, write_bench_json  # noqa: E402
from repro.core.approx import two_approximation  # noqa: E402
from repro.lp.stats import collect_stats  # noqa: E402
from repro.workloads import random_hierarchical, rng_from_seed  # noqa: E402

#: The E14 scaling family, extended upward to where backend choice matters.
FULL_SHAPES: Tuple[Tuple[int, int], ...] = ((16, 6), (24, 8), (32, 10), (48, 12), (64, 16))
QUICK_SHAPES: Tuple[Tuple[int, int], ...] = ((10, 4), (16, 6))
BACKENDS: Tuple[str, ...] = ("exact", "hybrid")

#: Untimed runs before, and timed runs of, every configuration.
WARMUP = 1
REPEATS = 7
#: Calibration samples taken before each timed run.
CALIBRATION_PER_REPEAT = 3
#: Seeds the shuffled configuration order.
ORDER_SEED = 0

#: Aggregate hybrid-over-exact speedup the full run must demonstrate.
#: Re-based (3.0 → 1.3) when the revised kernel landed: the exact core got
#: ~4× faster, so hybrid's *relative* advantage shrank even though its
#: absolute time halved — the gate keeps hybrid strictly ahead of exact.
SPEEDUP_TARGET = 1.3
#: The solver each backend's rows are labelled with.
_KERNEL_OF = {"exact": "revised", "hybrid": "revised"}


def _timed(inst, backend):
    with collect_stats() as stats:
        start = time.perf_counter()
        result = two_approximation(inst, backend=backend)
        elapsed = time.perf_counter() - start
    return elapsed, result, stats


def _measure(inst, backend, repeats):
    """Warm up, then time *repeats* runs, each after its calibration samples.

    Returns ``(seconds, calibration, result, stats)``: the timed runs, the
    calibration samples, and the last run's result and counters (both
    deterministic, so any run's would do).
    """
    for _ in range(WARMUP):
        _timed(inst, backend)
    seconds: List[float] = []
    calibration: List[float] = []
    for _ in range(repeats):
        calibration.extend(
            calibration_sample() for _ in range(CALIBRATION_PER_REPEAT)
        )
        elapsed, result, stats = _timed(inst, backend)
        seconds.append(elapsed)
    return seconds, calibration, result, stats


def run(
    shapes: Tuple[Tuple[int, int], ...] = FULL_SHAPES,
    backends: Tuple[str, ...] = BACKENDS,
    seed: int = 140,
    repeats: int = REPEATS,
) -> Dict:
    # Same instance for every backend (fresh rng per shape).
    instances = {
        (n, m): random_hierarchical(rng_from_seed(seed), n=n, m=m)
        for n, m in shapes
    }
    # A seeded random order, so a drift in machine speed over the run does
    # not always land on the same configuration.
    order = [(shape, backend) for shape in shapes for backend in backends]
    random.Random(ORDER_SEED).shuffle(order)
    measured = {}
    for shape, backend in order:
        measured[shape, backend] = _measure(instances[shape], backend, repeats)

    rows: List[Dict] = []
    totals: Dict[str, float] = {b: 0.0 for b in backends}
    for n, m in shapes:
        for backend in backends:
            seconds, calibration, result, stats = measured[(n, m), backend]
            timing = summary(seconds)
            totals[backend] += timing["median"]
            row = {
                "n": n,
                "m": m,
                "backend": backend,
                "kernel": _KERNEL_OF[backend],
                "seconds": timing["median"],
                "seconds_min": timing["min"],
                "seconds_iqr": timing["iqr"],
                "calibration_s": round(statistics.median(calibration), 6),
                "T_star": str(result.T_lp),
                "makespan": str(result.makespan),
                "ratio_vs_lp": float(result.ratio_vs_lp),
            }
            # Full counter record, not hand-picked fields: the exact
            # to_json round-trip keeps bench rows and the sweep hand-back
            # on one schema (the perf gate reads both).
            row.update(stats.to_json())
            rows.append(row)
            print(
                f"n={n:3d} m={m:3d} backend={backend:7s} "
                f"median {timing['median']:8.4f}s  min {timing['min']:8.4f}s  "
                f"iqr {timing['iqr']:7.4f}s  "
                f"calibration {row['calibration_s'] * 1e3:6.3f}ms  "
                f"T*={result.T_lp}  pivots={stats.pivots}"
            )
        # Certification claim: every backend lands on the same exact T*.
        all_t = {row["T_star"] for row in rows if row["n"] == n and row["m"] == m}
        assert len(all_t) == 1, (
            f"backends disagree on T* at (n={n}, m={m}): {all_t}"
        )

    speedup: Optional[float] = None
    if "exact" in totals and "hybrid" in totals and totals["hybrid"] > 0:
        speedup = totals["exact"] / totals["hybrid"]
    return {
        "family": "e14_scaling",
        "seed": seed,
        "shapes": [list(s) for s in shapes],
        "config": {
            "order_seed": ORDER_SEED,
            "warmup": WARMUP,
            "repeats": repeats,
            "calibration_per_repeat": CALIBRATION_PER_REPEAT,
            "order": [f"{backend}:{n}x{m}" for (n, m), backend in order],
            "stats": "seconds is the median over the repeats; calibration_s "
            "the median of the samples taken before them",
        },
        "rows": rows,
        "totals_seconds": {b: round(t, 4) for b, t in totals.items()},
        "speedup_hybrid_over_exact": round(speedup, 3) if speedup else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small shapes, three repeats, no speedup assertion (smoke)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="output JSON path (default: repo root)",
    )
    parser.add_argument(
        "--shapes", default=None, metavar="NxM,NxM,…",
        help="explicit shape list, e.g. 16x6,24x8 (overrides --quick/full "
        "shapes; used by the CI perf gate to match the committed baseline). "
        "Disables the speedup assertion like --quick does.",
    )
    args = parser.parse_args(argv)

    if args.shapes:
        shapes = tuple(
            tuple(int(v) for v in part.split("x")) for part in args.shapes.split(",")
        )
    else:
        shapes = QUICK_SHAPES if args.quick else FULL_SHAPES
    repeats = 3 if args.quick else REPEATS
    payload = run(shapes=shapes, repeats=repeats)
    payload["mode"] = "quick" if args.quick or args.shapes else "full"

    write_bench_json(args.out, DEFAULT_OUT, payload)

    speedup = payload["speedup_hybrid_over_exact"]
    print(f"\ntotals (sum of medians): {payload['totals_seconds']}")
    print(f"hybrid over exact: {speedup}x  (target ≥{SPEEDUP_TARGET}x, full mode)")
    if not args.quick and not args.shapes:
        if speedup is not None and speedup < SPEEDUP_TARGET:
            print("FAIL: hybrid speedup target not met")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

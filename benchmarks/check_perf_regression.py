"""Perf-regression gate: fresh ``BENCH_lp_backends.json`` vs a baseline one.

CI regenerates the benchmark (``bench_lp_backends.py --shapes
16x6,24x8,32x10``) and calls this script with the committed artifact, and
then with the previous CI run's artifact, as baseline.  For every backend
and every (n, m) shape present in **both** files it computes the backend's
slowdown, and it fails when a backend's *median* slowdown over the shapes
exceeds the threshold (default 1.5×).

By default a row's time is **calibrated**: its median ``seconds`` divided
by its ``calibration_s``, the median of the calibration samples
(``perfbench/workload.py::calibration_sample``, a fixed loop that touches
nothing of the program) taken just before each of its repeats.  Machine
speed and its drift cancel, so a baseline from another machine compares,
and each backend is gated on its own time — a speedup of one backend never
reads as a slowdown of the other.  ``--absolute`` compares raw median
seconds instead (only meaningful when both files come from the same
machine).

The time is divided by the sample itself, not by its square root as
``perfbench`` scales its 25-second op rate: here each sample sits next to
the run it scales, and the two move together.  Over nine runs on a 2-core
x86-64 box whose speed swung by 1.6x, a row's log seconds moved with its
log ``calibration_s`` at a slope of 0.89; against a baseline taken when the
box was slower, the calibrated median slowdowns read 0.96-1.12x, the
square-root scaling 0.75-0.96x and raw seconds 0.58-0.92x.

It also re-checks the certification invariant: where both files share a
row, they must agree on the exact ``T*`` string — a perf artifact from a
solver that changed its answers is worse than useless.

Orthogonal to wall-clock, the gate compares **solver counters** per
(backend, kernel, n, m) row: pivot counts and basis refactorizations are
deterministic for a given code generation and instance, so — unlike
seconds — they compare exactly across machines.  A fresh row may exceed
its baseline by at most ``--max-counter-growth`` (ratio) plus
``--counter-slack`` (absolute, so a 0-refactorization baseline doesn't
forbid 1).  Rows whose baseline predates counter recording are skipped.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json FRESH.json \\
        [--max-slowdown 1.5] [--absolute] \\
        [--max-counter-growth 1.1] [--counter-slack 4]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

Shape = Tuple[int, int]


def _rows(payload: Dict, backend: str) -> Dict[Shape, Dict]:
    return {
        (int(row["n"]), int(row["m"])): row
        for row in payload.get("rows", [])
        if row.get("backend") == backend
    }


def _metric(payload: Dict, backend: str, absolute: bool) -> Dict[Shape, float]:
    """Each shape's median seconds, over its calibration unless *absolute*.

    Raises ``KeyError`` when a row carries no calibration sample.
    """
    out: Dict[Shape, float] = {}
    for shape, row in _rows(payload, backend).items():
        seconds = float(row["seconds"])
        out[shape] = seconds if absolute else seconds / float(row["calibration_s"])
    return out


def _backends(payload: Dict) -> List[str]:
    return sorted({str(r["backend"]) for r in payload.get("rows", [])})


#: Counters gated per row.  Deterministic given (code, instance), so the
#: comparison is exact — no normalization needed.
_GATED_COUNTERS = ("pivots", "refactorizations")


def _counter_rows(payload: Dict) -> Dict[Tuple, Dict[str, int]]:
    """``(backend, kernel, n, m) → {counter: value}`` for rows that carry
    counters (older baselines without them are silently absent)."""
    out: Dict[Tuple, Dict[str, int]] = {}
    for row in payload.get("rows", []):
        if "pivots" not in row:
            continue
        key = (
            str(row.get("backend")),
            str(row.get("kernel")),
            int(row["n"]),
            int(row["m"]),
        )
        out[key] = {
            counter: int(row.get(counter, 0)) for counter in _GATED_COUNTERS
        }
    return out


def check_counters(
    baseline: Dict, fresh: Dict, max_growth: float, slack: int
) -> int:
    """Gate pivot/refactorization counts per (backend, kernel, shape) row.

    Returns the number of violations (0 = pass).  A fresh value passes when
    ``fresh <= baseline * max_growth + slack``.
    """
    base = _counter_rows(baseline)
    new = _counter_rows(fresh)
    common = sorted(set(base) & set(new))
    if not common:
        print("counter gate: no common rows carry counters — skipped")
        return 0
    failures = 0
    for key in common:
        backend, kernel, n, m = key
        for counter in _GATED_COUNTERS:
            b, f = base[key][counter], new[key][counter]
            allowed = b * max_growth + slack
            ok = f <= allowed
            marker = "ok" if ok else "FAIL"
            if not ok or f != b:
                print(
                    f"  {marker}: n={n:3d} m={m:3d} {backend}/{kernel} "
                    f"{counter}: baseline {b}, fresh {f} "
                    f"(allowed ≤ {allowed:.1f})"
                )
            failures += 0 if ok else 1
    print(
        f"counter gate: {len(common)} (backend, kernel, shape) rows, "
        f"{failures} violation(s) "
        f"(growth ≤ {max_growth}x + {slack})"
    )
    return failures


def check_times(
    baseline: Dict, fresh: Dict, backends: Sequence[str], max_slowdown: float,
    absolute: bool,
) -> int:
    """Gate each backend's median slowdown over the shared shapes.

    Returns 0 on a pass, 1 on a slowdown or ``T*`` drift, 2 when the files
    share nothing to compare or the baseline carries no calibration.
    """
    unit = "s" if absolute else "x calibration"
    failures = 0
    for backend in backends:
        try:
            base_vals = _metric(baseline, backend, absolute)
            fresh_vals = _metric(fresh, backend, absolute)
        except KeyError:
            print(
                f"FAIL: a {backend} row carries no calibration_s — "
                "regenerate the artifact with bench_lp_backends.py"
            )
            return 2
        common = sorted(set(base_vals) & set(fresh_vals))
        if not common:
            print(
                f"FAIL: no common (n, m) shapes for {backend} between baseline "
                f"{sorted(base_vals)} and fresh {sorted(fresh_vals)} — "
                "regenerate the committed artifact"
            )
            return 2
        base_rows, fresh_rows = _rows(baseline, backend), _rows(fresh, backend)
        for shape in common:
            base_t = str(base_rows[shape]["T_star"])
            fresh_t = str(fresh_rows[shape]["T_star"])
            if base_t != fresh_t:
                print(
                    f"FAIL: exact T* drifted at (n={shape[0]}, m={shape[1]}) "
                    f"{backend}: baseline {base_t} vs fresh {fresh_t}"
                )
                return 1
        slowdowns = []
        for shape in common:
            base = base_vals[shape]
            ratio = fresh_vals[shape] / base if base > 0 else 1.0
            slowdowns.append(ratio)
            print(
                f"n={shape[0]:3d} m={shape[1]:3d} {backend}: "
                f"baseline {base_vals[shape]:.2f}{unit}  "
                f"fresh {fresh_vals[shape]:.2f}{unit}  slowdown {ratio:.2f}x"
            )
        median = statistics.median(slowdowns)
        ok = median <= max_slowdown
        print(
            f"{'ok' if ok else 'FAIL'}: median {backend} slowdown over "
            f"{len(common)} shape(s): {median:.2f}x (gate: {max_slowdown}x, "
            f"{'absolute seconds' if absolute else 'calibrated'})"
        )
        failures += 0 if ok else 1
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_lp_backends.json")
    parser.add_argument("fresh", help="freshly generated BENCH_lp_backends.json")
    parser.add_argument("--max-slowdown", type=float, default=1.5)
    parser.add_argument(
        "--absolute", action="store_true",
        help="compare raw median seconds (only meaningful when baseline and "
        "fresh ran on the same machine)",
    )
    parser.add_argument(
        "--max-counter-growth", type=float, default=1.1,
        help="allowed pivot/refactorization growth ratio per row "
        "(default 1.1)",
    )
    parser.add_argument(
        "--counter-slack", type=int, default=4,
        help="absolute slack added to the counter bound (default 4; keeps "
        "tiny baselines from gating on ±1)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    backends = sorted(set(_backends(baseline)) & set(_backends(fresh)))
    if not backends:
        print("FAIL: baseline and fresh share no backend")
        return 2
    status = check_times(
        baseline, fresh, backends, args.max_slowdown, args.absolute
    )
    if status:
        if status == 1:
            print("FAIL: perf regression gate tripped")
        return status
    counter_failures = check_counters(
        baseline, fresh, args.max_counter_growth, args.counter_slack
    )
    if counter_failures:
        print("FAIL: solver-counter regression gate tripped")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

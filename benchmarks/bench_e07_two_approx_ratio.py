"""E07 — Theorem V.2: empirical approximation ratios."""

from _common import emit, run_once

from repro.experiments import e07_two_approx_ratio as exp


def test_e07_two_approx_ratio(benchmark):
    result = run_once(
        benchmark,
        lambda: exp.run(
            shapes=((4, 3), (6, 3), (8, 4), (12, 5), (16, 6)),
            trials=8,
            exact_job_limit=8,
            backend="hybrid",
        ),
    )
    emit("e07", result.table)
    assert result.bound_holds

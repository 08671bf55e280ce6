"""E09 — Section II: 8-approximation on non-laminar masks."""

from _common import emit, run_once

from repro.experiments import e09_general_masks as exp


def test_e09_general_masks(benchmark):
    result = run_once(
        benchmark,
        lambda: exp.run(
            shapes=((4, 3), (6, 4), (10, 5), (14, 6)), trials=10, backend="hybrid"
        ),
    )
    emit("e09", result.table)
    assert result.bound_holds

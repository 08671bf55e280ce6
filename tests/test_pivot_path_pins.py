"""Pinned pivot paths of the production Theorem V.2 pipeline.

``two_approximation`` on a few seeded ``random_hierarchical`` instances,
under the exact and hybrid backends, must keep producing the same ``T*``,
the same makespan and the same solver counters.  ``T*`` is an exact LP
optimum, but the makespan depends on which optimal vertex LST rounds, and
the counters depend on every pricing, crash and warm-start decision along
the way.  So a change to the pivot rule that production solves get (Dantzig
on canonical solves, partial pricing on probes) fails here even when every
answer stays valid.

The hybrid cases also depend on the HiGHS candidates that seed the exact
solves; the values were captured with scipy 1.17.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import two_approximation
from repro.lp import HAVE_SCIPY, collect_stats
from repro.workloads import random_hierarchical, rng_from_seed

#: (backend, seed, n, m) -> (T*, makespan, counters).
PINS = {
    ("exact", 3, 10, 4): (
        "755/29", "30",
        dict(solves=2, pivots=46, phase1_pivots=43, refactorizations=0,
             basis_reuses=0),
    ),
    ("exact", 5, 16, 6): (
        "28", "39",
        dict(solves=2, pivots=52, phase1_pivots=48, refactorizations=0,
             basis_reuses=0),
    ),
    ("exact", 8, 16, 6): (
        "1406/53", "32",
        dict(solves=2, pivots=87, phase1_pivots=64, refactorizations=0,
             basis_reuses=0),
    ),
    # The production shape of the ``v2_exact`` benchmark workload: its
    # cold canonical LST LP runs hundreds of Dantzig pivots on an ~80-row
    # basis, so kernel changes that must keep every pivot show here first.
    ("exact", 1, 64, 16): (
        "10530/257", "59",
        dict(solves=2, pivots=476, phase1_pivots=357, refactorizations=0,
             basis_reuses=0),
    ),
    ("hybrid", 3, 10, 4): (
        "755/29", "34",
        dict(solves=2, pivots=28, phase1_pivots=0, refactorizations=2,
             basis_reuses=0),
    ),
    ("hybrid", 5, 16, 6): (
        "28", "41",
        dict(solves=2, pivots=39, phase1_pivots=0, refactorizations=2,
             basis_reuses=0),
    ),
    ("hybrid", 8, 16, 6): (
        "1406/53", "40",
        dict(solves=2, pivots=45, phase1_pivots=0, refactorizations=2,
             basis_reuses=0),
    ),
}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(map(str, c)))
def test_two_approximation_pivot_path_pinned(case):
    backend, seed, n, m = case
    if backend == "hybrid" and not HAVE_SCIPY:
        pytest.skip("hybrid pins need the HiGHS candidates")
    t_star, makespan, counters = PINS[case]
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    with collect_stats() as stats:
        result = two_approximation(inst, backend=backend)
    assert result.T_lp == Fraction(t_star)
    assert result.makespan == Fraction(makespan)
    assert {name: getattr(stats, name) for name in counters} == counters

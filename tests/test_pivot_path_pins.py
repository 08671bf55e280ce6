"""Pinned pivot paths of the production Theorem V.2 pipeline.

``two_approximation`` on a few seeded ``random_hierarchical`` instances,
under the exact and hybrid backends, must keep producing the same ``T*``,
the same makespan and the same solver counters.  ``T*`` is an exact LP
optimum, but the makespan depends on which optimal vertex LST rounds, and
the counters depend on every pricing, crash and warm-start decision along
the way.  So a change to the pivot rule that production solves get (Dantzig
on canonical solves, partial pricing on probes) fails here even when every
answer stays valid.

The counters are pinned per layer: the ``T*`` search
(``minimal_fractional_T`` on the singleton-extended instance) and the LST
rounding LP (``lst_round`` on its unrelated collapse at ``T*``).  A change
to how the search proves ``T*`` moves only the search pins; the LST pins
must not move with it, since LST solves the same LP at the same ``T*``.

The hybrid cases also depend on the HiGHS candidates that seed the exact
solves; the values were captured with scipy 1.17.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import minimal_fractional_T, two_approximation
from repro._fraction import is_inf, to_fraction
from repro.lp import HAVE_SCIPY, collect_stats
from repro.rounding.lst import lst_round
from repro.workloads import random_hierarchical, rng_from_seed

COUNTERS = ("solves", "pivots", "phase1_pivots", "refactorizations", "basis_reuses")

#: (backend, seed, n, m) -> (T*, makespan, search counters, LST counters),
#: each counter tuple in ``COUNTERS`` order.
PINS = {
    ("exact", 3, 10, 4): ("755/29", "30", (1, 24, 21, 0, 0), (1, 22, 22, 0, 0)),
    # T* = B = 28 is set by a trapped set: one probe at B proves it.
    ("exact", 5, 16, 6): ("28", "39", (1, 22, 22, 0, 0), (1, 29, 29, 0, 0)),
    ("exact", 8, 16, 6): ("1406/53", "32", (1, 46, 23, 0, 0), (1, 41, 41, 0, 0)),
    # The production shape of the ``v2_exact`` benchmark workload: its
    # cold canonical LST LP runs hundreds of Dantzig pivots on an ~80-row
    # basis, so kernel changes that must keep every pivot show here first.
    ("exact", 1, 64, 16): (
        "10530/257", "59", (1, 194, 75, 0, 0), (1, 282, 282, 0, 0),
    ),
    ("hybrid", 3, 10, 4): ("755/29", "34", (1, 15, 0, 1, 0), (1, 13, 0, 1, 0)),
    # The probe at B gets a HiGHS point that the exact re-check certifies.
    ("hybrid", 5, 16, 6): ("28", "41", (0, 0, 0, 0, 0), (1, 20, 0, 1, 0)),
    ("hybrid", 8, 16, 6): ("1406/53", "40", (1, 24, 0, 1, 0), (1, 21, 0, 1, 0)),
}


def _counters(stats):
    return tuple(getattr(stats, name) for name in COUNTERS)


def _collapse(ext):
    """The unrelated collapse ``two_approximation`` hands to LST."""
    return {
        j: {
            i: to_fraction(ext.p(j, frozenset([i])))
            for i in sorted(ext.machines)
            if not is_inf(ext.p(j, frozenset([i])))
        }
        for j in range(ext.n)
    }


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(map(str, c)))
def test_two_approximation_pivot_path_pinned(case):
    backend, seed, n, m = case
    if backend == "hybrid" and not HAVE_SCIPY:
        pytest.skip("hybrid pins need the HiGHS candidates")
    t_star, makespan, search_pin, lst_pin = PINS[case]
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    result = two_approximation(inst, backend=backend)
    assert result.T_lp == Fraction(t_star)
    assert result.makespan == Fraction(makespan)
    ext = inst.with_singletons()
    with collect_stats() as search:
        assert minimal_fractional_T(ext, backend=backend) == result.T_lp
    with collect_stats() as lst:
        lst_round(_collapse(ext), result.T_lp, backend=backend)
    assert _counters(search) == search_pin
    assert _counters(lst) == lst_pin

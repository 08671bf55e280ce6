"""The bracket refinement of ``minimal_fractional_T``.

The search starts at the trapped-demand bound ``B`` (``LB ≤ B ≤ T*``).
A max-flow onto each job's cheapest pairs at ``B`` proves ``T* = B``
whenever the decision LP at ``B`` has a point on those pairs
(``refine=flow``, no LP), whichever term set ``B``.  When the flow is
short and a trapped set put ``B`` above ``LB`` and strictly inside a
bracket, one probe at ``B`` proves ``T* = B`` whenever it holds
(``bound-probe``).
Otherwise, with ``B`` strictly inside a bracket, that bracket's min-T LP
with ``T ≥ B`` runs and settles ``T*`` whenever its optimum stays within
the bracket's closure (``refine=bound-bracket``).  Otherwise the
search probes for the anchor (the smallest feasible breakpoint) and solves
at most one more min-T LP: the previous bracket's, and only when the
anchor lies above ``B``'s bracket.  The anchor bracket's LP is never
solved, because its optimum is the anchor itself, and no LP is solved when
the anchor is ``B``.  These tests check that against a reference that
solves **both** bracket LPs around the anchor as keyed ``LinearProgram``
objects on the exact backend, under every backend, on seeded instances and
on the edge cases: ``T*`` in ``B``'s bracket, ``T* = anchor``,
``T* = anchor = B``, an anchor at the top of ``B``'s bracket, an anchor
above it, an optimum above every breakpoint, an anchor at the first
breakpoint, ``T* = B`` proved by the flow at the volume bound and at a
trapped set's bound, ``T* = B`` that needs a job off its cheapest pairs
(the flow is short, the probe proves it), a probe at ``B`` that fails, no
jobs and all-zero times.  They also pin the ``search.min_T``
and ``search.probe`` span counts and the ``refine`` reason.
"""

from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest

from _reference_bound import cheapest_pairs_feasible, demand_bound, trivial_lower

from repro import minimal_fractional_T
from repro._fraction import INF, is_inf
from repro.core.instance import Instance
from repro.core.programs import build_ip3
from repro.lp import HAVE_SCIPY, LinearProgram, solve_lp
from repro.obs.trace import tracing
from repro.workloads import random_hierarchical, rng_from_seed

T_KEY = ("__T__",)

BACKENDS = [
    "exact",
    pytest.param("hybrid", marks=pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")),
]


def _breakpoints(inst: Instance):
    return sorted({
        Fraction(inst.p(j, alpha))
        for j in range(inst.n)
        for alpha in inst.family.sets
        if not is_inf(inst.p(j, alpha))
    })


def _keyed_min_T(inst: Instance, r_anchor: Fraction, t_low: Fraction):
    """Min T over the keyed LP with ``R = R(r_anchor)``, ``T ≥ t_low``, exactly."""
    lp = LinearProgram()
    lp.add_variable(T_KEY)
    for j in range(inst.n):
        for alpha in inst.family.sets:
            p = inst.p(j, alpha)
            if not is_inf(p) and p <= r_anchor:
                lp.add_variable(("x", alpha, j))
    for j in range(inst.n):
        keys = [("x", a, j) for a in inst.family.sets if lp.has_variable(("x", a, j))]
        if not keys:
            return None
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for alpha in inst.family.sets:
        row = {T_KEY: -len(alpha)}
        for beta in inst.family.subsets_of(alpha):
            for j in range(inst.n):
                if lp.has_variable(("x", beta, j)):
                    row[("x", beta, j)] = inst.p(j, beta)
        lp.add_constraint(row, "<=", 0)
    lp.add_constraint({T_KEY: 1}, ">=", t_low)
    lp.set_objective({T_KEY: 1})
    solution = solve_lp(lp, backend="exact")
    return solution.value(T_KEY) if solution.is_optimal else None


def _reference(inst: Instance):
    """``(T*, refine, min-T LPs)``: ``T*`` from a plain search that solves
    both bracket LPs around the anchor and never looks at a bound; then the
    refinement the bound-first search takes and how many min-T LPs it
    solves, with ``B`` and ``LB`` from the independent oracle.  The flow at
    ``B`` saturates exactly when the decision LP there has a point on
    cheapest pairs (the keyed oracle :func:`cheapest_pairs_feasible`), and
    a probe at ``B`` is feasible exactly when ``T* = B``."""
    if inst.n == 0:
        return Fraction(0), None, 0
    points = _breakpoints(inst)
    if points[-1] == 0:
        return Fraction(0), None, 0
    feasible = [solve_lp(build_ip3(inst, T), backend="exact").is_optimal for T in points]
    if not feasible[-1]:
        t_star = _keyed_min_T(inst, points[-1], points[-1])
    else:
        lo = feasible.index(True)
        anchor = points[lo]
        # The anchor bracket's LP always returns the anchor: this is what
        # lets the production search skip it.
        assert _keyed_min_T(inst, anchor, anchor) == anchor
        t_prev = _keyed_min_T(inst, points[lo - 1], points[lo - 1]) if lo > 0 else None
        t_star = t_prev if t_prev is not None and t_prev < anchor else anchor
    bound, lower = demand_bound(inst), trivial_lower(inst)
    if cheapest_pairs_feasible(inst, bound):
        assert t_star == bound
        return t_star, "flow", 0
    s = bisect_left(points, bound)
    if s == len(points):
        return t_star, "above-top", 1
    lps = 0
    if points[s] != bound:
        if bound > lower and t_star == bound:
            return t_star, "bound-probe", 0
        lps = 1
        t_bound = _keyed_min_T(inst, points[s - 1], bound)
        if t_bound is not None and t_bound <= points[s]:
            assert t_bound == t_star
            return t_star, "bound-bracket", lps
    if not feasible[-1]:
        return t_star, "above-top", lps + 1
    if anchor == bound:
        return t_star, "bound", lps
    if lo > s:
        lps += 1  # the previous bracket lies above B's
    return t_star, "prev-bracket" if t_star < anchor else "anchor", lps


def _seeded(seed, n, m):
    return random_hierarchical(rng_from_seed(seed), n=n, m=m)


def _div7(inst: Instance) -> Instance:
    return Instance(
        inst.family,
        lambda j, a: inst.p(j, a) if is_inf(inst.p(j, a)) else Fraction(inst.p(j, a)) / 7,
        n=inst.n,
    )


CASES = {
    # The case names record the refinement each took before the search
    # started at B; the comments give the current one.
    # 16x6 draws whose anchor is B itself, so they refine nothing.
    "anchor-seed11": _seeded(11, 16, 6),
    "anchor-seed73": _seeded(73, 16, 6),
    "anchor-seed73/7": _div7(_seeded(73, 16, 6)),
    # B = 2, the second breakpoint: R(1) allows only machine 0, so the
    # trapped demand refutes [1, 2).
    "anchor-unrelated": Instance.unrelated([[1, 2], [1, 2], [1, 2]]),
    # Three unit jobs on two machines: B = 3/2 lies above the only breakpoint.
    "above-top": Instance.identical(2, [1, 1, 1]),
    "above-top-unrelated": Instance.unrelated([[2, 3], [2, 3], [2, 3], [3, 2]]),
    # B = 13/2 inside [6, 7): that bracket's LP overshoots 7, the probe at 7
    # fails too, and one more min-T LP runs above the top.
    "above-top-after-probe": Instance.unrelated([[7, 4], [6, INF], [3, 6]]),
    # Feasible at the first breakpoint already (lo = 0), which is B.
    "first-breakpoint": Instance.unrelated([[1, 5], [5, 1]]),
    # T* lies in B's bracket: one min-T LP, no probe.
    "prev-seed1": _seeded(1, 16, 6),
    "prev-seed2": _seeded(2, 10, 4),
    "prev-seed2/7": _div7(_seeded(2, 10, 4)),
    # B = 13/2 inside [6, 7) and T* = 7: the bracket's LP overshoots, the
    # anchor is the bracket's top, and nothing below it is left to refine.
    "anchor-at-bracket-top": Instance.unrelated([[6, 7], [2, 6], [6, 5]]),
    # B = 11/3 inside [3, 4), anchor 5 above it: the previous bracket's LP
    # runs too, and does not beat the anchor.
    "anchor-above-bracket": Instance.unrelated(
        [[3, INF, 2], [INF, 5, 3], [3, INF, 3], [3, 6, 4]]
    ),
    # B = 10/3 inside [3, 4), anchor 6 above it: the previous bracket's LP
    # gives T* = 29/7.
    "prev-above-bracket": Instance.unrelated(
        [[7, 2, 3], [INF, INF, 3], [7, 3, 4], [2, 6, 3]]
    ),
    # B on a breakpoint below the anchor: one min-T LP, over the previous
    # bracket, which beats the anchor 7 with T* = 9/2 (B = 4) ...
    "prev-above-bound": Instance.unrelated([[4, 7], [1, 3], [2, 3]]),
    # ... or does not beat the anchor 7 (B = 6).
    "anchor-above-bound": Instance.unrelated([[4, 3], [7, 6], [5, 3]]),
    # Instance refuses n = 0; the search's own n = 0 guard is checked on a
    # stand-in that has only ``n``.
    "no-jobs": SimpleNamespace(n=0),
    # B = 4 = D({0})/1 inside [3, 7), above LB = 3: the flow at B puts
    # both jobs on machine 0, so T* = B with no LP.
    "bound-probe-unrelated": Instance.unrelated([[1, 7], [3, 7]]),
    "bound-probe-seed5": _seeded(5, 16, 6),
    # LB = 4 and B = T* = 5 inside [4, 7), but the flow at B is short: job 1
    # needs its non-cheapest time 4.  The probe at B proves T* = B.
    "bound-probe-short-flow": Instance.unrelated([[7, 1], [4, 3], [9, 4]]),
    # B = 6 inside [5, 8), above LB = 5: the probe at B is infeasible, and
    # B's bracket LP gives T* = 13/2.
    "bracket-after-probe": Instance.unrelated([[8, 1], [3, 1], [5, 3], [8, 5]]),
    "all-zero": Instance.identical(3, [0, 0]),
}

REFERENCE = {name: _reference(inst) for name, inst in CASES.items()}


def test_cases_cover_every_refinement():
    refines = {refine for _t, refine, _lps in REFERENCE.values()}
    assert refines == {
        "flow", "bound-probe", "bound-bracket", "prev-bracket", "anchor",
        "bound", "above-top", None,
    }
    # B = Σc/m and T* = B: the flow proves it, on a breakpoint and above
    # the top one.
    assert REFERENCE["first-breakpoint"][1] == REFERENCE["above-top"][1] == "flow"
    # B set by a trapped set (B > LB): the flow proves T* = B where a point
    # on cheapest pairs exists, and the probe at B where none does.
    assert REFERENCE["bound-probe-unrelated"][1:] == ("flow", 0)
    assert REFERENCE["bound-probe-short-flow"][1:] == ("bound-probe", 0)
    assert REFERENCE["bound-probe-seed5"][1:] == ("bound-probe", 0)
    assert REFERENCE["bracket-after-probe"][1:] == ("bound-bracket", 1)
    assert REFERENCE["anchor-seed73"][1] == REFERENCE["anchor-seed73/7"][1] == "flow"
    first = CASES["first-breakpoint"]
    assert REFERENCE["first-breakpoint"][0] == _breakpoints(first)[0]
    # Both ways the anchor can follow a bound-bracket LP that overshoots:
    # at the top of B's bracket (one LP) or above it (two LPs).
    assert REFERENCE["anchor-at-bracket-top"][1:] == ("anchor", 1)
    assert REFERENCE["anchor-above-bracket"][1:] == ("anchor", 2)
    assert REFERENCE["prev-above-bracket"][1:] == ("prev-bracket", 2)
    assert REFERENCE["prev-above-bound"][1:] == ("prev-bracket", 1)
    assert REFERENCE["anchor-above-bound"][1:] == ("anchor", 1)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_equals_two_lp_reference(name, backend):
    assert minimal_fractional_T(CASES[name], backend=backend) == REFERENCE[name][0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(20, 30))
def test_equals_two_lp_reference_seeded(seed, backend):
    inst = _seeded(seed, 12, 5)
    assert minimal_fractional_T(inst, backend=backend) == _reference(inst)[0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_min_T_span_per_refinement(name, backend):
    inst = CASES[name]
    with tracing() as tracer:
        minimal_fractional_T(inst, backend=backend)
    searches = [s for s in tracer.spans if s.name == "search.minimal_fractional_T"]
    min_T = [s for s in tracer.spans if s.name == "search.min_T"]
    probes = [s for s in tracer.spans if s.name == "search.probe"]
    _t_star, refine, lps = REFERENCE[name]
    if refine is None:
        assert searches == [] and min_T == []  # decided before any search
        return
    (search,) = searches
    assert search.attrs["refine"] == refine
    assert len(min_T) == lps
    assert all(lp_span.parent_id == search.span_id for lp_span in min_T)
    # Every search here has no side rows, so the flow runs once, at B.
    (flow,) = [s for s in tracer.spans if s.name == "search.flow"]
    assert flow.parent_id == search.span_id and flow.attrs["T"] == search.attrs["demand_bound"]
    assert flow.attrs["outcome"] == search.attrs["flow"]
    if refine == "flow":
        assert search.attrs["flow"] == "saturated"
        assert probes == [] and search.stats.solves == 0
    else:
        assert search.attrs["flow"] == "short"
    if refine in ("bound-probe", "bound-bracket"):
        # One probe at B exactly when a trapped set set B above LB.
        bound = demand_bound(inst)
        expected = [str(bound)] if bound > trivial_lower(inst) else []
        assert [probe.attrs["T"] for probe in probes] == expected

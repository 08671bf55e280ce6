"""The bracket refinement of ``minimal_fractional_T``.

After the search finds the anchor (the smallest feasible breakpoint), it
solves at most one min-T LP: the previous bracket's, built from the
builder's raw rows.  The anchor bracket's LP is not solved, because its
optimum is the anchor itself, and no LP is solved when the anchor meets the
instance's trivial lower bound ``LB``.  These tests check that against a
reference that solves **both** bracket LPs as keyed ``LinearProgram``
objects on the exact backend, under every backend, on seeded instances and
on the edge cases: ``T* = anchor``, ``T* = anchor = LB``, an optimum above
every breakpoint, an anchor at the first breakpoint, no jobs and all-zero
times.  They also pin the span count and the ``refine`` reason.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro import minimal_fractional_T
from repro._fraction import is_inf
from repro.core.instance import Instance
from repro.core.programs import IP3Builder, build_ip3
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


def _lower_bound(inst: Instance) -> Fraction:
    """``max(max_j min_α p_αj, Σ_j min_α p_αj / m)``, straight from ``inst.p``."""
    mins = [
        min(Fraction(inst.p(j, a)) for a in inst.family.sets if not is_inf(inst.p(j, a)))
        for j in range(inst.n)
    ]
    return max(max(mins), sum(mins) / inst.m)


def _reference(inst: Instance):
    """``(T*, refine)`` from a plain search that solves both bracket LPs."""
    if inst.n == 0:
        return Fraction(0), None
    points = _breakpoints(inst)
    if points[-1] == 0:
        return Fraction(0), None
    feasible = [solve_lp(build_ip3(inst, T), backend="exact").is_optimal for T in points]
    if not feasible[-1]:
        return _keyed_min_T(inst, points[-1], points[-1]), "above-top"
    lo = feasible.index(True)
    anchor = points[lo]
    # The anchor bracket's LP always returns the anchor: this is what lets
    # the production search skip it.
    assert _keyed_min_T(inst, anchor, anchor) == anchor
    if lo > 0:
        t_prev = _keyed_min_T(inst, points[lo - 1], points[lo - 1])
        if t_prev is not None and t_prev < anchor:
            return t_prev, "prev-bracket"
    return anchor, "bound" if anchor == _lower_bound(inst) else "anchor"


def _seeded(seed, n, m):
    return random_hierarchical(rng_from_seed(seed), n=n, m=m)


def _div7(inst: Instance) -> Instance:
    return Instance(
        inst.family,
        lambda j, a: inst.p(j, a) if is_inf(inst.p(j, a)) else Fraction(inst.p(j, a)) / 7,
        n=inst.n,
    )


CASES = {
    # 16x6 draws whose T* is the anchor, with a previous bracket to refine;
    # seed 73's anchor is LB itself, so it refines nothing.
    "anchor-seed11": _seeded(11, 16, 6),
    "anchor-seed73": _seeded(73, 16, 6),
    "anchor-seed73/7": _div7(_seeded(73, 16, 6)),
    # Anchor at 2, previous bracket R(1) allows only machine 0: T = 3 there.
    "anchor-unrelated": Instance.unrelated([[1, 2], [1, 2], [1, 2]]),
    # Three unit jobs on two machines: infeasible at the only breakpoint.
    "above-top": Instance.identical(2, [1, 1, 1]),
    "above-top-unrelated": Instance.unrelated([[2, 3], [2, 3], [2, 3], [3, 2]]),
    # Feasible at the first breakpoint already (lo = 0).
    "first-breakpoint": Instance.unrelated([[1, 5], [5, 1]]),
    "prev-seed1": _seeded(1, 16, 6),
    "prev-seed2": _seeded(2, 10, 4),
    "prev-seed2/7": _div7(_seeded(2, 10, 4)),
    # Instance refuses n = 0; the search's own n = 0 guard is checked on a
    # stand-in that has only ``n``.
    "no-jobs": SimpleNamespace(n=0),
    "all-zero": Instance.identical(3, [0, 0]),
}

REFERENCE = {name: _reference(inst) for name, inst in CASES.items()}


def test_cases_cover_every_refinement():
    refines = {refine for _t, refine in REFERENCE.values()}
    assert refines == {"prev-bracket", "anchor", "bound", "above-top", None}
    assert REFERENCE["anchor-seed73"][1] == REFERENCE["anchor-seed73/7"][1] == "bound"
    first = CASES["first-breakpoint"]
    assert REFERENCE["first-breakpoint"][0] == _breakpoints(first)[0]


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
    refine = REFERENCE[name][1]
    if refine is None:
        assert searches == [] and min_T == []  # decided before any search
        return
    (search,) = searches
    assert search.attrs["refine"] == refine
    # Only an anchor at LB or at the first breakpoint (lo = 0) has no
    # bracket to refine.
    lo_is_zero = refine == "anchor" and REFERENCE[name][0] == _breakpoints(inst)[0]
    if refine == "bound" or lo_is_zero:
        assert min_T == []
    else:
        (lp_span,) = min_T
        assert lp_span.parent_id == search.span_id


def test_min_T_float_template_needs_scipy():
    """The float template exists exactly when scipy does (the exact-only
    install gets ``None`` and solves min-T on the exact kernel)."""
    builder = IP3Builder(CASES["prev-seed1"])
    top = builder.breakpoints[-1]
    _rows, _senses, _rhs, _objective, active = builder.min_T_rows(top, top)
    assert (builder.min_T_float_slice(active) is None) == (not HAVE_SCIPY)

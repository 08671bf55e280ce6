"""``minimal_fractional_T`` starts at the trapped-demand bound ``B``.

``LB = Instance.trivial_bounds()[0] = max(max_j min_α p_αj, Σ_j min_α p_αj / m)``
bounds the LP relaxation's ``T*`` from below: each job needs one pair with
``p ≤ T``, and the root sets' load rows (disjoint, covering at most ``m``
machines) summed with the assignment rows give ``Σ_j min p ≤ m·T``.  The
trapped-demand cut sharpens it with no LP: on a bracket of breakpoints,
where ``R`` is fixed, a job whose masks all lie inside ``α`` loads ``α``'s
row by at least its cheapest time even when split, so ``T`` is at least
``max_α D(α)/|α|`` there.  The first bracket that cut does not refute
holds ``B = IP3Builder.demand_bound(LB)``.  The search probes no breakpoint
below ``B``, gallops upward from the first one at or above it, and
refines nothing when the anchor is ``B``.

These tests check ``LB ≤ B ≤ T*`` against an independent reference that
solves a min-T LP at **every** breakpoint on the exact backend, and ``B``
itself against an independent re-derivation (``tests/_reference_bound.py``).
The instances cover every family shape, with and without singletons and
as ÷7 copies: seeded hierarchical draws, unrelated machines with INF
entries (multi-root, and jobs whose masks no single set contains), the
``R||Cmax`` gap family and the topology zoo.  They also check that the
breakpoints below ``LB`` really are infeasible, that no probe lands below
``B``, and the two edges of the gallop: a bound above every breakpoint (no
probe at all) and a gallop that runs to the top.
"""

from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from _reference_bound import demand_bound

from repro import minimal_fractional_T
from repro._fraction import INF, is_inf
from repro.core.instance import Instance
from repro.core.laminar import LaminarFamily
from repro.core.programs import IP3Builder, build_ip3
from repro.lp import HAVE_SCIPY, LinearProgram, solve_lp
from repro.obs.trace import tracing
from repro.workloads import (
    FAMILIES,
    TOPOLOGIES,
    lp_gap_instance,
    make_instance,
    make_topology,
    random_hierarchical,
    rng_from_seed,
)

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


def _min_T_at(inst: Instance, r: Fraction):
    """Min T over the keyed LP with pruning set ``R(r)`` and ``T ≥ r``, exactly."""
    lp = LinearProgram()
    lp.add_variable(T_KEY)
    pairs = [
        (alpha, j)
        for j in range(inst.n)
        for alpha in inst.family.sets
        if not is_inf(inst.p(j, alpha)) and inst.p(j, alpha) <= r
    ]
    for alpha, j in pairs:
        lp.add_variable(("x", alpha, j))
    for j in range(inst.n):
        row = {("x", alpha, k): 1 for alpha, k in pairs if k == j}
        if not row:
            return None
        lp.add_constraint(row, "==", 1)
    for alpha in inst.family.sets:
        row = {T_KEY: -len(alpha)}
        for beta in inst.family.subsets_of(alpha):
            row.update(
                (("x", b, j), inst.p(j, b)) for b, j in pairs if b == beta
            )
        lp.add_constraint(row, "<=", 0)
    lp.add_constraint({T_KEY: 1}, ">=", r)
    lp.set_objective({T_KEY: 1})
    solution = solve_lp(lp, backend="exact")
    return solution.value(T_KEY) if solution.is_optimal else None


def _reference(inst: Instance) -> Fraction:
    """``T*`` as the least min-T LP optimum over every breakpoint's bracket.

    Each one is feasible for the true LP (``R(b) ⊆ R(T)`` for ``T ≥ b``),
    and the bracket holding ``T*`` attains it, so the minimum is ``T*``.
    """
    return min(
        t for t in (_min_T_at(inst, b) for b in _breakpoints(inst)) if t is not None
    )


def _div7(inst: Instance) -> Instance:
    return Instance(
        inst.family,
        lambda j, a: inst.p(j, a) if is_inf(inst.p(j, a)) else Fraction(inst.p(j, a)) / 7,
        n=inst.n,
    )


def _without_singletons(inst: Instance) -> Instance:
    """*inst* on its non-singleton sets; a singletons-only family instead
    drops the last machine's singleton, leaving that machine uncovered."""
    sets = [a for a in inst.family.sets if len(a) > 1]
    if not sets:
        sets = [a for a in inst.family.sets if a != frozenset([inst.m - 1])]
    family = LaminarFamily(inst.family.machines, sets)
    return Instance(family, lambda j, a: inst.p(j, a), n=inst.n)


def _ints(rng, low, high, *shape):
    return rng.integers(low, high, size=shape).tolist()


def _shapes():
    """Seeded instances of every family shape, before the singleton split."""
    out = {}
    for seed in (4, 5, 6):
        inst = random_hierarchical(rng_from_seed(seed), n=12, m=5)
        out[f"hier-{seed}"] = inst
        out[f"hier-{seed}/7"] = _div7(inst)
    rng = np.random.default_rng(7)
    out["unrelated"] = Instance.unrelated(_ints(rng, 1, 20, 6, 3))
    out["identical"] = Instance.identical(3, _ints(rng, 1, 20, 7))
    local = _ints(rng, 1, 10, 6, 3)
    out["semi"] = Instance.semi_partitioned(
        local, [max(row) + g for row, g in zip(local, _ints(rng, 0, 6, 6))]
    )
    local = _ints(rng, 1, 10, 6, 4)
    cluster = [
        [max(row[0:2]) + a, max(row[2:4]) + b]
        for row, (a, b) in zip(local, _ints(rng, 0, 4, 6, 2))
    ]
    out["clustered"] = Instance.clustered(
        2, local, cluster, [max(c) + g for c, g in zip(cluster, _ints(rng, 0, 4, 6))]
    )
    # Unrelated machines with INF entries: every singleton is a root, so a
    # job with two finite entries has no trap.  Each row keeps a finite
    # entry off the last machine, which the -singletons variant drops.
    for seed in (8, 9):
        rng = np.random.default_rng(seed)
        rows = _ints(rng, 1, 20, 7, 3)
        for row, hole in zip(rows, _ints(rng, 0, 3, 7)):
            if hole < 2:
                row[hole] = INF
        inst = Instance.unrelated(rows)
        out[f"unrelated-inf-{seed}"] = inst
        out[f"unrelated-inf-{seed}/7"] = _div7(inst)
    tops = sorted(TOPOLOGIES)
    for i, family in enumerate(sorted(FAMILIES)):
        top = tops[i % len(tops)]
        inst = make_instance(family, rng_from_seed(i), make_topology(top), 8)
        out[f"{family}-{top}"] = inst
        out[f"{family}-{top}/7"] = _div7(inst)
    return out


CASES = {}
for _name, _inst in _shapes().items():
    CASES[f"{_name}+singletons"] = _inst.with_singletons()
    CASES[f"{_name}-singletons"] = _without_singletons(_inst)
# The R||Cmax gap family pins jobs to every machine, so it has no variant
# without singletons.  Its long job's masks straddle all the roots.
for _m in range(2, 6):
    CASES[f"gap-{_m}+singletons"] = lp_gap_instance(_m)
    CASES[f"gap-{_m}/7+singletons"] = _div7(lp_gap_instance(_m))

REFERENCE = {name: _reference(inst) for name, inst in CASES.items()}


def _lower(inst: Instance) -> Fraction:
    return inst.trivial_bounds()[0]


def test_cases_cover_both_singleton_variants():
    for name, inst in CASES.items():
        assert inst.family.has_all_singletons == name.endswith("+singletons"), name


def test_cases_include_untrapped_jobs():
    """Some cases have a job whose masks no single family set contains."""
    untrapped = [
        name
        for name, inst in CASES.items()
        if any(
            inst.family.minimal_containing(frozenset().union(*(
                a for a in inst.family.sets if not is_inf(inst.p(j, a))
            ))) is None
            for j in range(inst.n)
        )
    ]
    assert {"gap-3+singletons", "unrelated-inf-8+singletons"} <= set(untrapped)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lower_bound_is_below_T_star(name):
    assert _lower(CASES[name]) <= REFERENCE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_demand_bound_lies_between_LB_and_T_star(name):
    inst = CASES[name]
    builder = IP3Builder(inst)
    assert builder.trivial_lower() == _lower(inst)
    bound = builder.demand_bound(_lower(inst))
    assert _lower(inst) <= bound <= REFERENCE[name]
    assert bound == demand_bound(inst)


def test_gap_instance_bound_keeps_untrapped_job_untrapped():
    # The long job's three masks share one rank and straddle three roots,
    # so its only trap step is None.  Restarting the union after the trap
    # became None would trap the job on {2} and push the bound to 5, above
    # T* = 3.
    inst = lp_gap_instance(3)
    builder = IP3Builder(inst)
    assert [trap for _rank, trap in builder.trap_steps[0]] == [None]
    assert builder.demand_bound(_lower(inst)) == 3
    for backend in ("exact", "hybrid") if HAVE_SCIPY else ("exact",):
        assert minimal_fractional_T(inst, backend=backend) == 3


@pytest.mark.parametrize("name", sorted(CASES))
def test_breakpoints_below_bound_are_infeasible(name):
    inst = CASES[name]
    lower = _lower(inst)
    for T in _breakpoints(inst):
        if T < lower:
            assert not solve_lp(build_ip3(inst, T), backend="exact").is_optimal, T


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_equals_every_breakpoint_reference(name, backend):
    assert minimal_fractional_T(CASES[name], backend=backend) == REFERENCE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_starts_at_bound(name):
    inst = CASES[name]
    lower = _lower(inst)
    bound = demand_bound(inst)
    points = _breakpoints(inst)
    with tracing() as tracer:
        minimal_fractional_T(inst, backend="exact")
    (search,) = [s for s in tracer.spans if s.name == "search.minimal_fractional_T"]
    assert search.attrs["lower_bound"] == str(lower)
    assert search.attrs["demand_bound"] == str(bound)
    assert search.attrs["start"] == bisect_left(points, bound)
    assert all(
        Fraction(s.attrs["T"]) >= bound for s in tracer.spans if s.name == "search.probe"
    )
    # The anchor is B exactly when T* = B lands on a breakpoint, unless the
    # flow at B already proved it; either way no min-T LP runs.  The flow
    # proves only T* = B.
    at_bound = REFERENCE[name] == bound and bound in points
    if search.attrs["refine"] == "flow":
        assert REFERENCE[name] == bound
    else:
        assert (search.attrs["refine"] == "bound") == at_bound
    if at_bound:
        assert not [s for s in tracer.spans if s.name == "search.min_T"]


def test_bound_above_every_breakpoint_needs_no_probe():
    # Four jobs on two unrelated machines: B = Σc/m = 4 lies above the top
    # breakpoint 3.  Jobs 0-2 take 2 only on machine 0, which holds 4 at
    # T = 4, so the flow at B is short and one min-T LP settles T*.
    inst = Instance.unrelated([[2, 3], [2, 3], [2, 3], [3, 2]])
    with tracing() as tracer:
        assert minimal_fractional_T(inst, backend="exact") == Fraction(22, 5)
    assert [s for s in tracer.spans if s.name == "search.probe"] == []
    assert len([s for s in tracer.spans if s.name == "search.min_T"]) == 1
    (search,) = [s for s in tracer.spans if s.name == "search.minimal_fractional_T"]
    assert search.attrs["refine"] == "above-top"
    assert search.attrs["flow"] == "short"
    assert search.attrs["start"] == 2
    # Three unit jobs on two machines: B = 3/2 above the only breakpoint
    # is T* itself, and the flow proves it with no LP at all.
    with tracing() as tracer:
        assert minimal_fractional_T(Instance.identical(2, [1, 1, 1])) == Fraction(3, 2)
    (search,) = [s for s in tracer.spans if s.name == "search.minimal_fractional_T"]
    assert search.attrs["refine"] == "flow"
    assert sorted(s.name for s in tracer.spans) == [
        "search.build", "search.flow", "search.minimal_fractional_T",
    ]


def test_gallop_runs_to_the_top():
    # Three unrelated machines; job 2 cannot use machine 2.  B = LB = 19 is
    # the seventh of twelve breakpoints: the trapped demand does not refute
    # its bracket, because jobs 0 and 3 already straddle two roots.  The gallop
    # steps 19, 20, 22 are infeasible and its next step is capped at the
    # top breakpoint 29; bisection then finds the anchor 28 below it, and
    # the previous bracket's LP beats it.
    inst = Instance.unrelated(
        [[18, 13, 29], [22, 20, 9], [19, 22, INF], [4, 17, 22], [21, 11, 28]]
    )
    assert _lower(inst) == demand_bound(inst) == 19
    with tracing() as tracer:
        t_star = minimal_fractional_T(inst, backend="exact")
    assert t_star == _reference(inst) == Fraction(8275, 367)
    probes = [s.attrs["T"] for s in tracer.spans if s.name == "search.probe"]
    points = _breakpoints(inst)
    assert len(points) == 12 and points[6] == 19 and points[-1] == 29
    assert probes == ["19", "20", "22", "29", "28"]

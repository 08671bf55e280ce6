"""The two ways the ``T*`` search proves ``T* = B`` with no min-T LP.

**Cheapest flow.**  When the builder has no side rows,
:meth:`IP3Builder.cheapest_flow` runs one max-flow at ``B``, whichever term
set it: each job ``j`` sends its cheapest time ``c_j`` onto its cheapest
pairs, and each set ``α`` passes at most ``|α|·B`` to its parent.  The flow
saturates exactly when the decision LP at ``B`` has a point on cheapest
pairs; since ``c_j ≤ LB ≤ B``, such a point proves ``T* = B``.  At the
volume bound ``Σ_j c_j / m`` the root load rows force every feasible point
onto cheapest pairs, so there the flow decides the whole LP.  These tests
check the flow against a keyed cheapest-pairs LP
(``_reference_bound.cheapest_pairs_feasible``) and against the full
decision LP, on the families of ``tests/test_search_bound.py`` and on
seeded draws from 16×6 to 96×24 with fractional and zero times.
:meth:`IP3Builder.point_feasible`, the check of every saturated point, must
agree with the exact row check of :meth:`IP3Builder.probe_rows` on
feasible and perturbed points.  They also cover a flow that needs an
augmenting path, zero-time jobs, a failed check that must fall back to the
LP search, a flow-proven search that builds no LP rows, the memory models,
whose side rows keep them off the flow, and a counter gate: on eight
96×24 singleton draws every search is proven by the flow.

**Bound probe.**  When the flow is short and a trapped set puts ``B``
above ``LB`` and strictly inside a bracket, one probe at ``B`` runs
next.  A feasible verdict proves ``T* = B``; an infeasible one falls back
to ``B``'s bracket LP, which must still return the reference ``T*``.
"""

from fractions import Fraction

import pytest

from _int_rows import probe_rows, time_of
from _reference_bound import (
    cheapest_pairs_feasible,
    demand_bound,
    trivial_lower,
    volume_bound,
)
from test_search_bound import CASES, REFERENCE, _reference
from test_unified_search import _model1_case, _model2_case

from repro import minimal_fractional_T
from repro._fraction import INF, is_inf
from repro.core import programs
from repro.core.instance import Instance
from repro.core.memory import minimal_model1_T, minimal_model2_T
from repro.core.programs import IP3Builder, _ProbeSession, build_ip3
from repro.exceptions import InfeasibleError
from repro.lp import HAVE_SCIPY, solve_lp
from repro.lp.solve import check_standard_rows
from repro.obs.trace import tracing
from repro.workloads import random_hierarchical, rng_from_seed

BACKENDS = [
    "exact",
    pytest.param("hybrid", marks=pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")),
]


def _search(inst, backend="exact"):
    """``(T*, search span)`` of one traced search."""
    with tracing() as tracer:
        t_star = minimal_fractional_T(inst, backend=backend)
    (search,) = [s for s in tracer.spans if s.name == "search.minimal_fractional_T"]
    return t_star, search, tracer.spans


def _at_volume(inst):
    """Whether the volume bound is at least every cheapest time: then it is
    ``LB``, and the flow decides the decision LP at it."""
    return volume_bound(inst) == trivial_lower(inst)


def _row_check(builder, T, point):
    """The verdict of the exact row check on :meth:`IP3Builder.probe_rows`
    at *T*.  An entry on a pair outside the mask has no column there, so
    such a point is no point of those rows."""
    if any(builder.var_rank[gi] >= builder.mask(T) for gi in point):
        return False
    coeff_rows, senses, rhs, active = probe_rows(builder, T)
    return check_standard_rows(
        coeff_rows, senses, rhs, [point.get(gi, Fraction(0)) for gi in active]
    )


def _check_point(inst, builder, point, T):
    """*point* is exactly feasible at *T*: by :meth:`IP3Builder.point_feasible`,
    on the builder's probe rows and on the keyed (IP-3) program."""
    assert builder.point_feasible(T, point)
    assert _row_check(builder, T, point)
    values = {
        ("x", builder.finite[gi][1], builder.finite[gi][0]): v for gi, v in point.items()
    }
    assert build_ip3(inst, T).check_values(values) == []
    # Only cheapest pairs carry a job at the volume bound.
    for gi in point:
        j, _alpha, _P = builder.finite[gi]
        p = time_of(builder, gi)
        assert p * builder.denominator == builder.cheapest[j]


@pytest.mark.parametrize("name", sorted(n for n, inst in CASES.items() if _at_volume(inst)))
def test_flow_saturates_iff_T_star_is_the_volume_bound(name):
    inst = CASES[name]
    builder = IP3Builder(inst)
    volume = volume_bound(inst)
    point = builder.cheapest_flow(volume)
    assert (point is not None) == (REFERENCE[name] == volume)
    if point is not None:
        _check_point(inst, builder, point, volume)


def test_reference_families_take_both_flow_outcomes():
    outcomes = {
        IP3Builder(inst).cheapest_flow(volume_bound(inst)) is not None
        for inst in CASES.values()
        if _at_volume(inst)
    }
    assert outcomes == {True, False}


def _draws():
    for n, m, seeds in ((16, 6, range(8)), (24, 8, range(4)), (64, 16, range(2))):
        for seed in seeds:
            inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
            yield f"{n}x{m}-{seed}", inst
            yield f"{n}x{m}-{seed}+singletons", inst.with_singletons()


DRAWS = dict(_draws())


@pytest.mark.parametrize("name", sorted(n for n, inst in DRAWS.items() if _at_volume(inst)))
def test_flow_matches_the_exact_decision_lp_on_seeded_draws(name):
    inst = DRAWS[name]
    builder = IP3Builder(inst)
    volume = volume_bound(inst)
    point = builder.cheapest_flow(volume)
    feasible = solve_lp(build_ip3(inst, volume), backend="exact").is_optimal
    assert (point is not None) == feasible
    if point is not None:
        _check_point(inst, builder, point, volume)
    t_star, search, _spans = _search(inst)
    assert (t_star == volume) == feasible
    if demand_bound(inst) == volume:
        assert search.attrs["flow"] == ("saturated" if feasible else "short")
        assert (search.attrs["refine"] == "flow") == feasible


def test_seeded_draws_take_both_flow_outcomes():
    flows = {
        _search(inst)[1].attrs.get("flow") for inst in DRAWS.values()
    }
    assert {"saturated", "short"} <= flows


def _fractional_with_zeros(inst):
    """*inst* with job ``j``'s times divided by ``1 + j % 3`` (so the
    builder's denominator is 6) and every time of a job ``j ≡ 3 (mod 7)``
    set to 0 (monotone, since each job's row is only scaled)."""
    def p(j, alpha):
        t = inst.p(j, alpha)
        if is_inf(t):
            return t
        return Fraction(0) if j % 7 == 3 else Fraction(t) / (1 + j % 3)

    return Instance(inst.family, p, n=inst.n)


def _oracle_draws():
    for n, m, seeds in (
        (16, 6, range(4)), (24, 8, range(2)), (48, 12, range(2)), (96, 24, range(2)),
    ):
        for seed in seeds:
            inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
            yield f"{n}x{m}-{seed}", inst
            yield f"{n}x{m}-{seed}/frac0", _fractional_with_zeros(inst)


ORACLE_DRAWS = dict(_oracle_draws())


@pytest.mark.parametrize("name", sorted(ORACLE_DRAWS))
def test_cheapest_flow_matches_the_cheapest_pairs_lp(name):
    """At ``B`` and at ``Σc/m`` the flow saturates exactly when the keyed
    cheapest-pairs LP is feasible, and every saturated point is a point of
    the decision LP; at ``Σc/m`` the flow also decides the full LP."""
    inst = ORACLE_DRAWS[name]
    builder = IP3Builder(inst)
    if name.endswith("/frac0"):
        assert builder.denominator == 6 and 0 in builder.cheapest
    volume, bound = volume_bound(inst), demand_bound(inst)
    for T in sorted({volume, bound}):
        point = builder.cheapest_flow(T)
        assert (point is not None) == cheapest_pairs_feasible(inst, T), T
        if point is not None:
            _check_point(inst, builder, point, T)
    full = solve_lp(build_ip3(inst, volume), backend="exact").is_optimal
    assert (builder.cheapest_flow(volume) is not None) == full


def test_flow_above_the_volume_bound_takes_both_outcomes():
    """Where a trapped set puts ``B`` above ``Σc/m``, the flow proves
    ``T* = B`` on some draws and is short on others."""
    outcomes = {
        IP3Builder(inst).cheapest_flow(bound) is not None
        for inst in ORACLE_DRAWS.values()
        for bound in [demand_bound(inst)]
        if bound > volume_bound(inst)
    }
    assert outcomes == {True, False}


def _loads(builder, point):
    """Per set ``α``, ``(load, |α|)`` summed straight over the pairs
    ``β ⊆ α`` of *point*."""
    return {
        alpha: sum(
            (time_of(builder, gi) * v for gi, v in point.items()
             if builder.finite[gi][1] <= alpha),
            Fraction(0),
        )
        for alpha in builder.instance.family.sets
    }


def _perturbed(builder, T, point):
    """``(kind, T', point')`` infeasible neighbours of a feasible *point* at
    *T*: one mass off by ``1/denominator``, one job moved onto a pair
    outside the mask, the tightest set overloaded by one step (at a horizon
    just below its load, above every time in the support), and one negative
    entry."""
    step = Fraction(1, builder.denominator)
    k, rank, finite = builder.mask(T), builder.var_rank, builder.finite
    first = min(point)
    yield "mass", T, {**point, first: point[first] + step}
    for j, group in enumerate(builder.assign_template):
        outside = [gi for gi in group if rank[gi] >= k]
        if outside:
            moved = {gi: v for gi, v in point.items() if finite[gi][0] != j}
            moved[outside[0]] = Fraction(1)
            yield "mask", T, moved
            break
    loads = _loads(builder, point)
    alpha = max(loads, key=lambda a: loads[a] / len(a))
    tight = loads[alpha] / len(alpha)
    below = tight - Fraction(1, len(alpha) * tight.denominator * builder.denominator)
    if below >= max(time_of(builder, gi) for gi in point):
        yield "load", below, point
    for group in builder.assign_template:
        support = [gi for gi in group if gi in point]
        spare = [gi for gi in group if gi not in point and rank[gi] < k]
        if support and spare:
            yield "negative", T, {
                **point, support[0]: point[support[0]] + step, spare[0]: -step,
            }
            break


def test_point_feasible_agrees_with_the_row_check():
    """On flow points, on exact probe vertices at ``T*`` and on their
    perturbed neighbours, :meth:`IP3Builder.point_feasible` gives the
    verdict of the exact row check on the probe rows."""
    kinds = set()
    for inst in ORACLE_DRAWS.values():
        builder = IP3Builder(inst)
        bound = demand_bound(inst)
        t_star = minimal_fractional_T(inst, backend="exact")
        feasible = [(t_star, _ProbeSession(builder, "exact").probe(t_star))]
        flow = builder.cheapest_flow(bound)
        if flow is not None:
            feasible.append((bound, flow))
        for T, point in feasible:
            assert builder.point_feasible(T, point) and _row_check(builder, T, point)
            for kind, T2, point2 in _perturbed(builder, T, point):
                assert builder.point_feasible(T2, point2) == _row_check(builder, T2, point2)
                assert not builder.point_feasible(T2, point2), kind
                kinds.add(kind)
    assert kinds == {"mass", "mask", "load", "negative"}


def test_flow_below_a_cheapest_time_is_short():
    # Σc/m = 2 fills both machines exactly, but job 0's only time 3 fits no
    # horizon below 3: no point on cheapest pairs, so no saturated flow.
    inst = Instance.identical(2, [3, 1])
    assert volume_bound(inst) == 2 and not cheapest_pairs_feasible(inst, Fraction(2))
    assert IP3Builder(inst).cheapest_flow(Fraction(2)) is None


def test_point_feasible_rejects_a_pair_above_T():
    # One job of length 3 on two identical machines: at T = 2 the root's
    # load 3 fits 2·2, yet the pair's time exceeds the horizon.
    inst = Instance.identical(2, [3])
    builder = IP3Builder(inst)
    point = {0: Fraction(1)}
    assert builder.point_feasible(Fraction(3), point) and _row_check(builder, Fraction(3), point)
    assert not builder.point_feasible(Fraction(2), point)
    assert not _row_check(builder, Fraction(2), point)


def test_flow_proven_search_builds_no_lp_rows(monkeypatch):
    """A search the flow proves reads neither the load-row templates nor
    any LP rows: the builder never materializes them."""
    def forbidden(self, *args):
        raise AssertionError("a flow-proven search builds no LP rows")

    monkeypatch.setattr(IP3Builder, "load_template", property(forbidden))
    monkeypatch.setattr(IP3Builder, "probe_rows", forbidden)
    monkeypatch.setattr(IP3Builder, "min_T_rows", forbidden)
    inst = random_hierarchical(rng_from_seed(0), n=96, m=24).with_singletons()
    t_star, search, _spans = _search(inst)
    assert search.attrs["refine"] == "flow"
    assert t_star == Fraction(search.attrs["demand_bound"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_flow_proves_every_96x24_singleton_search(backend):
    """Counter gate: on these eight 96×24 draws the flow proves ``T* = B``
    every time, so the search runs no probe and no min-T LP."""
    for seed in range(8):
        inst = random_hierarchical(rng_from_seed(seed), 96, 24).with_singletons()
        t_star, search, spans = _search(inst, backend)
        names = [s.name for s in spans]
        assert search.attrs["refine"] == "flow", seed
        assert names.count("search.probe") == names.count("search.min_T") == 0, seed
        assert t_star == Fraction(search.attrs["demand_bound"])


def test_flow_needs_an_augmenting_path():
    # Job 0 fits either machine; greedy placement puts it on machine 0,
    # the only machine job 1 can use.  Only the augmenting path
    # job 1 → {0} → job 0 → {1} → sink saturates the flow.
    inst = Instance.unrelated([[1, 1], [1, INF]])
    builder = IP3Builder(inst)
    point = builder.cheapest_flow(Fraction(1))
    keys = {(builder.finite[gi][0], builder.finite[gi][1]): v for gi, v in point.items()}
    assert keys == {(0, frozenset([1])): 1, (1, frozenset([0])): 1}
    _check_point(inst, builder, point, Fraction(1))
    t_star, search, spans = _search(inst)
    assert t_star == 1
    assert search.attrs["refine"] == "flow"
    assert sorted(s.name for s in spans) == [
        "search.build", "search.flow", "search.minimal_fractional_T",
    ]


def test_flow_splits_a_job_across_roots():
    # Three unit jobs on two unrelated machines: at T = 3/2 one job must
    # split between the two roots.
    inst = Instance.unrelated([[1, 1], [1, 1], [1, 1]])
    builder = IP3Builder(inst)
    point = builder.cheapest_flow(Fraction(3, 2))
    _check_point(inst, builder, point, Fraction(3, 2))
    assert sorted(point.values()) == [Fraction(1, 2)] * 2 + [Fraction(1)] * 2


def test_zero_time_jobs():
    # Job 0 costs nothing on machine 0; jobs 1 and 2 fill both machines.
    inst = Instance.unrelated([[0, 3], [2, 2], [2, 2]])
    builder = IP3Builder(inst)
    assert builder.cheapest == [0, 2, 2] and volume_bound(inst) == 2
    point = builder.cheapest_flow(Fraction(2))
    assert point[0] == 1  # job 0 whole on its zero-time pair
    _check_point(inst, builder, point, Fraction(2))
    t_star, search, _spans = _search(inst)
    assert t_star == 2 and search.attrs["refine"] == "flow"
    # Every cheapest time is 0, yet some times are not: B = Σc/m = 0.
    inst = Instance.unrelated([[0, 5], [5, 0], [0, 0]])
    t_star, search, _spans = _search(inst)
    assert t_star == 0 and search.attrs["refine"] == "flow"
    builder = IP3Builder(inst)
    _check_point(inst, builder, builder.cheapest_flow(Fraction(0)), Fraction(0))


def test_integer_cheapest_times_share_one_denominator():
    inst = Instance.unrelated([[Fraction(1, 2), 3], [Fraction(2, 3), Fraction(5, 6)]])
    builder = IP3Builder(inst)
    assert builder.denominator == 6
    assert builder.cheapest == [3, 4]
    assert Fraction(sum(builder.cheapest), inst.m * builder.denominator) == Fraction(7, 12)
    assert volume_bound(inst) == Fraction(7, 12)
    assert builder.trivial_lower() == trivial_lower(inst) == Fraction(2, 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_check_falls_back_to_the_lp_search(monkeypatch, backend):
    """A saturated flow whose point fails the exact check proves nothing:
    the search runs on as if the flow were short."""
    inst = Instance.identical(2, [1, 1, 1])

    def broken(self, T):
        # Every job only half assigned: the assignment rows fail.
        return {group[0]: Fraction(1, 2) for group in self.assign_template}

    monkeypatch.setattr(IP3Builder, "cheapest_flow", broken)
    t_star, search, spans = _search(inst, backend)
    assert t_star == Fraction(3, 2)
    assert search.attrs["flow"] == "saturated"
    assert search.attrs["refine"] == "above-top"
    (flow,) = [s for s in spans if s.name == "search.flow"]
    assert flow.attrs == {"T": "3/2", "outcome": "check-failed"}
    assert [s.name for s in spans].count("search.min_T") == 1


def _memory_searches():
    for seed in range(16):
        inst, space, budgets = _model1_case(seed)
        yield lambda: minimal_model1_T(inst, space, budgets, backend="exact")
    for seed in range(12):
        inst, sizes, mu = _model2_case(seed)
        yield lambda: minimal_model2_T(inst, sizes, mu, backend="exact")


def test_side_row_builders_never_take_the_flow(monkeypatch):
    def forbidden(self, T):
        raise AssertionError("the flow ignores side rows")

    monkeypatch.setattr(IP3Builder, "cheapest_flow", forbidden)
    searched = 0
    for run in _memory_searches():
        with tracing() as tracer:
            try:
                run()
            except InfeasibleError:
                continue
        assert "search.flow" not in {s.name for s in tracer.spans}
        for search in tracer.spans:
            if search.name == "search.minimal_fractional_T":
                assert "flow" not in search.attrs
                assert search.attrs["refine"] != "flow"
                searched += 1
    assert searched > 20


def _probe_draws():
    for seed in range(40):
        yield random_hierarchical(rng_from_seed(seed), n=8, m=3)
    # Two probes at B that fail: B's bracket LP gives T* = 13/2 and 27.
    yield Instance.unrelated([[8, 1], [3, 1], [5, 3], [8, 5]])
    yield random_hierarchical(rng_from_seed(17), n=16, m=6)
    # A probe at B = T* = 5 after a short flow: job 1 needs its time 4.
    yield Instance.unrelated([[7, 1], [4, 3], [9, 4]])


@pytest.mark.parametrize("backend", BACKENDS)
def test_bound_probe_proves_T_star_or_falls_back(backend):
    """Feasible at ``B`` ⇒ ``T* = B``; infeasible ⇒ the bracket LP or the
    gallop still returns the every-breakpoint reference ``T*``."""
    outcomes = set()
    for inst in _probe_draws():
        bound, lower = demand_bound(inst), trivial_lower(inst)
        t_star, search, spans = _search(inst, backend)
        probes = [s for s in spans if s.name == "search.probe"]
        if not probes or Fraction(probes[0].attrs["T"]) != bound or bound == lower:
            continue
        reference = _reference(inst)
        assert t_star == reference
        if search.attrs["refine"] == "bound-probe":
            assert t_star == bound and len(probes) == 1
            assert not [s for s in spans if s.name == "search.min_T"]
        else:
            assert reference > bound
        outcomes.add(search.attrs["refine"])
    assert outcomes == {"bound-probe", "bound-bracket"}


def test_bound_probe_keeps_its_farkas_certificate(monkeypatch):
    """An infeasible probe at ``B`` leaves its certificate to the gallop:
    the search shares one probe session."""
    sessions = []
    real = programs._ProbeSession.__init__

    def spy(self, builder, backend):
        sessions.append(self)
        real(self, builder, backend)

    monkeypatch.setattr(programs._ProbeSession, "__init__", spy)
    inst = Instance.unrelated([[8, 1], [3, 1], [5, 3], [8, 5]])
    t_star, search, spans = _search(inst)
    assert t_star == Fraction(13, 2) and search.attrs["refine"] == "bound-bracket"
    (session,) = sessions
    assert session.farkas is not None
    assert [s.attrs["T"] for s in spans if s.name == "search.probe"] == ["6"]

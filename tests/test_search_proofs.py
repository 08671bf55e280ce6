"""The two ways the ``T*`` search proves ``T* = B`` with no min-T LP.

**Volume flow.**  When the bound ``B`` is the volume bound ``Σ_j c_j / m``
(``c_j`` the cheapest time of job ``j``) and the builder has no side rows,
:meth:`IP3Builder.volume_flow` decides the decision LP at ``B`` with one
max-flow: summed with the assignment rows, the root load rows force every
feasible point onto cheapest pairs and fill the roots exactly.  The flow
saturates exactly when the LP is feasible there, i.e. when ``T* = B``.
These tests check that equivalence against the every-breakpoint reference
of ``tests/test_search_bound.py`` on all of its families, and against an
exact decision LP on seeded draws from 16×6 to 64×16; every saturated
point must pass the exact row check.  They also cover a flow that needs
an augmenting path, zero-time jobs, a failed check that must fall back to
the LP search, and the memory models, whose side rows keep them off the
flow.

**Bound probe.**  When a trapped set puts ``B`` above ``LB`` and strictly
inside a bracket, one probe at ``B`` runs first.  A feasible verdict
proves ``T* = B``; an infeasible one falls back to ``B``'s bracket LP,
which must still return the reference ``T*``.
"""

from fractions import Fraction

import pytest

from _int_rows import probe_rows, time_of
from _reference_bound import demand_bound, trivial_lower, volume_bound
from test_search_bound import CASES, REFERENCE, _reference
from test_unified_search import _model1_case, _model2_case

from repro import minimal_fractional_T
from repro._fraction import INF
from repro.core import programs
from repro.core.instance import Instance
from repro.core.memory import minimal_model1_T, minimal_model2_T
from repro.core.programs import IP3Builder, build_ip3
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


def _check_point(inst, builder, point, T):
    """*point* is exactly feasible at *T*: on the builder's probe rows and
    on the keyed (IP-3) program."""
    coeff_rows, senses, rhs, active = probe_rows(builder, T)
    assert check_standard_rows(
        coeff_rows, senses, rhs, [point.get(gi, Fraction(0)) for gi in active]
    )
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
    volume = builder.volume_bound()
    assert volume == volume_bound(inst)
    point = builder.volume_flow()
    assert (point is not None) == (REFERENCE[name] == volume)
    if point is not None:
        _check_point(inst, builder, point, volume)


def test_reference_families_take_both_flow_outcomes():
    outcomes = {
        IP3Builder(inst).volume_flow() is not None
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
    volume = builder.volume_bound()
    point = builder.volume_flow()
    feasible = solve_lp(build_ip3(inst, volume), backend="exact").is_optimal
    assert (point is not None) == feasible
    if point is not None:
        _check_point(inst, builder, point, volume)
    t_star, search, _spans = _search(inst)
    assert (t_star == volume) == feasible
    if demand_bound(inst) == volume:
        assert search.attrs["flow"] == ("saturated" if feasible else "short")
        assert (search.attrs["refine"] == "volume-flow") == feasible


def test_seeded_draws_take_both_flow_outcomes():
    flows = {
        _search(inst)[1].attrs.get("flow") for inst in DRAWS.values()
    }
    assert {"saturated", "short"} <= flows


def test_flow_needs_an_augmenting_path():
    # Job 0 fits either machine; greedy placement puts it on machine 0,
    # the only machine job 1 can use.  Only the augmenting path
    # job 1 → {0} → job 0 → {1} → sink saturates the flow.
    inst = Instance.unrelated([[1, 1], [1, INF]])
    builder = IP3Builder(inst)
    point = builder.volume_flow()
    keys = {(builder.finite[gi][0], builder.finite[gi][1]): v for gi, v in point.items()}
    assert keys == {(0, frozenset([1])): 1, (1, frozenset([0])): 1}
    _check_point(inst, builder, point, Fraction(1))
    t_star, search, spans = _search(inst)
    assert t_star == 1
    assert search.attrs["refine"] == "volume-flow"
    assert [s.name for s in spans] == ["search.minimal_fractional_T"]


def test_flow_splits_a_job_across_roots():
    # Three unit jobs on two unrelated machines: at T = 3/2 one job must
    # split between the two roots.
    inst = Instance.unrelated([[1, 1], [1, 1], [1, 1]])
    builder = IP3Builder(inst)
    point = builder.volume_flow()
    _check_point(inst, builder, point, Fraction(3, 2))
    assert sorted(point.values()) == [Fraction(1, 2)] * 2 + [Fraction(1)] * 2


def test_zero_time_jobs():
    # Job 0 costs nothing on machine 0; jobs 1 and 2 fill both machines.
    inst = Instance.unrelated([[0, 3], [2, 2], [2, 2]])
    builder = IP3Builder(inst)
    assert builder.cheapest == [0, 2, 2] and builder.volume_bound() == 2
    point = builder.volume_flow()
    assert point[0] == 1  # job 0 whole on its zero-time pair
    _check_point(inst, builder, point, Fraction(2))
    t_star, search, _spans = _search(inst)
    assert t_star == 2 and search.attrs["refine"] == "volume-flow"
    # Every cheapest time is 0, yet some times are not: B = Σc/m = 0.
    inst = Instance.unrelated([[0, 5], [5, 0], [0, 0]])
    t_star, search, _spans = _search(inst)
    assert t_star == 0 and search.attrs["refine"] == "volume-flow"
    _check_point(inst, IP3Builder(inst), IP3Builder(inst).volume_flow(), Fraction(0))


def test_integer_cheapest_times_share_one_denominator():
    inst = Instance.unrelated([[Fraction(1, 2), 3], [Fraction(2, 3), Fraction(5, 6)]])
    builder = IP3Builder(inst)
    assert builder.denominator == 6
    assert builder.cheapest == [3, 4]
    assert builder.volume_bound() == Fraction(7, 12)
    assert builder.trivial_lower() == trivial_lower(inst) == Fraction(2, 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_check_falls_back_to_the_lp_search(monkeypatch, backend):
    """A saturated flow whose point fails the exact check proves nothing:
    the search runs on as if the flow were short."""
    inst = Instance.identical(2, [1, 1, 1])

    def broken(self):
        # Every job only half assigned: the assignment rows fail.
        return {group[0]: Fraction(1, 2) for group in self.assign_template}

    monkeypatch.setattr(IP3Builder, "volume_flow", broken)
    t_star, search, spans = _search(inst, backend)
    assert t_star == Fraction(3, 2)
    assert search.attrs["flow"] == "saturated"
    assert search.attrs["refine"] == "above-top"
    assert [s.name for s in spans].count("search.min_T") == 1


def _memory_searches():
    for seed in range(16):
        inst, space, budgets = _model1_case(seed)
        yield lambda: minimal_model1_T(inst, space, budgets, backend="exact")
    for seed in range(12):
        inst, sizes, mu = _model2_case(seed)
        yield lambda: minimal_model2_T(inst, sizes, mu, backend="exact")


def test_side_row_builders_never_take_the_flow(monkeypatch):
    def forbidden(self):
        raise AssertionError("the flow ignores side rows")

    monkeypatch.setattr(IP3Builder, "volume_flow", forbidden)
    searched = 0
    for run in _memory_searches():
        with tracing() as tracer:
            try:
                run()
            except InfeasibleError:
                continue
        for search in tracer.spans:
            if search.name == "search.minimal_fractional_T":
                assert "flow" not in search.attrs
                assert search.attrs["refine"] != "volume-flow"
                searched += 1
    assert searched > 20


def _probe_draws():
    for seed in range(40):
        yield random_hierarchical(rng_from_seed(seed), n=8, m=3)
    # Two probes at B that fail: B's bracket LP gives T* = 13/2 and 27.
    yield Instance.unrelated([[8, 1], [3, 1], [5, 3], [8, 5]])
    yield random_hierarchical(rng_from_seed(17), n=16, m=6)


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

"""One decision-LP path: ``lp_feasible``, ``model1_lp_feasible`` and
``model2_lp_feasible`` answer through :class:`IP3Builder` and one
``_ProbeSession.probe``.

Their verdicts must equal those of the keyed programs solved exactly:
``build_ip3`` for (IP-3), and for the memory models the group equalities
plus the model's packing rows at ``T`` (``_model1_rows`` /
``_model2_rows``), which is how both were decided before.  A job with no
pair within ``T`` (and, for Model 1, within the budgets) is ``False``
rather than an error.  The horizons probed per draw are every breakpoint,
each midpoint between consecutive ones, ``T*``, a point just below it and
one below the first breakpoint, on both backends.
"""

from fractions import Fraction

import pytest
from test_unified_search import _model1_case, _model2_case

from repro import minimal_fractional_T
from repro._fraction import is_inf
from repro.core.instance import Instance
from repro.core.memory import (
    _model1_rows,
    _model2_rows,
    minimal_model1_T,
    minimal_model2_T,
    model1_lp_feasible,
    model2_lp_feasible,
)
from repro.core.programs import build_ip3, lp_feasible
from repro.exceptions import InfeasibleError, SolverError
from repro.lp import HAVE_SCIPY, LinearProgram, solve_lp
from repro.workloads import example_ii1, random_hierarchical, rng_from_seed

BACKENDS = [
    "exact",
    pytest.param("hybrid", marks=pytest.mark.skipif(not HAVE_SCIPY, reason="needs scipy")),
]


def _points(inst):
    return sorted({
        Fraction(inst.p(j, a))
        for j in range(inst.n)
        for a in inst.family.sets
        if not is_inf(inst.p(j, a))
    })


def _horizons(points, t_star):
    out = set(points) | {t_star, t_star * Fraction(99, 100), points[0] / 2}
    out |= {(a + b) / 2 for a, b in zip(points, points[1:])}
    return sorted(out)


def _keyed_memory_verdict(rows_at, T):
    """The memory model's LP at *T* as a keyed program, solved exactly."""
    try:
        groups, rows = rows_at(T)
    except InfeasibleError:
        return False
    lp = LinearProgram()
    for keys in groups.values():
        for key in keys:
            lp.add_variable(key, lb=0)
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for row in rows:
        lp.add_constraint(row.coeffs, "<=", row.bound)
    return solve_lp(lp, backend="exact").is_optimal


IP3_DRAWS = [random_hierarchical(rng_from_seed(seed), n=8, m=3) for seed in range(6)] + [
    random_hierarchical(rng_from_seed(6), n=12, m=5).with_singletons(),
    example_ii1(),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("index", range(len(IP3_DRAWS)))
def test_lp_feasible_matches_build_ip3(index, backend):
    inst = IP3_DRAWS[index]
    t_star = minimal_fractional_T(inst, backend="exact")
    for T in _horizons(_points(inst), t_star):
        expected = solve_lp(build_ip3(inst, T), backend="exact").is_optimal
        assert lp_feasible(inst, T, backend=backend) == expected, T
        assert expected == (T >= t_star)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(16))
def test_model1_lp_feasible_matches_keyed_lp(seed, backend):
    inst, space, budgets = _model1_case(seed)

    def rows_at(T):
        return _model1_rows(inst, space, budgets, T)

    try:
        t_star = minimal_model1_T(inst, space, budgets, backend="exact")
    except InfeasibleError:
        t_star = None
    points = _points(inst)
    for T in _horizons(points, t_star if t_star is not None else points[-1]):
        expected = _keyed_memory_verdict(rows_at, T)
        assert model1_lp_feasible(inst, space, budgets, T, backend=backend) == expected, T
        if t_star is None:
            assert not expected
        else:
            assert expected == (T >= t_star)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(12))
def test_model2_lp_feasible_matches_keyed_lp(seed, backend):
    inst, sizes, mu = _model2_case(seed)

    def rows_at(T):
        return _model2_rows(inst, sizes, mu, T)[:2]

    t_star = minimal_model2_T(inst, sizes, mu, backend="exact")
    points = _points(inst)
    for T in _horizons(points, t_star):
        expected = _keyed_memory_verdict(rows_at, T)
        assert model2_lp_feasible(inst, sizes, mu, T, backend=backend) == expected, T
        assert expected == (T >= t_star)


def test_draws_cover_infeasible_models():
    """Some Model 1 draws are infeasible at every horizon."""
    infeasible = 0
    for seed in range(16):
        inst, space, budgets = _model1_case(seed)
        try:
            minimal_model1_T(inst, space, budgets, backend="exact")
        except InfeasibleError:
            infeasible += 1
    assert infeasible == 2


@pytest.mark.parametrize("backend", ["scipy", "auto", "gurobi"])
def test_unknown_backend_raises_even_without_an_lp(backend):
    inst, space, budgets = _model1_case(0)
    sizes_inst, sizes, mu = _model2_case(0)
    with pytest.raises(SolverError):
        lp_feasible(inst, 0, backend=backend)
    with pytest.raises(SolverError):
        model1_lp_feasible(inst, space, budgets, 0, backend=backend)
    with pytest.raises(SolverError):
        model2_lp_feasible(sizes_inst, sizes, mu, 0, backend=backend)
    # The max-flow at B proves this T* with no LP; the name is still checked.
    with pytest.raises(SolverError):
        minimal_fractional_T(Instance.identical(2, [1, 1, 1]), backend=backend)

"""The direct HiGHS call answers exactly as ``scipy.optimize.linprog`` does.

:func:`repro.lp.scipy_backend.solve_highs` hands HiGHS a ``HighsLp`` it
builds itself, through scipy's private ``scipy.optimize._highspy._core``.
Under the hybrid backend the LST LP's vertex follows HiGHS's candidate, so
the model, options and status mapping must stay those of
``linprog(method="highs")``.  These tests replay a fixed set of programs
through both and require bit-equal ``x``, row duals
(``ineqlin``/``eqlin`` marginals) and objective, and the same mapped
status.  The programs are seeded probe, min-T and LST rows, the phase-1
programs of infeasible probes, and the edge shapes: no rows, no columns,
a ``{} == 1`` row, ``p = 0`` coefficients and negative right-hand sides.

A scipy upgrade that moves the private module or changes what ``linprog``
sends to HiGHS fails here: these tests skip only when scipy itself is
missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("scipy")

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import repro.lp.hybrid as hybrid  # noqa: E402
from repro.core.programs import IP3Builder, minimal_fractional_T  # noqa: E402
from repro.exceptions import SolverError  # noqa: E402
from repro.lp import HAVE_SCIPY  # noqa: E402
from repro.lp.scipy_backend import solve_highs, solve_standard_float  # noqa: E402
from repro.rounding.lst import unrelated_rows  # noqa: E402
from repro.workloads import random_hierarchical, rng_from_seed  # noqa: E402

#: linprog's status codes as solve_highs's verdicts; the rest are failures.
_LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _linprog(rows, senses, rhs, objective, scales):
    """``linprog``'s answer on dense float images of the integer rows:
    ``(status, x, row duals in the caller's row order, objective)``."""
    n = len(objective)
    dense = np.zeros((len(rows), n))
    for i, (row, scale) in enumerate(zip(rows, scales)):
        for j, a in row.items():
            dense[i, j] = float(Fraction(a, scale))
    b = np.array([float(Fraction(v, s)) for v, s in zip(rhs, scales)])
    ub = [i for i, s in enumerate(senses) if s != "=="]
    eq = [i for i, s in enumerate(senses) if s == "=="]
    sign = np.array([-1.0 if senses[i] == ">=" else 1.0 for i in ub])
    kwargs = {}
    if ub:
        kwargs.update(A_ub=dense[ub] * sign[:, None], b_ub=b[ub] * sign)
    if eq:
        kwargs.update(A_eq=dense[eq], b_eq=b[eq])
    c = np.array([float(v) for v in objective])
    try:
        result = linprog(c, bounds=(0, None), method="highs", **kwargs)
    except ValueError:
        return "failure", None, None, None
    status = _LINPROG_STATUS.get(result.status, "failure")
    if status != "optimal":
        return status, None, None, None
    dual = np.empty(len(rows))
    dual[ub] = result.ineqlin.marginals if ub else []
    dual[eq] = result.eqlin.marginals if eq else []
    return status, result.x, dual, result.fun


def _direct(rows, senses, rhs, objective, scales):
    try:
        got = solve_highs(rows, senses, rhs, objective, scales)
    except SolverError:
        return "failure", None, None, None
    return got.status, got.x, got.row_dual, got.objective


def _assert_same(program):
    want = _linprog(*program)
    got = _direct(*program)
    assert got[0] == want[0]
    if want[0] == "optimal":
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert got[3] == want[3]
    return got[0]


def _seeded_programs():
    """Probe and min-T rows at about eight breakpoints each, and LST slices
    at ``T*`` and below it, on seeded 16×6 and 24×8 draws."""
    programs = []
    for seed, (n, m) in ((1, (16, 6)), (2, (24, 8)), (3, (16, 6))):
        inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
        builder = IP3Builder(inst)
        points = builder.breakpoints
        for T in points[:: max(1, len(points) // 8)]:
            if builder.mask(T) < builder.full_mask:
                continue
            rows, senses, rhs, scales, active = builder.probe_rows(T)
            programs.append((rows, senses, rhs, [0] * len(active), scales))
            min_t = builder.min_T_rows(T, T)
            if min_t is not None:
                rows, senses, rhs, scales, objective, _active = min_t
                programs.append((rows, senses, rhs, objective, scales))
        t_star = minimal_fractional_T(inst, backend="exact")
        for T in (t_star, t_star * Fraction(9, 10)):
            rows, senses, rhs, scales, pairs = unrelated_rows(builder.singleton_times(), T)
            programs.append((rows, senses, rhs, [0] * len(pairs), scales))
    return programs


SEEDED = _seeded_programs()


def test_the_direct_call_is_wired_in():
    assert HAVE_SCIPY
    assert hybrid.solve_highs is solve_highs


def test_seeded_programs_agree_with_linprog():
    statuses = [_assert_same(program) for program in SEEDED]
    assert {"optimal", "infeasible"} <= set(statuses)


def test_phase1_programs_agree_with_linprog(monkeypatch):
    """The phase-1 program of every infeasible seeded program, as
    ``certify_infeasible`` hands it to HiGHS."""
    phase1 = []

    def recording(*program):
        phase1.append(program)
        return solve_highs(*program)

    monkeypatch.setattr(hybrid, "solve_highs", recording)
    certified = 0
    for rows, senses, rhs, objective, scales in SEEDED:
        if _direct(rows, senses, rhs, objective, scales)[0] == "infeasible":
            y = hybrid.certify_infeasible(rows, senses, rhs, scales, num_vars=len(objective))
            certified += y is not None
    assert phase1 and certified
    for program in phase1:
        assert _assert_same(program) == "optimal"


EDGE = {
    # No rows: x = 0 is optimal, or a negative cost is unbounded.
    "no-rows": ([], [], [], [1, 2], []),
    "no-rows-unbounded": ([], [], [], [-1, 0], []),
    # A job with no option among other columns: HiGHS proves infeasibility.
    "empty-eq-row": ([{0: 1, 1: 1}, {}], ["==", "=="], [1, 1], [0, 0], [1, 1]),
    # p = 0 coefficients are stored as explicit zeros in the dict rows.
    "p-zero": (
        [{0: 1, 1: 1, 2: 1}, {0: 0, 1: 3, 2: 0}, {0: 2, 1: 0, 2: 0}],
        ["==", "<=", "<="], [1, 2, 1], [0, 1, 1], [1, 1, 1],
    ),
    # Negative right-hand sides, a >= row and a scaled row.
    "negative-rhs": (
        [{0: -1, 1: 1}, {0: 3, 1: 3}, {0: 1}],
        ["<=", "==", ">="], [-1, 15, -4], [0, 1], [3, 2, 1],
    ),
    "infeasible": ([{0: 1}, {0: 1}], [">=", "<="], [2, 1], [0], [1, 1]),
    "unbounded": ([{0: 1}], [">="], [1], [-1], [1]),
}


@pytest.mark.parametrize("case", sorted(EDGE))
def test_edge_shapes_agree_with_linprog(case):
    _assert_same(EDGE[case])


def test_no_columns_never_reach_highs():
    """Both calls fail on ``n == 0``; ``solve_standard_float`` decides such
    programs exactly, before any HiGHS call."""
    for senses, rhs, status in ((["=="], [1], "infeasible"), (["<="], [1], "optimal")):
        program = ([{}], senses, rhs, [], [1])
        assert _linprog(*program)[0] == _direct(*program)[0] == "failure"
        assert solve_standard_float(*program).status == status


def test_point_outside_tolerance_falls_back_to_exact(monkeypatch):
    """An optimal point that fails ``linprog``'s tolerance check is a
    failure, never a verdict: the hybrid solve then runs the exact solver
    alone and returns its answer."""
    import repro.lp.scipy_backend as scipy_backend
    from repro.lp.revised import solve_standard

    rows, senses, rhs, objective, scales = EDGE["negative-rhs"]
    monkeypatch.setattr(scipy_backend, "_CHECK_TOL", -1.0)  # no point passes
    with pytest.raises(SolverError, match="tolerance"):
        solve_highs(rows, senses, rhs, objective, scales)
    assert hybrid.float_candidate(rows, senses, rhs, objective, scales) is None
    assert hybrid.certify_infeasible(*EDGE["infeasible"][:3], [1, 1], num_vars=1) is None
    program = SEEDED[0]
    exact = solve_standard(*program)
    got = hybrid.solve_standard_hybrid(*program)
    assert (got.status, got.x, got.objective) == (exact.status, exact.x, exact.objective)

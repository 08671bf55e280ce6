"""The sparse float leg from ``IP3Builder`` to HiGHS.

* Every HiGHS call builds its float image from the integer rows it is
  handed; for the probe and min-T rows that image is exactly the CSC a
  dense matrix of those rows converts to, with the right-hand sides of
  the rows, at every breakpoint of seeded instances, including
  non-integer times, ``p = 0`` entries, single-option jobs and empty load
  rows.
* The exact mask (one integer threshold per horizon) selects the same
  variables and builds the same rows and LPs as per-entry ``p ≤ T``
  comparisons; the min-T rows equal the keyed min-T LP's standard rows.
* ``solve_standard_float`` agrees with the exact simplex on the edge
  shapes of the standard form, and construction errors raise instead of
  falling back to the exact solve.
* ``certify_infeasible`` certifies infeasible probes from the dense
  phase-1 matrix of their rows, handed to HiGHS as equality rows.
"""

from fractions import Fraction

import pytest
from _int_rows import certifies, int_rows, min_T_rows, probe_rows, scaled, time_of

from repro._fraction import INF, is_inf
from repro.core.instance import Instance
from repro.core.laminar import LaminarFamily
from repro.core.programs import IP3Builder, build_ip3
from repro.lp import HAVE_SCIPY, LinearProgram, solve_standard
from repro.lp.revised import standard_form
from repro.workloads import random_hierarchical, rng_from_seed

pytestmark = pytest.mark.skipif(not HAVE_SCIPY, reason="the float leg needs scipy")

if HAVE_SCIPY:
    import numpy as np
    from scipy import sparse

    from repro.lp.hybrid import certify_infeasible, float_candidate
    from repro.lp.scipy_backend import highs_model, solve_standard_float
    from repro.lp.solve import feasible_point_rows


def _edge_instance() -> Instance:
    """Fraction times, ``p = 0`` pairs, a single-option job, an empty load row."""
    family = LaminarFamily(
        range(4), [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]]
    )
    # A finite time on a set forces finite times on all its subsets, so
    # leaving every job off {1} also keeps them off {0, 1} and the root.
    processing = {
        0: {(0,): Fraction(7, 2)},  # single option
        1: {(2,): 0, (3,): 0, (2, 3): 0},  # p = 0 entries
        2: {(2,): Fraction(3, 2), (3,): 1, (2, 3): Fraction(3, 2)},
        3: {(3,): Fraction(9, 4)},
        4: {(0,): Fraction(1, 3)},
    }
    return Instance(family, processing)


def _fractional(inst: Instance, divisor: int) -> Instance:
    """*inst* with every finite time divided by *divisor*."""
    return Instance(
        inst.family,
        lambda j, alpha: INF if is_inf(inst.p(j, alpha)) else Fraction(inst.p(j, alpha)) / divisor,
        n=inst.n,
    )


def _instances():
    yield "edge", _edge_instance()
    for seed, (n, m) in ((1, (8, 3)), (2, (10, 4)), (3, (12, 5))):
        inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
        yield f"seed{seed}", inst
        yield f"seed{seed}/7", _fractional(inst, 7)


INSTANCES = dict(_instances())


def _horizons(builder: IP3Builder):
    """Every breakpoint, the midpoints between them, and one below them all."""
    points = builder.breakpoints
    yield points[0] / 2 if points[0] else Fraction(-1)
    for a, b in zip(points, points[1:]):
        yield a
        yield (a + b) / 2
    yield points[-1]


def _reference_probe_rows(inst: Instance, builder: IP3Builder, T: Fraction):
    """Probe rows from per-entry ``p ≤ T`` comparisons on the instance."""
    var_of_pair = {(j, alpha): gi for gi, (j, alpha, _p) in enumerate(builder.finite)}
    active = [gi for gi in range(len(builder.finite)) if time_of(builder, gi) <= T]
    local = {gi: li for li, gi in enumerate(active)}
    rows, senses, rhs = [], [], []
    for j in range(inst.n):
        rows.append({
            local[gi]: Fraction(1)
            for gi, (jj, _a, _p) in enumerate(builder.finite)
            if jj == j and time_of(builder, gi) <= T
        })
        senses.append("==")
        rhs.append(Fraction(1))
    for alpha in inst.family.sets:
        row = {}
        for beta in inst.family.subsets_of(alpha):
            for j in range(inst.n):
                p = inst.p(j, beta)
                if not is_inf(p) and p <= T:
                    row[local[var_of_pair[(j, beta)]]] = Fraction(p)
        rows.append(row)
        senses.append("<=")
        rhs.append(len(alpha) * T)
    return rows, senses, rhs, active


def _highs_csc(lp):
    """The CSC matrix of a ``HighsLp``, as scipy sees it."""
    matrix = lp.a_matrix_
    return sparse.csc_array(
        (matrix.value_, matrix.index_, matrix.start_), shape=(lp.num_row_, lp.num_col_)
    )


def _dense_csc(rows, senses, n):
    """The CSC of a dense list-of-lists image of the rows, ``<=`` and
    ``>=`` (negated) rows over ``==`` rows, as ``linprog`` stacks them."""
    ub, eq = [], []
    for row, sense in zip(rows, senses):
        dense = [0.0] * n
        for j, v in row.items():
            dense[j] = float(v)
        if sense == "==":
            eq.append(dense)
        else:
            ub.append([-v for v in dense] if sense == ">=" else dense)
    blocks = [np.array(b) for b in (ub, eq) if b]
    return sparse.csc_array(np.vstack(blocks))


def _assert_same_csc(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("name", sorted(INSTANCES))
class TestTemplateSlice:
    def test_mask_and_rows_match_per_entry_comparisons(self, name):
        inst = INSTANCES[name]
        builder = IP3Builder(inst)
        for T in _horizons(builder):
            assert probe_rows(builder, T) == _reference_probe_rows(inst, builder, T)
            every_job = all(
                any(time_of(builder, gi) <= T for gi in group)
                for group in builder.assign_template
            )
            assert (builder.mask(T) >= builder.full_mask) == every_job

    def test_slice_equals_row_built_matrices(self, name):
        builder = IP3Builder(INSTANCES[name])
        for T in _horizons(builder):
            rows, senses, rhs, active = probe_rows(builder, T)
            objective = [Fraction(0)] * len(active)
            if not active:
                continue
            lp, order = highs_model(*scaled(rows, senses, rhs, objective))
            _assert_same_csc(_highs_csc(lp), _dense_csc(rows, senses, len(active)))
            loads = [float(len(a) * T) for a, _e in builder.load_template]
            num_loads = len(loads)
            assert [senses[i] for i in order[:num_loads]] == ["<="] * num_loads
            assert np.array_equal(lp.row_upper_[:num_loads], loads)
            assert np.array_equal(lp.row_lower_[:num_loads], [-np.inf] * num_loads)
            # The assignment rows are equalities: lo == up == 1.
            ones = [1.0] * builder.instance.n
            assert np.array_equal(lp.row_lower_[num_loads:], ones)
            assert np.array_equal(lp.row_upper_[num_loads:], ones)


T_KEY = ("__T__",)


def _reference_min_T_lp(builder: IP3Builder, r_anchor, t_low):
    """The keyed min-T LP from per-entry ``p ≤ r_anchor`` comparisons."""
    inst = builder.instance
    lp = LinearProgram()
    lp.add_variable(T_KEY, lb=0)
    by_job = {}
    for gi, (j, alpha, _p) in enumerate(builder.finite):
        if time_of(builder, gi) <= r_anchor:
            lp.add_variable(("x", alpha, j), lb=0)
            by_job.setdefault(j, []).append(alpha)
    for j in range(inst.n):
        if j not in by_job:
            return None
        lp.add_constraint({("x", a, j): 1 for a in by_job[j]}, "==", 1, name=f"assign[{j}]")
    for alpha in inst.family.sets:
        coeffs = {T_KEY: -len(alpha)}
        for beta in inst.family.subsets_of(alpha):
            for j in range(inst.n):
                p = inst.p(j, beta)
                if not is_inf(p) and p <= r_anchor:
                    coeffs[("x", beta, j)] = Fraction(p)
        lp.add_constraint(coeffs, "<=", 0, name=f"load[{sorted(alpha)}]")
    lp.add_constraint({T_KEY: 1}, ">=", t_low, name="bracket-low")
    lp.set_objective({T_KEY: 1})
    return lp


def _keys(builder: IP3Builder, active):
    """The ``("x", α, j)`` LP key of each active variable, in column order."""
    return [("x", builder.finite[gi][1], builder.finite[gi][0]) for gi in active]


def _ordered_rows(rows):
    """Rows as ordered ``(column, value)`` lists, so order is compared too."""
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_masked_lp_builders_unchanged(name):
    inst = INSTANCES[name]
    builder = IP3Builder(inst)
    for T in _horizons(builder):
        # The probe rows are build_ip3's rows, in its variable and row
        # order, except that they keep the p = 0 entries build_ip3 drops.
        rows, senses, rhs, active = probe_rows(builder, T)
        ref = build_ip3(inst, T)
        ref_rows, ref_senses, ref_rhs, _objective = ref.to_standard_rows()
        nonzero = [{col: v for col, v in row.items() if v} for row in rows]
        assert _ordered_rows(nonzero) == _ordered_rows(ref_rows)
        assert (senses, rhs) == (ref_senses, ref_rhs)
        assert _keys(builder, active) == list(ref.variable_keys)
        for t_low in (T, T + 1):
            ref = _reference_min_T_lp(builder, T, t_low)
            got = min_T_rows(builder, T, t_low)
            assert (got is None) == (ref is None)
            if ref is None:
                continue
            rows, senses, rhs, objective, active = got
            ref_rows, ref_senses, ref_rhs, ref_objective = ref.to_standard_rows()
            assert _ordered_rows(rows) == _ordered_rows(ref_rows)
            assert (senses, rhs, objective) == (ref_senses, ref_rhs, ref_objective)
            assert _keys(builder, active) == list(ref.variable_keys[1:])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_min_T_template_equals_row_built_matrices(name):
    """At every breakpoint, HiGHS gets the dense CSC of the min-T rows
    (which omit ``p = 0``)."""
    builder = IP3Builder(INSTANCES[name])
    checked = 0
    for T in builder.breakpoints:
        program = min_T_rows(builder, T, T)
        if program is None:
            continue
        rows, senses, rhs, objective, _active = program
        lp, _order = highs_model(*scaled(rows, senses, rhs, objective))
        _assert_same_csc(_highs_csc(lp), _dense_csc(rows, senses, len(objective)))
        checked += 1
    assert checked


class TestFloatEdgeCases:
    """``solve_standard_float`` against the exact simplex on edge shapes."""

    CASES = {
        "ge-rows": (
            [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}],
            [">=", "<="], [Fraction(3), Fraction(2)], [Fraction(1), Fraction(2)],
        ),
        "eq-only": (
            [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(1)}],
            ["==", "=="], [Fraction(4), Fraction(1)], [Fraction(1)] * 3,
        ),
        "le-only": (
            [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}],
            ["<=", "<="], [Fraction(4), Fraction(6)], [Fraction(-1), Fraction(-1)],
        ),
        "negative-rhs": (
            [{0: Fraction(-1), 1: Fraction(1, 3)}, {0: Fraction(1), 1: Fraction(1)}],
            ["<=", "=="], [Fraction(-1), Fraction(5, 2)], [Fraction(0), Fraction(1)],
        ),
        "infeasible": (
            [{0: Fraction(1)}, {0: Fraction(1)}],
            [">=", "<="], [Fraction(2), Fraction(1)], [Fraction(0)],
        ),
        "unbounded": (
            [{0: Fraction(1)}], [">="], [Fraction(1)], [Fraction(-1)],
        ),
        "no-vars-feasible": ([{}, {}], ["<=", ">="], [Fraction(1), Fraction(-1)], []),
        "no-vars-infeasible": ([{}], ["=="], [Fraction(1)], []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_exact(self, case):
        rows, senses, rhs, objective = self.CASES[case]
        exact = solve_standard(*scaled(rows, senses, rhs, objective))
        floaty = solve_standard_float(*scaled(rows, senses, rhs, objective))
        assert floaty.status == exact.status
        if exact.status == "optimal":
            assert floaty.objective == exact.objective


class TestConstructionErrorsRaise:
    def test_probe_pipeline_does_not_swallow_it(self):
        builder = IP3Builder(INSTANCES["seed2"])
        rows, senses, rhs, active = probe_rows(builder, builder.breakpoints[-1])
        with pytest.raises(ValueError, match="unknown sense"):
            feasible_point_rows(
                rows, ["<"] + senses[1:], rhs, len(active), backend="hybrid"
            )

    def test_unknown_sense_raises(self):
        with pytest.raises(ValueError, match="unknown sense"):
            float_candidate(*scaled([{0: Fraction(1)}], ["<"], [Fraction(1)], [Fraction(1)]))


def _dense_phase1_csc(rows, senses, rhs, n):
    """CSC of the dense ``[A | S | I]`` phase-1 matrix, rows sign-normalized."""
    std = standard_form(*scaled(rows, senses, rhs, [Fraction(0)] * n))
    num_slack = sum(1 for s in std.slack_of_row if s is not None)
    dense = np.zeros((std.num_rows, n + num_slack + std.num_rows))
    for i, row in enumerate(std.rows):
        for j, v in row.items():
            dense[i][j] = v / std.scales[i]  # the raw row's float
        if std.slack_of_row[i] is not None:
            dense[i][std.slack_of_row[i]] = float(std.slack_sign[i])
        dense[i][n + num_slack + i] = 1.0
    return sparse.csc_array(dense)


def _certify(monkeypatch, rows, senses, rhs, n):
    """The certificate of the rows; asserts it verifies exactly and came
    from the dense phase-1 matrix, as equality rows with cost 1 on the
    artificial columns."""
    import repro.lp.hybrid as hybrid

    phase1 = []
    real_solve = hybrid.solve_highs

    def recording_solve(*args):
        phase1.append(highs_model(*args))
        return real_solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(hybrid, "solve_highs", recording_solve)
        farkas = certify_infeasible(*int_rows(rows, senses, rhs), num_vars=n)
    assert farkas is not None
    assert certifies(rows, senses, rhs, farkas)
    assert len(phase1) == 1
    lp, order = phase1[0]
    dense = _dense_phase1_csc(rows, senses, rhs, n)
    _assert_same_csc(_highs_csc(lp), dense)
    assert order == list(range(len(rows)))
    b = [abs(float(v)) for v in rhs]  # sign-normalized to b >= 0
    assert np.array_equal(lp.row_lower_, b) and np.array_equal(lp.row_upper_, b)
    num_artificial = len(rows)
    width = dense.shape[1]
    assert np.array_equal(lp.col_cost_, [0.0] * (width - num_artificial) + [1.0] * num_artificial)
    return farkas


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_certify_infeasible_on_infeasible_probes(name, monkeypatch):
    """Every seeded probe HiGHS calls infeasible is certified."""
    builder = IP3Builder(INSTANCES[name])
    certified = 0
    for T in _horizons(builder):
        if builder.mask(T) < builder.full_mask:
            continue  # structurally infeasible: decided before any LP
        rows, senses, rhs, active = probe_rows(builder, T)
        objective = [Fraction(0)] * len(active)
        if solve_standard_float(*scaled(rows, senses, rhs, objective)).status != "infeasible":
            continue
        _certify(monkeypatch, rows, senses, rhs, len(active))
        certified += 1
    if name.startswith("seed"):
        assert certified, "no LP-infeasible probe exercised"


def test_certify_infeasible_negative_rhs_rows(monkeypatch):
    """Rows with a negative rhs are negated in the phase-1 matrix."""
    # x0 + x1 >= 3 and x1 <= 1, written with negative right-hand sides,
    # against x0 <= 1.
    rows = [{0: Fraction(-1), 1: Fraction(-1)}, {0: Fraction(1)}, {1: Fraction(-1)}]
    senses = ["<=", "<=", ">="]
    rhs = [Fraction(-3), Fraction(1), Fraction(-1)]
    _certify(monkeypatch, rows, senses, rhs, 2)

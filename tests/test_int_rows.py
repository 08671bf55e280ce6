"""Integer rows from the builders: the kernel's integers, entry for entry.

:class:`repro.core.programs.IP3Builder` (probe rows, min-T rows and the
singleton LST slice) and :func:`repro.rounding.lst.unrelated_rows` hand the
exact kernel integer rows plus one scale per row (the contract of
:mod:`repro.lp.solve`).  These tests pin that contract on seeded 16×6,
24×8, 64×16 and 96×24 draws, on draws with fractional times, and on the
memory models' side rows:

* the LST slice is :func:`~repro.rounding.lst.build_unrelated_lp`'s LP, row
  for row and column for column;
* the kernel built from integer rows equals the kernel built from the
  rational rows as the rational entry points convert them
  (:func:`~repro.lp.solve.scale_rows`): ``cols``, ``b_int``, ``c_int``
  and ``scales``, and both are the integers an independent per-row lcm
  scaling gives;
* the float leg's image (:func:`~repro.lp.scipy_backend.float_entries`)
  and the ``HighsLp`` of :func:`~repro.lp.scipy_backend.highs_model` are,
  bit for bit, the floats of the rational rows;
* the crash's tight-row flags, the exact point check, solve results and
  Farkas certificates are the same from the integer rows and from the
  rational rows through :func:`~repro.lp.solve.solve_rows` and
  :func:`~repro.lp.solve.feasible_point_rows`;
* Theorem V.2 builds no :class:`~repro.lp.model.LinearProgram`.
"""

from fractions import Fraction
from math import lcm

import pytest

from _int_rows import rational, same_result, scaled
from repro._fraction import INF, is_inf
from repro.core.approx import two_approximation
from repro.core.instance import Instance
from repro.core.laminar import LaminarFamily
from repro.core.memory import _memory_builder, _model1_rows, _model2_rows
from repro.core.programs import IP3Builder, minimal_fractional_T
from repro.lp import HAVE_SCIPY, LinearProgram
from repro.lp.revised import (
    _TIGHT_EPS,
    _RevisedSolver,
    _tight_rows,
    solve_standard,
    standard_form,
)
from repro.lp.solve import check_standard_rows, feasible_point_rows, solve_rows
from repro.rounding.lst import IntegerTimes, build_unrelated_lp, unrelated_rows
from repro.workloads import monotone_instance, random_hierarchical, rng_from_seed

SHAPES = [(16, 6), (24, 8), (64, 16), (96, 24)]


def _fractional(inst: Instance) -> Instance:
    """*inst* with each job's times scaled by its own rational factor
    (monotonicity survives a positive per-job factor)."""
    processing = {
        j: {
            alpha: inst.p(j, alpha) * Fraction(1 + j % 3, 3 + j % 2)
            for alpha in inst.family.sets
            if not is_inf(inst.p(j, alpha))
        }
        for j in range(inst.n)
    }
    return Instance(inst.family, processing)


def _draw(n, m, seed, fractional=False):
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    if fractional:
        inst = _fractional(inst)
    return inst.with_singletons()


DRAWS = {
    f"{n}x{m}-s{seed}{'-frac' if frac else ''}": (n, m, seed, frac)
    for n, m in SHAPES
    for seed, frac in ((1, False), (2, True))
}


@pytest.fixture(scope="module")
def draws():
    """Per draw: the extended instance, its builder and ``T*``."""
    out = {}
    for name, (n, m, seed, frac) in DRAWS.items():
        ext = _draw(n, m, seed, frac)
        out[name] = (ext, IP3Builder(ext), minimal_fractional_T(ext))
    return out


@pytest.fixture(params=["native"])
def int_path(request):
    """The kernel's integer type, the built-in ``int``; the one param keeps
    the ``native`` test ids."""
    return request.param


def _collapse(ext: Instance):
    """The singleton times as a ``job -> {machine: time}`` matrix."""
    return {
        j: {
            i: ext.p(j, frozenset([i]))
            for i in sorted(ext.machines)
            if not is_inf(ext.p(j, frozenset([i])))
        }
        for j in range(ext.n)
    }


def _lst_horizons(builder: IP3Builder, t_star: Fraction):
    """``T*``, below every time, at and between breakpoints and above them
    all."""
    points = builder.breakpoints
    yield t_star
    yield points[0] / 2
    yield t_star * Fraction(2, 3)
    mid = len(points) // 2
    yield points[mid]
    yield (points[mid - 1] + points[mid]) / 2
    yield points[-1] + Fraction(1, 3)


#: Zero times, INF pairs, a machine no job can use and fractional times.
EDGE = Instance.unrelated([
    [0, 3, INF, Fraction(5, 2)],
    [Fraction(1, 2), 0, INF, 4],
    [2, INF, INF, 0],
    [Fraction(7, 3), 1, INF, INF],
    [0, 0, INF, Fraction(3, 4)],
])


def _ordered(rows):
    return [list(row.items()) for row in rows]


def _raw_scales(rows, rhs):
    """Each rational row's scale: the lcm of its denominators."""
    return [
        lcm(Fraction(b).denominator, *(Fraction(v).denominator for v in row.values()))
        for row, b in zip(rows, rhs)
    ]


@pytest.mark.parametrize("name", sorted(DRAWS) + ["edge"])
def test_lst_slice_is_build_unrelated_lp(name, draws):
    if name == "edge":
        ext = EDGE
        builder, t_star = IP3Builder(ext), minimal_fractional_T(ext)
        assert 0 in builder.var_p and builder.denominator > 1
    else:
        ext, builder, t_star = draws[name]
    p = _collapse(ext)
    times = builder.singleton_times()
    empty_row = missing_machine = False
    for T in _lst_horizons(builder, t_star):
        rows, senses, rhs, scales, pairs = unrelated_rows(times, T)
        assert (rows, senses, rhs, scales, pairs) == unrelated_rows(
            IntegerTimes.from_matrix(p), T
        )
        ref = build_unrelated_lp(p, T)
        ref_rows, ref_senses, ref_rhs, ref_objective = ref.to_standard_rows()
        frac_rows, frac_rhs = rational(rows, rhs, scales)
        assert _ordered(frac_rows) == _ordered(ref_rows)
        assert (senses, frac_rhs) == (ref_senses, ref_rhs)
        assert [("x", i, j) for i, j in pairs] == list(ref.variable_keys)
        assert ref_objective == [0] * len(pairs)
        assert scales == _raw_scales(ref_rows, ref_rhs)
        empty_row |= {} in rows[: ext.n]
        missing_machine |= len(rows) < ext.n + ext.m
    assert empty_row and missing_machine


def _kernel(rows, senses, rhs, objective, scales):
    std = standard_form(rows, senses, rhs, objective, scales)
    return _RevisedSolver(std, objective, partial=False)


def _assert_same_kernel(program):
    """The kernel from the integer rows, from their rational read-back as
    the rational entry points scale it, and from an independent per-row
    lcm scaling of the normalized rows."""
    rows, senses, rhs, scales, objective = program
    frac_rows, frac_rhs = rational(rows, rhs, scales)
    via_int = _kernel(rows, senses, rhs, objective, scales)
    via_frac = _kernel(*scaled(frac_rows, senses, frac_rhs, [Fraction(c) for c in objective]))
    assert via_int.cols == via_frac.cols
    assert via_int.col_items == via_frac.col_items
    assert via_int.row_items == via_frac.row_items
    assert via_int.b_int == via_frac.b_int
    assert via_int.c_int == via_frac.c_int
    assert via_int.scales == via_frac.scales == scales == _raw_scales(frac_rows, frac_rhs)
    for i, (row, b, scale) in enumerate(zip(frac_rows, frac_rhs, scales)):
        sign = -1 if b < 0 else 1
        assert via_int.b_int[i] == sign * b * scale
        for j, v in row.items():
            assert via_int.cols[j][i] == sign * v * scale
    assert via_int._basis_cls is via_frac._basis_cls
    assert via_int._basis_args == via_frac._basis_args


def _programs(builder: IP3Builder, t_star: Fraction):
    """``(rows, senses, rhs, scales, objective)`` of every builder LP kind."""
    rows, senses, rhs, scales, pairs = unrelated_rows(builder.singleton_times(), t_star)
    yield rows, senses, rhs, scales, [0] * len(pairs)
    points = builder.breakpoints
    for T in (t_star, points[-1], (points[0] + points[-1]) / 3):
        rows, senses, rhs, scales, active = builder.probe_rows(T)
        yield rows, senses, rhs, scales, [0] * len(active)
    for anchor in (points[-1], t_star):
        program = builder.min_T_rows(anchor, anchor * Fraction(2, 3))
        if program is not None:
            yield program[:5]


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_kernel_integers_either_entry(name, draws, int_path):
    _ext, builder, t_star = draws[name]
    fractional_rows = False
    for program in _programs(builder, t_star):
        _assert_same_kernel(program)
        fractional_rows |= any(s > 1 for s in program[3])
    assert fractional_rows


def _memory_builders():
    """Model 1 (integer space rows) and Model 2 (sizes in eighths) builders."""
    rng = rng_from_seed(1007)
    inst = monotone_instance(rng, LaminarFamily.clustered(4, 2), n=6)
    space = [[int(rng.integers(1, 4)) for _ in range(4)] for _ in range(6)]
    budgets = {i: 4 for i in range(4)}
    yield _memory_builder(inst, lambda T: _model1_rows(inst, space, budgets, T))
    family = LaminarFamily(range(4), [[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]])
    inst = monotone_instance(rng_from_seed(2001), family, n=6)
    sizes = [Fraction(1 + k % 4, 8) for k in range(6)]
    yield _memory_builder(inst, lambda T: _model2_rows(inst, sizes, Fraction(3, 2), T)[:2])


def test_memory_side_rows_either_entry(int_path):
    for builder in _memory_builders():
        assert builder.side_template
        loads = len(builder.assign_template) + len(builder.load_template)
        for T in builder.breakpoints:
            rows, senses, rhs, scales, active = builder.probe_rows(T)
            assert len(rows) == loads + len(builder.side_template)
            _assert_same_kernel((rows, senses, rhs, scales, [0] * len(active)))
            program = builder.min_T_rows(T, T)
            if program is not None:
                _assert_same_kernel(program[:5])


def _reference_tight(rows, senses, rhs, point):
    """The tight-row flags computed on the rational rows."""
    flags = []
    fpoint = [float(v) for v in point]
    for row, sense, b in zip(rows, senses, rhs):
        if sense == "==":
            flags.append(True)
            continue
        activity = 0.0
        for j, v in row.items():
            if fpoint[j]:
                activity += float(v) * fpoint[j]
        fb = float(b)
        flags.append(abs(activity - fb) <= _TIGHT_EPS * max(1.0, abs(fb)))
    return flags


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_solves_flags_and_certificates_either_entry(name, draws, int_path):
    _ext, builder, t_star = draws[name]
    times = builder.singleton_times()
    flagged = set()
    for T in (t_star, t_star * Fraction(9, 10)):
        rows, senses, rhs, scales, pairs = unrelated_rows(times, T)
        frac_rows, frac_rhs = rational(rows, rhs, scales)
        objective = [0] * len(pairs)
        frac_objective = [Fraction(0)] * len(pairs)
        via_int = solve_standard(rows, senses, rhs, objective, scales)
        via_frac = solve_rows(frac_rows, senses, frac_rhs, frac_objective)
        same_result(via_int, via_frac)
        if T != t_star:
            assert via_int.status == "infeasible" and via_int.farkas is not None
            continue
        assert via_int.status == "optimal"
        # The optimum and a perturbed copy: rows tight at one, slack at the other.
        noisy = [v * (1 + Fraction(1, 10**6)) if v else v for v in via_int.x]
        for point, feasible in ((via_int.x, True), (noisy, False)):
            assert check_standard_rows(rows, senses, rhs, point) is feasible
            assert check_standard_rows(frac_rows, senses, frac_rhs, point) is feasible
            flags = _tight_rows(rows, senses, rhs, scales, point)
            assert flags == _reference_tight(frac_rows, senses, frac_rhs, point)
            flagged.update(flags)
        warm = solve_standard(rows, senses, rhs, objective, scales, warm_point=noisy)
        same_result(
            warm, solve_rows(frac_rows, senses, frac_rhs, frac_objective, warm_point=noisy)
        )
    assert flagged == {True, False}
    # The last breakpoint below T* where every job has a pair: an LP
    # infeasibility, certified the same way.
    below = max(
        t for t in builder.breakpoints if t < t_star and builder.mask(t) >= builder.full_mask
    )
    rows, senses, rhs, scales, active = builder.probe_rows(below)
    frac_rows, frac_rhs = rational(rows, rhs, scales)
    via_int = solve_standard(rows, senses, rhs, [0] * len(active), scales)
    assert via_int.status == "infeasible" and via_int.farkas is not None
    same_result(
        via_int, solve_rows(frac_rows, senses, frac_rhs, [Fraction(0)] * len(active))
    )


@pytest.mark.skipif(not HAVE_SCIPY, reason="the float leg needs scipy")
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_float_leg_either_entry(name, draws):
    import numpy as np

    from repro.lp.hybrid import certify_infeasible
    from repro.lp.scipy_backend import float_entries, highs_model

    _ext, builder, t_star = draws[name]
    for rows, senses, rhs, scales, objective in _programs(builder, t_star):
        frac_rows, frac_rhs = rational(rows, rhs, scales)
        flip = [sense == ">=" for sense in senses]
        # The float image of the rational rows, entry by entry.
        reference = [
            (i, j, -float(v) if negate else float(v))
            for i, (row, negate) in enumerate(zip(frac_rows, flip))
            for j, v in row.items()
            if v
        ]
        row, col, data = float_entries(rows, scales, flip)
        assert list(zip(row.tolist(), col.tolist())) == [(i, j) for i, j, _v in reference]
        assert data.tobytes() == np.array([v for _i, _j, v in reference]).tobytes()
        lp, order = highs_model(rows, senses, rhs, objective, scales)
        # HiGHS rows: the inequality rows, then the equality rows.
        assert order == [i for i, s in enumerate(senses) if s != "=="] + [
            i for i, s in enumerate(senses) if s == "=="
        ]
        position = {i: k for k, i in enumerate(order)}
        by_col = sorted(reference, key=lambda entry: (entry[1], position[entry[0]]))
        matrix = lp.a_matrix_
        assert np.array_equal(matrix.index_, [position[i] for i, _j, _v in by_col])
        assert np.asarray(matrix.value_).tobytes() == np.array([v for _i, _j, v in by_col]).tobytes()
        b_raw = [-float(b) if sense == ">=" else float(b) for b, sense in zip(frac_rhs, senses)]
        upper = [b_raw[i] for i in order]
        lower = [b_raw[i] if senses[i] == "==" else -np.inf for i in order]
        assert np.asarray(lp.row_upper_, dtype=float).tobytes() == np.array(upper).tobytes()
        assert np.asarray(lp.row_lower_, dtype=float).tobytes() == np.array(lower).tobytes()
    rows, senses, rhs, scales, pairs = unrelated_rows(
        builder.singleton_times(), t_star * Fraction(9, 10)
    )
    frac_rows, frac_rhs = rational(rows, rhs, scales)
    farkas = certify_infeasible(rows, senses, rhs, scales, num_vars=len(pairs))
    assert farkas is not None
    assert (None, farkas) == feasible_point_rows(frac_rows, senses, frac_rhs, len(pairs))


@pytest.mark.parametrize("backend", ["exact", "hybrid"])
def test_two_approximation_builds_no_linear_program(monkeypatch, backend):
    built = []
    init = LinearProgram.__init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(LinearProgram, "__init__", counting)
    for n, m in SHAPES[:2]:
        for seed in (1, 2):
            result = two_approximation(
                random_hierarchical(rng_from_seed(seed), n=n, m=m), backend=backend
            )
            assert result.makespan <= 2 * result.T_lp
    assert built == []
    build_unrelated_lp({0: {0: 1}}, 1)  # the counter sees the keyed builder
    assert len(built) == 1

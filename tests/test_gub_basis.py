"""Lockstep differential tests: the GUB basis against LUBasis.

:class:`repro.lp.gub.GUBBasis` keeps (IP-3)'s assignment rows implicit and
must return exactly the integers :class:`repro.lp.basis.LUBasis` returns —
``den``, ``rhs``, ``ftran``, ``btran`` and ``row_dot`` — after every
pivot, so that every pricing, ratio-test, crash and Farkas decision of the
revised simplex is unchanged.  These tests step both bases through the
same pivots:

* real solves of seeded probe, min-T and Model 1/2 side-row programs at
  16×6, 24×8 and 64×16 (canonical and partial pricing), through a
  :class:`_Lockstep` basis that drives both and compares every call, with
  results equal to the solve on ``LUBasis``;
* the three update cases (a non-key leaves, a key leaves and is swapped
  for a non-key of its row, a key leaves alone), a crash hit, a crash onto
  an infeasible dictionary followed by ``reset()``, the switch to Bland's
  rule and an infeasible probe's Farkas certificate;
* random pivots on small GUB-structured matrices, which hit every case
  many times.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from _int_rows import same_result

from repro.core.memory import _memory_builder, _model1_rows, _model2_rows
from repro.core.programs import IP3Builder, minimal_fractional_T
from repro.lp import revised
from repro.lp.basis import LUBasis
from repro.lp.gub import GUBBasis, gub_rows
from repro.lp.revised import _RevisedSolver, solve_standard, standard_form
from repro.workloads import random_hierarchical, rng_from_seed

SHAPES = [(16, 6), (24, 8), (64, 16)]


def _case(gub, row):
    """Which update case a pivot on position *row* is."""
    if gub.spos[row] >= 0:
        return "non-key"
    return "key-swap" if gub.members[gub.kgroup[row]] else "lone-key"


def _assert_same(gub, lu, cols, costs, rows=None):
    """Equal den, rhs, ftran and btran, and row_dot on the first column
    (in *rows*, default every row)."""
    assert gub.den == lu.den
    assert gub.rhs == lu.rhs
    for n, col in enumerate(cols):
        alpha = gub.ftran(col)
        assert alpha == lu.ftran(col)
        if n == 0:
            for row in range(gub.m) if rows is None else rows:
                assert gub.row_dot(row, col) == alpha[row] == lu.row_dot(row, col)
    for cb in costs:
        assert gub.btran(cb) == lu.btran(cb)


class _Lockstep:
    """A basis that drives GUBBasis and LUBasis together.

    Every call the solver makes is answered by both and compared; after
    every pivot the two are also compared on the entering column (its
    ``row_dot`` on the pivot row and eight others), two other columns and
    two cost vectors.
    """

    kind = "gub"
    #: Columns of the solve under test (set by the fixture).
    pool = ()
    seen = Counter()

    def __init__(self, m, b, groups):
        self.gub = GUBBasis(m, b, groups)
        self.lu = LUBasis(m, b)
        self.rng = random.Random(m)
        type(self).seen["bases"] += 1

    @property
    def den(self):
        assert self.gub.den == self.lu.den
        return self.gub.den

    @property
    def rhs(self):
        assert self.gub.rhs == self.lu.rhs
        return self.gub.rhs

    @property
    def updates(self):
        assert self.gub.updates == self.lu.updates
        return self.gub.updates

    @updates.setter
    def updates(self, value):
        self.gub.updates = self.lu.updates = value

    def ftran(self, col):
        alpha = self.gub.ftran(col)
        assert alpha == self.lu.ftran(col)
        return alpha

    def btran(self, basic_costs):
        y = self.gub.btran(basic_costs)
        assert y == self.lu.btran(basic_costs)
        return y

    def row_dot(self, row, col):
        value = self.gub.row_dot(row, col)
        assert value == self.lu.row_dot(row, col)
        return value

    def update(self, row, alpha, col):
        type(self).seen[_case(self.gub, row)] += 1
        self.gub.update(row, alpha, col)
        self.lu.update(row, alpha, col)
        type(self).seen["pivots"] += 1
        m = self.gub.m
        pool = self.pool
        sample = [col] + [pool[j] for j in self.rng.sample(range(len(pool)), min(2, len(pool)))]
        costs = [
            {i: 1 for i in range(0, m, 2)},
            {i: self.rng.randrange(-3, 4) for i in range(m)},
        ]
        rows = [row] + self.rng.sample(range(m), min(8, m))
        _assert_same(self.gub, self.lu, sample, costs, rows)


@pytest.fixture(params=["native"])
def lockstep(monkeypatch):
    """Run GUB-eligible solves on :class:`_Lockstep`; yield its counters.

    The one param, the built-in ``int``, keeps the ``native`` test ids.
    """
    original_init = _RevisedSolver.__init__
    original_reset = _RevisedSolver.reset

    # The solver builds the basis at the end of __init__, before the pool
    # is known, but updates only after it returns.
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        _Lockstep.pool = self.cols

    def reset(self):
        kind, updates = type(self.lub), self.pivots
        _Lockstep.seen["reset"] += 1
        original_reset(self)
        assert type(self.lub) is kind and self.lub.updates == updates

    monkeypatch.setattr(revised, "GUBBasis", _Lockstep)
    monkeypatch.setattr(_RevisedSolver, "__init__", init)
    monkeypatch.setattr(_RevisedSolver, "reset", reset)
    _Lockstep.seen = Counter()
    yield _Lockstep.seen


def _on_lu(fn):
    """Run *fn* with no row kept implicit: the solve runs on LUBasis."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(revised, "gub_rows", lambda row_items: [])
        return fn()


def _solve_both(seen, program, **kwargs):
    """Solve *program* in lockstep and on LUBasis; the results must agree."""
    before = seen["pivots"]
    result = solve_standard(*program, **kwargs)
    assert seen["pivots"] - before == result.pivots
    same_result(result, _on_lu(lambda: solve_standard(*program, **kwargs)))
    return result


def _search_programs(n, m, seed):
    """Probe and min-T programs of a seeded draw, as kernel inputs, with
    ``T*``: probes at the top breakpoint, at ``T*`` and below it (infeasible),
    min-T LPs anchored at the top breakpoint and at ``T*``."""
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    builder = IP3Builder(inst)
    t_star = minimal_fractional_T(inst, backend="exact", builder=builder)
    probes = []
    for T in (builder.breakpoints[-1], t_star, t_star * Fraction(9, 10)):
        rows, senses, rhs, scales, active = builder.probe_rows(T)
        probes.append((rows, senses, rhs, [0] * len(active), scales))
    min_ts = []
    for anchor in (builder.breakpoints[-1], t_star):
        program = builder.min_T_rows(anchor, anchor * Fraction(2, 3))
        assert program is not None
        rows, senses, rhs, scales, objective, _active = program
        min_ts.append((rows, senses, rhs, objective, scales))
    return probes, min_ts


def _memory_programs(n, m, seed, horizons):
    """Probe and min-T programs of Model 1 and Model 2 side-row builders,
    at the top breakpoint and (``horizons=2``) a middle one."""
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    rng = random.Random(seed)
    machines = sorted(inst.machines)
    space = [{i: rng.randrange(1, 4) for i in machines} for _ in range(n)]
    budgets = {i: 2 * n // m + 3 for i in machines}
    sizes = [Fraction(rng.randrange(1, 9), 8) for _ in range(n)]
    builders = [
        _memory_builder(inst, lambda T: _model1_rows(inst, space, budgets, T)),
        _memory_builder(inst, lambda T: _model2_rows(inst, sizes, Fraction(3, 2), T)[:2]),
    ]
    for builder in builders:
        assert builder.side_template
        points = builder.breakpoints
        for T in (points[-1], points[len(points) // 2])[:horizons]:
            rows, senses, rhs, scales, active = builder.probe_rows(T)
            yield rows, senses, rhs, [0] * len(active), scales
            program = builder.min_T_rows(T, T * Fraction(2, 3))
            if program is not None:
                rows, senses, rhs, scales, objective, _active = program
                yield rows, senses, rhs, objective, scales


class TestSearchLockstep:
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_probes_and_min_T(self, lockstep, n, m):
        probes, min_ts = _search_programs(n, m, 100 + n)
        statuses = []
        for program in probes + min_ts:
            for canonical in (True, False):
                result = _solve_both(lockstep, program, canonical=canonical)
                statuses.append(result.status)
                # The probe below T*: its Farkas vector matches LUBasis'.
                assert (result.status == "infeasible") == (result.farkas is not None)
        assert statuses.count("infeasible") == 2 and "optimal" in statuses
        assert lockstep["non-key"] and lockstep["key-swap"] and lockstep["lone-key"]

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_memory_side_rows(self, lockstep, n, m):
        # At 64×16 one horizon under canonical pricing bounds the time: the
        # LUBasis side of the lockstep is most of it.
        large = n >= 64
        solved = 0
        for program in _memory_programs(n, m, 200 + n, 1 if large else 2):
            for canonical in (True,) if large else (True, False):
                _solve_both(lockstep, program, canonical=canonical)
                solved += 1
        assert solved >= 4 and lockstep["pivots"] > 0
        assert lockstep["key-swap"] and lockstep["lone-key"]


class TestWarmAndBland:
    def test_crash_hit_and_reset_fallback(self, lockstep):
        _, min_ts = _search_programs(24, 8, 7)
        program = min_ts[1]
        cold = _solve_both(lockstep, program)
        # The optimum itself: the crash factorizes its support and skips
        # phase 1.
        warm = _solve_both(lockstep, program, warm_point=cold.x)
        assert warm.stats.warm_start_hits == 1
        assert warm.objective == cold.objective
        # Every job on its last column and T = 0 overloads every load row:
        # the crash lands on an infeasible dictionary, reset() restarts from
        # the identity basis and the support is pushed in by ratio tests.
        coeff_rows, senses, _rhs, objective, _scales = program
        bad = [Fraction(0)] * len(objective)
        for row, sense in zip(coeff_rows, senses):
            if sense == "==":
                bad[max(row)] = Fraction(1)
        assert lockstep["reset"] == 0
        repaired = _solve_both(lockstep, program, warm_point=bad)
        assert repaired.stats.warm_start_attempts == 1
        assert repaired.stats.warm_start_hits == 0
        assert repaired.status == "optimal"
        assert repaired.objective == cold.objective
        assert lockstep["reset"] == 2  # the lockstep solve and the LUBasis one

    @pytest.mark.parametrize("n, m", SHAPES[:2])
    def test_bland_switch_mid_solve(self, lockstep, monkeypatch, n, m):
        _, min_ts = _search_programs(n, m, 300 + n)
        program = min_ts[1]
        pivots = _on_lu(lambda: solve_standard(*program)).pivots
        monkeypatch.setattr(revised, "BLAND_THRESHOLD", pivots // 3)
        result = _solve_both(lockstep, program)
        assert result.status == "optimal"
        assert result.pivots > pivots // 3


class TestStructure:
    def test_gub_rows_greedy_and_disjoint(self):
        rows = [
            [(0, 1), (1, 1)],  # taken
            [(1, 1), (2, 1)],  # shares column 1 with row 0
            [(2, 1), (3, 1), (4, 0)],  # taken: a zero entry is no support
            [(5, 2), (6, 1)],  # an entry other than +1
            [(7, 1), (8, -1)],  # a surplus column
            [],  # only its artificial
        ]
        assert gub_rows(rows) == [0, 2, 5]

    def test_search_lps_run_on_gub_and_reset_keeps_it(self):
        probes, min_ts = _search_programs(16, 6, 1)
        for program in (probes[0], min_ts[0]):
            std = standard_form(*program)
            solver = _RevisedSolver(std, program[3], partial=False)
            assert solver.lub.kind == "gub"
            n_assign = program[1].count("==")
            assert solver.lub.groups == list(range(n_assign))
            solver.phase = 1
            col = next(j for j in range(solver.std.art_start) if solver.cols[j])
            alpha = solver.lub.ftran(solver.cols[col])
            row = next(r for r in range(solver.m) if alpha[r])
            solver._pivot(row, alpha, col)
            solver.reset()
            assert type(solver.lub) is GUBBasis and solver.lub.updates == 1

    def test_lone_key_exchange_needs_its_row(self):
        from repro.exceptions import SolverError

        basis = GUBBasis(2, [1, 3], [0])
        col = {1: 2}  # in the other row only
        alpha = basis.ftran(col)
        assert alpha[0] == 0
        with pytest.raises(SolverError):
            basis.update(0, alpha, col)


def _random_program(rng, groups, others):
    """A random pool of columns over ``groups`` GUB rows and ``others``
    other rows: each column is +1 in at most one GUB row."""
    m = groups + others
    pool = []
    for _ in range(4 * m):
        col = {}
        if rng.random() < 0.85:
            col[rng.randrange(groups)] = 1
        for i in rng.sample(range(groups, m), rng.randrange(0, min(3, others) + 1)):
            col[i] = rng.choice([-3, -2, -1, 1, 2, 5])
        if col:
            pool.append(col)
    return m, pool


@pytest.mark.parametrize("seed", range(10))
def test_random_pivots_hit_every_case(seed):
    rng = random.Random(seed)
    seen = Counter()
    for _trial in range(6):
        groups, others = rng.randrange(1, 6), rng.randrange(0, 4)
        m, pool = _random_program(rng, groups, others)
        b = [rng.randrange(0, 9) for _ in range(m)]
        gub, lu = GUBBasis(m, b, range(groups)), LUBasis(m, b)
        for _step in range(40):
            col = rng.choice(pool)
            alpha = gub.ftran(col)
            assert alpha == lu.ftran(col)
            rows = [r for r in range(m) if alpha[r]]
            if not rows:
                continue
            row = rng.choice(rows)
            seen[_case(gub, row)] += 1
            gub.update(row, alpha, col)
            lu.update(row, alpha, col)
            costs = [{i: rng.randrange(-3, 4) for i in range(m)}, {0: 1}]
            _assert_same(gub, lu, pool[:3], costs)
    assert set(seen) == {"non-key", "key-swap", "lone-key"}

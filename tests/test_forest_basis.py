"""Lockstep differential tests: the pseudo-forest basis against LUBasis.

:class:`repro.lp.forest.ForestBasis` must return exactly the integers
:class:`repro.lp.basis.LUBasis` returns — ``den``, ``rhs``, ``ftran``,
``btran`` and ``row_dot`` — after every pivot, so that every pricing,
ratio-test, crash and Farkas decision of the revised simplex is unchanged.
These tests step both bases through the same pivots:

* real solves of seeded LST LPs from 16×6 to 64×16 (cold, crashed from a
  warm point, and crashed onto an infeasible dictionary so ``reset()``
  runs), through a :class:`_Lockstep` basis that drives both and compares
  every call;
* a hand-built pivot sequence that hits each of the four leaving cases,
  and random generalized-network pivots that hit all of them many times;
* the edge cases: a zero ``p_ij`` (a one-entry structural column), an
  infeasible LST LP whose Farkas certificate must match, and a
  ``PivotLimitError`` in the middle of a solve.

IP-3 probe and min-T LPs have columns with more than two non-zeros and
run on :class:`repro.lp.gub.GUBBasis` (``tests/test_gub_basis.py``).
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from _int_rows import lst_rows, min_T_rows, probe_rows, same_result, scaled

from repro._fraction import is_inf
from repro.core.programs import IP3Builder, minimal_fractional_T
from repro.exceptions import PivotLimitError
from repro.lp import revised, solve_lp
from repro.lp.basis import LUBasis
from repro.lp.forest import ForestBasis
from repro.lp.gub import GUBBasis
from repro.lp.revised import _RevisedSolver, solve_standard, standard_form
from repro.rounding.lst import build_unrelated_lp
from repro.runner.budget import pivot_cap
from repro.workloads import random_hierarchical, rng_from_seed


def _leaving_case(forest, row):
    """Which of the four leaving cases a pivot on *row* is."""
    o = forest.owner[row]
    if forest.par[o] < 0:
        return "loop-root" if forest.cyc[o] < 0 else "cycle-root"
    r = forest._top(o)
    u = forest.cyc[r]
    while u >= 0 and u != r:
        if u == o:
            return "on-cycle"
        u = forest.par[u]
    return "off-cycle"


def _assert_same(forest, lu, cols, costs):
    """Equal den, rhs, ftran, btran and row_dot on *cols* and *costs*."""
    assert forest.den == lu.den
    assert forest.rhs == lu.rhs
    for col in cols:
        alpha = forest.ftran(col)
        assert alpha == lu.ftran(col)
        for row in range(forest.m):
            assert forest.row_dot(row, col) == alpha[row] == lu.row_dot(row, col)
    for cb in costs:
        # On a copy: the solve's own btran calls keep the dual cache's
        # incremental path.
        assert copy.deepcopy(forest).btran(cb) == lu.btran(cb)


class _Lockstep:
    """A basis that drives ForestBasis and LUBasis together.

    Every call the solver makes is answered by both and compared; after
    every pivot the two are also compared on the entering column, a few
    other columns and two cost vectors.
    """

    kind = "forest"
    #: Columns of the solve under test (set by the fixture).
    pool = ()
    seen = Counter()

    def __init__(self, m, b):
        self.forest = ForestBasis(m, b)
        self.lu = LUBasis(m, b)
        self.rng = random.Random(m)

    @property
    def den(self):
        assert self.forest.den == self.lu.den
        return self.forest.den

    @property
    def rhs(self):
        assert self.forest.rhs == self.lu.rhs
        return self.forest.rhs

    @property
    def updates(self):
        assert self.forest.updates == self.lu.updates
        return self.forest.updates

    @updates.setter
    def updates(self, value):
        self.forest.updates = self.lu.updates = value

    def ftran(self, col):
        alpha = self.forest.ftran(col)
        assert alpha == self.lu.ftran(col)
        return alpha

    def btran(self, basic_costs):
        y = self.forest.btran(basic_costs)
        assert y == self.lu.btran(basic_costs)
        return y

    def row_dot(self, row, col):
        value = self.forest.row_dot(row, col)
        assert value == self.lu.row_dot(row, col)
        return value

    def update(self, row, alpha, col):
        type(self).seen[_leaving_case(self.forest, row)] += 1
        self.forest.update(row, alpha, col)
        self.lu.update(row, alpha, col)
        type(self).seen["pivots"] += 1
        m = self.forest.m
        sample = [col] + self.rng.sample(list(self.pool), min(3, len(self.pool)))
        costs = [
            {i: 1 for i in range(0, m, 2)},
            {i: self.rng.randrange(-3, 4) for i in range(m)},
        ]
        _assert_same(self.forest, self.lu, sample, costs)


@pytest.fixture
def lockstep(monkeypatch):
    """Run forest-eligible solves on :class:`_Lockstep`; yield its counters."""
    original_init = _RevisedSolver.__init__

    # The solver builds the basis at the end of __init__, before the pool
    # is known, but updates only after it returns.
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        _Lockstep.pool = self.cols

    monkeypatch.setattr(revised, "ForestBasis", _Lockstep)
    monkeypatch.setattr(_RevisedSolver, "__init__", init)
    _Lockstep.seen = Counter()
    yield _Lockstep.seen


def _force_lu(monkeypatch):
    monkeypatch.setattr(revised, "ForestBasis", LUBasis)


class TestLSTLockstep:
    @pytest.mark.parametrize(
        "n, m, seed", [(16, 6, 1), (16, 6, 2), (24, 8, 3), (32, 10, 4), (64, 16, 5)]
    )
    def test_cold_solve(self, lockstep, monkeypatch, n, m, seed):
        rows = scaled(*lst_rows(n, m, seed))
        result = solve_standard(*rows)
        assert result.status == "optimal"
        assert lockstep["pivots"] == result.pivots > 0
        monkeypatch.undo()
        _force_lu(monkeypatch)
        same_result(result, solve_standard(*rows))

    @pytest.mark.parametrize("n, m, seed", [(16, 6, 6), (24, 8, 7)])
    def test_crash_hit_and_reset_fallback(self, lockstep, n, m, seed):
        rows = scaled(*lst_rows(n, m, seed))
        cold = solve_standard(*rows)
        # The optimum itself: the crash factorizes its support and skips
        # phase 1.
        warm = solve_standard(*rows, warm_point=cold.x)
        assert warm.stats.warm_start_hits == 1
        assert warm.objective == cold.objective
        # Every job on its highest-numbered machine overloads a load row: the
        # crash lands on an infeasible dictionary, reset() restarts from
        # the identity basis and the support is pushed in by ratio tests.
        coeff_rows, senses, _rhs, objective, _scales = rows
        n_assign = senses.count("==")
        bad = [Fraction(0)] * len(objective)
        for row in coeff_rows[:n_assign]:
            if row:
                bad[max(row)] = Fraction(1)
        before = lockstep["pivots"]
        repaired = solve_standard(*rows, warm_point=bad)
        assert repaired.stats.warm_start_attempts == 1
        assert repaired.stats.warm_start_hits == 0
        assert repaired.status == "optimal"
        assert lockstep["pivots"] - before == repaired.pivots

    def test_hybrid_backend_lst(self, lockstep):
        from repro.rounding.lst import lst_round

        inst = random_hierarchical(rng_from_seed(8), n=24, m=8).with_singletons()
        T = minimal_fractional_T(inst, backend="hybrid")
        p = {
            j: {
                i: inst.p(j, frozenset([i]))
                for i in sorted(inst.machines)
                if not is_inf(inst.p(j, frozenset([i])))
            }
            for j in range(inst.n)
        }
        assert len(lst_round(p, T, backend="hybrid")) == inst.n
        assert lockstep["pivots"] > 0

    def test_zero_processing_time(self, lockstep, monkeypatch):
        # A zero p_ij leaves x_ij with one non-zero: a loop root edge.
        p = {
            0: {0: 0, 1: 3},
            1: {0: 2, 1: 0},
            2: {0: 4, 1: 5},
            3: {0: 0, 1: 0},
            4: {0: 3, 1: 2},
        }
        lp = build_unrelated_lp(p, Fraction(4))
        rows = scaled(*lp.to_standard_rows())
        assert any(
            sum(1 for r in rows[0] if r.get(j)) == 1
            for j in range(lp.num_variables)
        )
        result = solve_standard(*rows)
        assert result.status == "optimal" and lockstep["pivots"]
        monkeypatch.undo()
        _force_lu(monkeypatch)
        same_result(result, solve_standard(*rows))
        assert solve_lp(lp, backend="exact").status == "optimal"

    def test_infeasible_farkas_matches(self, lockstep, monkeypatch):
        rows = scaled(*lst_rows(16, 6, 9, scale_T=Fraction(1, 2)))
        result = solve_standard(*rows)
        assert result.status == "infeasible" and result.farkas is not None
        assert lockstep["pivots"]
        monkeypatch.undo()
        _force_lu(monkeypatch)
        same_result(result, solve_standard(*rows))

    def test_pivot_limit_mid_solve(self, lockstep, monkeypatch):
        rows = scaled(*lst_rows(16, 6, 10))
        budget = solve_standard(*rows).pivots // 2
        with pytest.raises(PivotLimitError) as forest_err, pivot_cap(budget):
            solve_standard(*rows)
        monkeypatch.undo()
        _force_lu(monkeypatch)
        with pytest.raises(PivotLimitError) as lu_err, pivot_cap(budget):
            solve_standard(*rows)
        got = forest_err.value
        assert (got.budget, got.pivots, got.phase) == (
            lu_err.value.budget, lu_err.value.pivots, lu_err.value.phase,
        )


def _pivot(forest, lu, row, col):
    alpha = forest.ftran(col)
    assert alpha == lu.ftran(col) and alpha[row] != 0
    case = _leaving_case(forest, row)
    forest.update(row, alpha, col)
    lu.update(row, alpha, col)
    return case


class TestLeavingCases:
    # Four rows; three edges close the triangle 0–1–2, one hangs row 3.
    E01 = {0: 1, 1: 2}
    E12 = {1: 3, 2: 1}
    E02 = {0: 2, 2: -5}
    E23 = {2: 1, 3: 4}
    LOOP1 = {1: 1}
    B = [3, 1, 4, 2]

    def _cycle_basis(self):
        forest, lu = ForestBasis(4, self.B), LUBasis(4, self.B)
        cases = [
            _pivot(forest, lu, 0, self.E01),
            _pivot(forest, lu, 1, self.E12),
            _pivot(forest, lu, 3, self.E23),
            _pivot(forest, lu, 2, self.E02),
        ]
        # Unit loops leave first; the last edge closes the triangle.
        assert cases == ["loop-root"] * 4
        assert sum(1 for v in range(4) if forest.par[v] < 0) == 1
        root = forest._top(0)
        assert forest.cyc[root] >= 0
        return forest, lu

    def _check(self, forest, lu):
        cols = [self.E01, self.E12, self.E02, self.E23, self.LOOP1]
        cols += [{i: 1} for i in range(4)]
        costs = [{0: 1, 2: -2}, {i: i + 1 for i in range(4)}]
        _assert_same(forest, lu, cols, costs)

    def test_cycle_root_leaves(self):
        forest, lu = self._cycle_basis()
        self._check(forest, lu)
        root = forest._top(0)
        assert _pivot(forest, lu, forest.pe[root], self.LOOP1) == "cycle-root"
        self._check(forest, lu)

    def test_tree_edge_on_cycle_leaves(self):
        forest, lu = self._cycle_basis()
        # E01 is a tree edge of the triangle whichever row is the root.
        case = _pivot(forest, lu, 0, self.LOOP1)
        assert case == "on-cycle"
        self._check(forest, lu)

    def test_tree_edge_off_cycle_leaves(self):
        forest, lu = self._cycle_basis()
        # E23 hangs row 3 off the triangle; its loop re-roots row 3 alone.
        case = _pivot(forest, lu, 3, {3: -2})
        assert case == "off-cycle"
        self._check(forest, lu)

    def test_loop_root_leaves(self):
        forest, lu = ForestBasis(4, self.B), LUBasis(4, self.B)
        assert _pivot(forest, lu, 3, self.E23) == "loop-root"
        self._check(forest, lu)

    def test_singular_exchange_raises(self):
        from repro.exceptions import SolverError

        forest = ForestBasis(4, self.B)
        alpha = forest.ftran(self.E01)
        with pytest.raises(SolverError):
            forest.update(2, alpha, self.E01)  # alpha[2] == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pivots_hit_every_case(self, seed):
        rng = random.Random(seed)
        seen = Counter()
        for _trial in range(8):
            m = rng.randrange(2, 8)
            pool = []
            for _ in range(3 * m):
                if rng.random() < 0.2:
                    pool.append({rng.randrange(m): rng.choice([-3, -1, 1, 2, 5])})
                else:
                    a, b = rng.sample(range(m), 2)
                    pool.append({
                        a: rng.choice([-3, -2, -1, 1, 2, 4]),
                        b: rng.choice([-2, -1, 1, 3, 7]),
                    })
            b = [rng.randrange(0, 9) for _ in range(m)]
            forest, lu = ForestBasis(m, b), LUBasis(m, b)
            costs = {i: rng.randrange(-3, 4) for i in range(m)}
            for _step in range(30):
                col = rng.choice(pool)
                alpha = forest.ftran(col)
                rows = [r for r in range(m) if alpha[r]]
                if not rows:
                    continue
                seen[_pivot(forest, lu, rng.choice(rows), col)] += 1
                # Mostly the same costs (the incremental dual path), now
                # and then new ones (a full re-derivation).
                if rng.random() < 0.2:
                    costs = {i: rng.randrange(-3, 4) for i in range(m)}
                assert forest.btran(costs) == lu.btran(costs)
                _assert_same(forest, lu, pool[:4], [])
        assert set(seen) == {"loop-root", "cycle-root", "on-cycle", "off-cycle"}


class TestStructuralChoice:
    def _solver(self, coeff_rows, senses, rhs, objective, scales):
        std = standard_form(coeff_rows, senses, rhs, objective, scales)
        return _RevisedSolver(std, objective, partial=False)

    def test_lst_lp_runs_on_the_forest(self):
        solver = self._solver(*scaled(*lst_rows(16, 6, 1)))
        assert solver.lub.kind == "forest"
        assert all(sum(1 for a in c.values() if a) <= 2 for c in solver.cols)

    def test_ip3_probe_and_min_T_run_on_gub(self):
        inst = random_hierarchical(rng_from_seed(11), n=10, m=4)
        builder = IP3Builder(inst)
        coeff, senses, rhs, active = probe_rows(builder, builder.breakpoints[-1])
        probe = self._solver(*scaled(coeff, senses, rhs, [Fraction(0)] * len(active)))
        program = min_T_rows(builder, builder.breakpoints[-1], Fraction(0))
        assert program is not None
        min_t = self._solver(*scaled(*program[:4]))
        for solver in (probe, min_t):
            assert max(sum(1 for a in c.values() if a) for c in solver.cols) > 2
            assert solver.lub.kind == "gub"
            solver.reset()
            assert type(solver.lub) is GUBBasis

    def test_reset_keeps_the_forest_and_the_pivot_count(self):
        rows = scaled(*lst_rows(16, 6, 1))
        solver = self._solver(*rows)
        solver.phase = 1
        col = next(j for j in range(solver.std.art_start) if solver.cols[j])
        alpha = solver.lub.ftran(solver.cols[col])
        row = next(r for r in range(solver.m) if alpha[r])
        solver._pivot(row, alpha, col)
        solver.reset()
        assert type(solver.lub) is ForestBasis and solver.lub.updates == 1

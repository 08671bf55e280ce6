"""Lockstep tests: screened pricing on the pseudo-forest basis against full pricing.

On :class:`repro.lp.forest.ForestBasis` the revised simplex keeps a float
screen of the reduced costs (:class:`repro.lp.revised._Screen`), refreshes
only the duals ``btran`` reports as moved, and settles the screen's
candidates exactly.  These tests run every canonical pricing of a solve
through a wrapper that also prices every column exactly with
:meth:`_RevisedSolver._prices` (the one-pass pricing, kept as the oracle)
and asserts, at every pivot:

* the pricing picks the column the oracle picks (Dantzig's first minimum
  through the screen, or Bland's first negative column, which is always
  priced in full);
* the kept float duals equal a full refresh, ``y_i/den`` correctly
  rounded, and the kept integer flags equal ``den | y_i``;
* every screen value lies within the screen's error bound of the exact
  reduced cost, and equals it where the screen claims exactness.

The solves cover seeded LST LPs from 16×6 to 64×16, forced degenerate ties
(with integer and with fractional duals), Bland's rule, a crash hit, a
crash miss with the ``reset()`` fallback, an infeasible LP with its Farkas
vector, zero processing times, a pivot cap hit mid-phase, phase-2 costs,
and the overflow fallbacks.  Every result is also compared with the same
solve on ``LUBasis``, which prices every column in full.  Last, random
pivots check the basis' stamped one-entry reads (``rederive``, ``dual``,
``rhs_at``) against ``LUBasis``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from _int_rows import lst_rows, same_result, scaled

from repro._fraction import is_inf, to_fraction
from repro.core.programs import minimal_fractional_T
from repro.exceptions import PivotLimitError
from repro.lp import revised
from repro.lp.basis import LUBasis
from repro.lp.forest import ForestBasis
from repro.lp.revised import _RevisedSolver, _Screen, solve_standard, standard_form
from repro.rounding.lst import build_unrelated_lp
from repro.runner.budget import pivot_cap
from repro.workloads import random_hierarchical, rng_from_seed


def _oracle(acc, bland):
    """The column full pricing enters on the den-scaled reduced costs *acc*."""
    if bland:
        return next((j for j, v in enumerate(acc) if v < 0), None)
    best = min(acc, default=0)
    return acc.index(best) if best < 0 else None


def _check_screen(solver, y_num, acc, screened, seen):
    """The kept screen state against the exact reduced costs *acc*."""
    screen = solver._screen
    den = solver.lub.den
    for i, v in enumerate(y_num):
        assert screen.yf[i] == v / den
        assert bool(screen.frac[i]) == (v % den != 0)
    s, err, fuzzy_row = screened
    err_p, err_q = Fraction(err).as_integer_ratio()
    best = min(acc)
    ties = Counter()
    for j, v in enumerate(acc):
        p, q = float(s[j]).as_integer_ratio()
        # |p/q − v/den| ≤ err, in integers.
        assert abs(p * den - v * q) * err_q <= err_p * q * den
        fuzzy = bool(fuzzy_row[screen.r1[j]] or fuzzy_row[screen.r2[j]])
        if not fuzzy:
            assert p * den == v * q
        if v == best < 0:
            ties["fuzzy" if fuzzy else "sure"] += 1
    seen["screened"] += 1
    seen[f"screened_phase{solver.phase}"] += 1
    if sum(ties.values()) > 1:
        seen["tied_fuzzy" if ties["fuzzy"] else "tied_sure"] += 1
        if ties["fuzzy"] and ties["sure"]:
            seen["tied_mixed"] += 1


def _current_duals(lub):
    """Every dual at the current den, read without lifting the basis' own."""
    den = lub.den
    return [y * den // stamp for y, stamp in zip(lub._y, lub._ys)]


@pytest.fixture
def lockstep(monkeypatch):
    """Check every pricing on the pseudo-forest basis; yield the counters."""
    seen = Counter()
    entering = _RevisedSolver._entering_screened
    evaluate = _Screen.evaluate
    last = {}

    def evaluate_recorded(self, solver, moved):
        last["screen"] = evaluate(self, solver, moved)
        return last["screen"]

    def entering_checked(self, moved, bland):
        y_num = _current_duals(self.lub)
        acc = self._prices(y_num)
        want = _oracle(acc, bland)
        last.clear()
        got = entering(self, moved, bland)
        assert got == want
        seen["pricings"] += 1
        seen["bland"] += bland
        if "screen" in last:
            if last["screen"] is None:
                seen["overflow"] += 1
            else:
                _check_screen(self, y_num, acc, last["screen"], seen)
        return got

    monkeypatch.setattr(_RevisedSolver, "_entering_screened", entering_checked)
    monkeypatch.setattr(_Screen, "evaluate", evaluate_recorded)
    yield seen


def _on_lu(monkeypatch, fn):
    """Run *fn* with LUBasis in ForestBasis' place: full pricing throughout."""
    with monkeypatch.context() as patch:
        patch.setattr(revised, "ForestBasis", LUBasis)
        return fn()


def _solve_both(monkeypatch, rows, **kwargs):
    rows = scaled(*rows)
    result = solve_standard(*rows, **kwargs)
    same_result(result, _on_lu(monkeypatch, lambda: solve_standard(*rows, **kwargs)))
    return result


class TestSeededLST:
    @pytest.mark.parametrize(
        "n, m, seed",
        [(16, 6, 1), (24, 8, 3), (32, 10, 4), (48, 12, 2), (64, 16, 5)],
    )
    def test_cold_solve(self, lockstep, monkeypatch, n, m, seed):
        result = _solve_both(monkeypatch, lst_rows(n, m, seed))
        assert result.status == "optimal" and result.pivots > 0
        # All but each phase's first pricing went through the screen.
        assert lockstep["screened"] >= lockstep["pricings"] // 2 > 0
        assert lockstep["overflow"] == 0

    def test_bland(self, lockstep, monkeypatch):
        monkeypatch.setattr(revised, "BLAND_THRESHOLD", 0)
        result = _solve_both(monkeypatch, lst_rows(24, 8, 3))
        assert result.status == "optimal"
        assert lockstep["bland"] == lockstep["pricings"] > 0
        assert lockstep["screened"] == 0


def _identical_jobs(m, n):
    """Identical unit jobs at time 2: the phase-1 duals stay integers."""
    p = {j: {i: 2 for i in range(m)} for j in range(n)}
    return build_unrelated_lp(p, Fraction(2 * n, m)).to_standard_rows()


def _twinned_jobs(n, m, seed):
    """A seeded instance with every job twice, at twice its ``T*``.

    Each job's columns price exactly as its twin's, and tight load rows
    give fractional duals.
    """
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    T = minimal_fractional_T(inst, backend="exact")
    p = {}
    for j in range(inst.n):
        row = {
            i: to_fraction(inst.p(j, frozenset([i])))
            for i in sorted(inst.machines)
            if not is_inf(inst.p(j, frozenset([i])))
        }
        p[2 * j], p[2 * j + 1] = row, dict(row)
    return build_unrelated_lp(p, 2 * T).to_standard_rows()


class TestDegenerateTies:
    def test_integer_duals(self, lockstep, monkeypatch):
        assert _solve_both(monkeypatch, _identical_jobs(4, 12)).status == "optimal"
        assert lockstep["tied_sure"] > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fractional_duals(self, lockstep, monkeypatch, seed):
        assert _solve_both(monkeypatch, _twinned_jobs(12, 4, seed)).status == "optimal"
        assert lockstep["tied_fuzzy"] > 0

    def test_inexact_column_first_in_a_tie(self, lockstep, monkeypatch):
        # x2 enters first and leaves row 1 with the dual -1/2; then x0
        # (touching row 1, priced exactly) and x1 (integer duals, exact in
        # floats) tie at -1, and the smaller index x0 must enter.
        two = Fraction(2)
        rows = (
            [{2: two}, {0: two, 2: 2 * two}, {0: two}, {1: Fraction(1)}],
            ["=="] * 4,
            [Fraction(10), Fraction(4), Fraction(3), Fraction(1)],
            [Fraction(0)] * 3,
        )
        assert _solve_both(monkeypatch, rows).status == "infeasible"
        assert lockstep["tied_mixed"] > 0

    def test_bland(self, lockstep, monkeypatch):
        monkeypatch.setattr(revised, "BLAND_THRESHOLD", 0)
        assert _solve_both(monkeypatch, _twinned_jobs(12, 4, 1)).status == "optimal"
        assert lockstep["bland"] == lockstep["pricings"] > 0
        assert lockstep["screened"] == 0


class TestStarts:
    def test_crash_hit_and_reset_fallback(self, lockstep, monkeypatch):
        rows = lst_rows(24, 8, 7)
        cold = _solve_both(monkeypatch, rows)
        # The optimum itself: the crash factorizes its support and skips
        # phase 1.
        warm = _solve_both(monkeypatch, rows, warm_point=cold.x)
        assert warm.stats.warm_start_hits == 1
        # Every job on its highest-numbered machine overloads a load row:
        # the crash lands on an infeasible dictionary and reset() restarts
        # from the identity basis.
        coeff_rows, senses, _rhs, objective = rows
        bad = [Fraction(0)] * len(objective)
        for row in coeff_rows[: senses.count("==")]:
            if row:
                bad[max(row)] = Fraction(1)
        before = lockstep["screened"]
        repaired = _solve_both(monkeypatch, rows, warm_point=bad)
        assert repaired.stats.warm_start_attempts == 1
        assert repaired.stats.warm_start_hits == 0
        assert repaired.status == "optimal"
        assert lockstep["screened"] > before

    def test_phase2_costs(self, lockstep, monkeypatch):
        # Costs with both signs on the assignment polytope (bounded, since
        # every x_ij ≤ 1): phase 2 pivots and prices real costs.
        coeff_rows, senses, rhs, objective = lst_rows(24, 8, 3)
        cost = [Fraction((7 * j) % 11 - 5, 1 + j % 3) for j in range(len(objective))]
        result = _solve_both(monkeypatch, (coeff_rows, senses, rhs, cost))
        assert result.status == "optimal"
        assert lockstep["screened_phase2"] > 0


class TestEdgeCases:
    def test_infeasible_farkas(self, lockstep, monkeypatch):
        rows = lst_rows(16, 6, 9, scale_T=Fraction(1, 2))
        result = _solve_both(monkeypatch, rows)
        assert result.status == "infeasible" and result.farkas is not None
        assert lockstep["screened"] > 0

    def test_zero_processing_time(self, lockstep, monkeypatch):
        # A zero p_ij leaves x_ij with one non-zero: a loop column.
        p = {
            0: {0: 0, 1: 3},
            1: {0: 2, 1: 0},
            2: {0: 4, 1: 5},
            3: {0: 0, 1: 0},
            4: {0: 3, 1: 2},
        }
        rows = build_unrelated_lp(p, Fraction(4)).to_standard_rows()
        assert _solve_both(monkeypatch, rows).status == "optimal"
        assert lockstep["screened"] > 0

    def test_pivot_limit_mid_phase(self, lockstep, monkeypatch):
        rows = scaled(*lst_rows(32, 10, 4))
        budget = solve_standard(*rows).pivots // 2
        with pytest.raises(PivotLimitError) as forest_err, pivot_cap(budget):
            solve_standard(*rows)

        def on_lu():
            with pytest.raises(PivotLimitError) as lu_err, pivot_cap(budget):
                solve_standard(*rows)
            return lu_err.value

        lu = _on_lu(monkeypatch, on_lu)
        got = forest_err.value
        assert (got.budget, got.pivots, got.phase) == (lu.budget, lu.pivots, lu.phase)

    def test_entries_beyond_float_range_price_in_full(self, lockstep, monkeypatch):
        big = 10 ** 400
        p = {j: {i: big * (1 + (i + j) % 3) for i in range(3)} for j in range(6)}
        rows = build_unrelated_lp(p, Fraction(3 * big)).to_standard_rows()
        assert _solve_both(monkeypatch, rows).status == "optimal"
        assert lockstep["screened"] == 0 and lockstep["overflow"] > 0

    def test_duals_beyond_float_range_price_in_full(self):
        rows = scaled(*lst_rows(16, 6, 1))
        std = standard_form(*rows)
        solver = _RevisedSolver(std, rows[3], partial=False)
        screen = _Screen(solver)
        solver.lub = SimpleNamespace(den=1, duals=lambda: [10 ** 400] * solver.m)
        assert screen.pick(solver, None) == -1
        assert screen.stale


class TestStampedReads:
    """``rederive``, ``dual`` and ``rhs_at`` read the integers LUBasis keeps
    eagerly, without a full lift in between."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pivots(self, seed):
        rng = random.Random(seed)
        reads = 0
        for _trial in range(6):
            m = rng.randrange(2, 8)
            pool = []
            for _ in range(3 * m):
                if rng.random() < 0.2:
                    pool.append({rng.randrange(m): rng.choice([-3, 1, 2, 5])})
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
                assert alpha == lu.ftran(col)
                rows = [r for r in range(m) if alpha[r]]
                if not rows:
                    continue
                row = rng.choice(rows)
                forest.update(row, alpha, col)
                lu.update(row, alpha, col)
                if rng.random() < 0.2:
                    costs = {i: rng.randrange(-3, 4) for i in range(m)}
                moved = forest.rederive(costs)
                y = lu.btran(costs)
                for v in rng.sample(range(m), rng.randrange(1, m + 1)):
                    assert forest.dual(v) == y[v]
                    assert forest.rhs_at(v) == lu.rhs[v]
                    reads += 1
                if moved is not None:
                    assert moved <= set(range(m))
            assert forest.duals() == lu.btran(costs)
            assert forest.rhs == lu.rhs
        assert reads

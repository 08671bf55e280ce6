"""Tests for the revised simplex kernel, the LU basis, and the probe pipeline.

Covers the PR-4 acceptance criteria:

* equivalence with the dense reference simplex of
  ``tests/_reference_simplex.py`` (status, objective, vertex and basis) on
  randomized LPs drawn from **every** workload family, plus hypothesis LPs;
* warm-start edge cases — degenerate hints with no positive ratio, a failed
  crash falling back to ratio-test pushes, Farkas-dual seeding across an
  infeasible→feasible probe pair;
* the structured pivot budget (:class:`~repro.exceptions.PivotLimitError`)
  under the process pivot cap, and Bland's rule from pivot 0;
* hybrid certification still rejecting corrupted candidates under the
  factorized-basis verifier.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from _int_rows import certifies, probe_rows, random_lp, scaled, time_of
from _reference_simplex import reference_solve
from repro.core.programs import IP3Builder, minimal_fractional_T, _ProbeSession
from repro.exceptions import PivotLimitError, SolverError
from repro.lp import (
    LUBasis,
    LinearProgram,
    SolverStats,
    collect_stats,
    solve_lp,
    solve_standard,
)
from repro.lp.certificates import denormalize_farkas
from repro.lp import revised as revised_mod
from repro.lp.revised import standard_form
from repro.lp.solve import check_standard_rows, feasible_point_rows
from repro.runner.budget import pivot_cap
from repro.workloads import FAMILIES, make_instance, make_topology, rng_from_seed


def _assert_equivalent(rows, senses, rhs, objective):
    """The reference simplex and a cold canonical solve agree vertex-for-vertex."""
    tab = reference_solve(rows, senses, rhs, objective)
    rev = solve_standard(*scaled(rows, senses, rhs, objective), canonical=True)
    assert tab.status == rev.status
    if tab.status == "optimal":
        assert tab.objective == rev.objective
        assert tab.x == rev.x  # identical vertex, not just identical value
        assert tab.basis == rev.basis
    return tab, rev


class TestKernelEquivalence:
    def test_all_workload_families(self):
        """IP-3 decision LPs from every family: identical vertices."""
        topo = make_topology("clustered4x2")
        for i, name in enumerate(sorted(FAMILIES)):
            inst = make_instance(name, rng_from_seed(900 + i), topo, n=6)
            builder = IP3Builder(inst)
            if not builder.breakpoints:
                continue
            for T in (builder.breakpoints[0], builder.breakpoints[-1]):
                rows, senses, rhs, active = probe_rows(builder, T)
                objective = [Fraction(0)] * len(active)
                _assert_equivalent(rows, senses, rhs, objective)

    def test_partial_pricing_same_value(self):
        """Partial pricing (``canonical=False``) may pick another vertex,
        never another optimum."""
        topo = make_topology("flat4")
        inst = make_instance("heavy_tailed", rng_from_seed(7), topo, n=6)
        builder = IP3Builder(inst)
        rows, senses, rhs, active = probe_rows(builder, builder.breakpoints[-1])
        objective = [Fraction(1)] * len(active)
        full = solve_standard(*scaled(rows, senses, rhs, objective), canonical=True)
        part = solve_standard(*scaled(rows, senses, rhs, objective), canonical=False)
        assert full.status == part.status == "optimal"
        assert full.objective == part.objective
        # Both are vertices: support bounded by the row count.
        assert sum(1 for v in part.x if v) <= len(rows)

    def test_canonical_must_be_bool(self):
        with pytest.raises(SolverError):
            solve_standard([], [], [], [Fraction(1)], [], canonical="lex")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_kernels_agree_on_random_lps(data):
    rows, senses, rhs, objective = data
    tab, rev = _assert_equivalent(rows, senses, rhs, objective)
    if rev.status == "infeasible":
        # The solver's certificate is a verified proof.
        assert rev.farkas is not None
        assert certifies(rows, senses, rhs, rev.farkas)


class TestLUBasis:
    def test_factorize_identity_roundtrip(self):
        cols = [{0: 2, 1: 1}, {1: 3}, {0: 1, 2: 5}]
        b = [4, 6, 10]
        lub = LUBasis.factorize(3, cols, b)
        assert lub is not None
        # B · x = b with x = rhs/den: verify column-wise.
        for r in range(3):
            lhs = sum(cols[c].get(r, 0) * lub.rhs[c] for c in range(3))
            assert lhs == b[r] * lub.den

    def test_factorize_singular_returns_none(self):
        cols = [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 1}]
        assert LUBasis.factorize(3, cols, [1, 2, 3]) is None

    def test_ftran_btran_consistency(self):
        cols = [{0: 3, 1: 1}, {1: 2, 2: 1}, {2: 4}]
        lub = LUBasis.factorize(3, cols, [1, 1, 1])
        probe = {0: 5, 2: 7}
        alpha = lub.ftran(probe)
        # W·a and c·W agree with a direct elementwise evaluation (rows may
        # be stored sparse: read entries through row_items).
        w = [dict(lub.row_items(i)) for i in range(3)]
        for i in range(3):
            assert alpha[i] == sum(
                w[i].get(k, 0) * v for k, v in probe.items()
            )
        y = lub.btran({0: 2, 2: -1})
        for j in range(3):
            assert y[j] == 2 * w[0].get(j, 0) - w[2].get(j, 0)


def _brought_up(lub, i):
    """Row ``i`` of ``W`` at the current den, read off its stamp, not stored."""
    row, st, den = lub.inv[i], lub.stamp[i], lub.den
    out = {}
    for j, w in row.items() if type(row) is dict else enumerate(row):
        if w:
            assert w * den % st == 0  # the lift is an exact division
            out[j] = w * den // st
    return out


def _dot(row, col):
    return sum(row.get(k, 0) * v for k, v in col.items())


def _abs_det(cols, m):
    """``|det B|`` of the matrix with the given sparse columns, exactly."""
    a = [[Fraction(cols[c].get(r, 0)) for c in range(m)] for r in range(m)]
    det = Fraction(1)
    for k in range(m):
        p = next((r for r in range(k, m) if a[r][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
        det *= a[k][k]
        for r in range(k + 1, m):
            f = a[r][k] / a[k][k]
            for c in range(k, m):
                a[r][c] -= f * a[k][c]
    return abs(det)


def _assert_stamped(lub, basis_cols, b):
    """``W·a_{basis[r]} = den·e_r`` and ``W·b = rhs`` for every row."""
    m, den = lub.m, lub.den
    assert den > 0
    assert den == _abs_det(basis_cols, m)
    for r in range(m):
        row = _brought_up(lub, r)
        for r2 in range(m):
            assert _dot(row, basis_cols[r2]) == (den if r == r2 else 0)
        assert _dot(row, dict(enumerate(b))) == lub.rhs[r]


class TestStampedRows:
    """Lazily stamped rows of :class:`LUBasis` stay exact after every pivot."""

    @staticmethod
    def _pool(rng, m, size):
        cols = []
        while len(cols) < size:
            col = {
                i: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                for i in range(m)
                if rng.random() < 0.4
            }
            if col:
                cols.append(col)
        return cols

    def _random_pivots(self, lub, basis_cols, b, pool, rng, steps, seen):
        m = lub.m
        for _ in range(steps):
            col = rng.choice(pool)
            alpha = lub.ftran(col)
            # ftran scales stale rows' dot products exactly.
            assert alpha == [_dot(_brought_up(lub, i), col) for i in range(m)]
            rows = [r for r in range(m) if alpha[r]]
            if not rows:
                continue
            r = rng.choice(rows)
            was_sparse = [type(w) is dict for w in lub.inv]
            seen["negative"] |= alpha[r] < 0
            lub.update(r, alpha)
            basis_cols[r] = col
            seen["densified"] |= any(
                was_sparse[i] and type(lub.inv[i]) is list for i in range(m)
            )
            seen["stale"] |= any(st != lub.den for st in lub.stamp)
            _assert_stamped(lub, basis_cols, b)
            # Reading rows through the accessor lifts and stores them.
            if rng.random() < 0.3:
                i = rng.randrange(m)
                expected = _brought_up(lub, i)
                assert dict(lub.row_items(i)) == expected
                assert lub.stamp[i] == lub.den
                assert _brought_up(lub, i) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pivot_sequences(self, seed):
        rng = random.Random(seed)
        m = rng.randint(5, 9)
        b = [rng.randrange(-6, 7) for _ in range(m)]
        pool = self._pool(rng, m, 3 * m)
        seen = dict(negative=False, densified=False, stale=False)
        lub = LUBasis(m, b)
        basis_cols = [{i: 1} for i in range(m)]
        _assert_stamped(lub, basis_cols, b)
        self._random_pivots(lub, basis_cols, b, pool, rng, 30, seen)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(4))
    def test_factorize_then_pivot(self, seed):
        rng = random.Random(100 + seed)
        m = rng.randint(5, 8)
        b = [rng.randrange(-6, 7) for _ in range(m)]
        pool = self._pool(rng, m, 3 * m)
        while True:
            cols = rng.sample(pool, m)
            lub = LUBasis.factorize(m, cols, b)
            if lub is not None:
                break
        # factorize places each column in some row; ftran reads it back.
        basis_cols = [None] * m
        for col in cols:
            alpha = lub.ftran(col)
            (r,) = [i for i in range(m) if alpha[i]]
            assert alpha[r] == lub.den
            basis_cols[r] = col
        _assert_stamped(lub, basis_cols, b)
        seen = dict(negative=False, densified=False, stale=False)
        self._random_pivots(lub, basis_cols, b, pool, rng, 20, seen)

    def test_solver_pivots_through_failed_crash_and_reset(self, monkeypatch):
        """Every pivot of real solves — crash, reset, pushes, both phases."""
        from repro.lp import revised
        from repro.lp.revised import _RevisedSolver

        # The first LP has at most two non-zeros per column, so the solver
        # would pick the pseudo-forest basis, and the IP-3 probes have
        # assignment rows, so it would keep those implicit (GUBBasis);
        # these checks read LUBasis' stamped rows, so run both on LUBasis.
        monkeypatch.setattr(revised, "ForestBasis", LUBasis)
        monkeypatch.setattr(revised, "gub_rows", lambda row_items: [])
        original = _RevisedSolver._pivot
        pivots = []

        def checked(self, row, alpha, col):
            original(self, row, alpha, col)
            basis_cols = [self.cols[c] for c in self.basis]
            _assert_stamped(self.lub, basis_cols, self.b_int)
            pivots.append(col)

        monkeypatch.setattr(_RevisedSolver, "_pivot", checked)
        # The crash lands on a negative surplus and resets to the identity
        # basis, then pushes the warm point's support in by ratio tests.
        rows = [
            {0: Fraction(-1), 1: Fraction(1)},
            {2: Fraction(1)},
            {0: Fraction(2), 1: Fraction(-3), 2: Fraction(1)},
        ]
        senses = ["<=", ">=", "=="]
        rhs = [Fraction(2), Fraction(1), Fraction(1)]
        objective = [Fraction(1), Fraction(-1), Fraction(2)]
        result = solve_standard(
            *scaled(rows, senses, rhs, objective),
            warm_point=[Fraction(1), Fraction(0), Fraction(0)],
        )
        assert result.stats.warm_start_attempts == 1
        assert result.stats.warm_start_hits == 0
        assert pivots
        # Cold solves of IP-3 probes, canonical and partial.
        inst = make_instance(
            "heavy_tailed", rng_from_seed(7), make_topology("flat4"), n=6
        )
        builder = IP3Builder(inst)
        coeff, senses, rhs, active = probe_rows(builder, builder.breakpoints[-1])
        objective = [Fraction(1)] * len(active)
        for canonical in (True, False):
            assert solve_standard(
                *scaled(coeff, senses, rhs, objective), canonical=canonical
            ).status == "optimal"


class TestOnePassPricing:
    """One-pass row-wise prices and entering choices match a column scan."""

    @staticmethod
    def _solver(seed, monkeypatch):
        """A solver whose structural columns come in identical pairs, so
        every reduced cost — and so every minimum — is tied."""
        from repro.lp.revised import _RevisedSolver

        rng = random.Random(seed)
        m, half = 6, 7
        rows, senses, rhs = [], [], []
        for _ in range(m):
            entries = {
                j: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                for j in range(half)
                if rng.random() < 0.5
            }
            row = {}
            for j, v in entries.items():
                row[2 * j] = row[2 * j + 1] = v
            rows.append(row)
            senses.append(rng.choice(["<=", ">=", "=="]))
            rhs.append(Fraction(rng.randrange(0, 7)))
        costs = [Fraction(rng.randrange(-3, 4), 2) for _ in range(half)]
        objective = [c for c in costs for _ in (0, 1)]
        std = standard_form(*scaled(rows, senses, rhs, objective))
        monkeypatch.setattr(revised_mod, "BLAND_THRESHOLD", 50)
        monkeypatch.setattr(revised_mod, "MAX_PIVOTS", 1000)
        return _RevisedSolver(std, objective, partial=False), rng

    @staticmethod
    def _reference_price(solver, j, y):
        cost = solver.c_int[j] if solver.phase == 2 and j < solver.std.n else 0
        return cost * solver.lub.den - sum(
            y[i] * a for i, a in solver.cols[j].items()
        )

    def _reference_partial(self, solver, prices):
        limit = solver.std.art_start
        scanned, best, best_j = 0, 0, None
        j = solver._cursor if solver._cursor < limit else 0
        while scanned < limit:
            if prices[j] < best:
                best, best_j = prices[j], j
            scanned += 1
            j = (j + 1) % limit
            if scanned % solver._block == 0 and best_j is not None:
                break
        cursor = solver._cursor if best_j is None else (best_j + 1) % limit
        return best_j, cursor

    @pytest.mark.parametrize("seed", range(5))
    def test_prices_and_entering_match_reference_scan(self, seed, monkeypatch):
        # The test sets LUBasis' den; a draw with an all-+1 row would run
        # on GUBBasis, whose den is its working basis', so keep LUBasis.
        monkeypatch.setattr(revised_mod, "gub_rows", lambda row_items: [])
        solver, rng = self._solver(seed, monkeypatch)
        assert type(solver.lub) is LUBasis
        limit = solver.std.art_start
        ties = 0
        for step in range(24):
            solver.phase = 1 + step % 2
            solver.lub.den = rng.randrange(1, 9)
            y = [rng.choice([0, 0, -2, -1, 1, 3]) for _ in range(solver.m)]
            prices = [self._reference_price(solver, j, y) for j in range(limit)]
            assert solver._prices(y) == prices
            negative = [j for j in range(limit) if prices[j] < 0]
            # Bland: the first improving column.
            assert solver._entering(y, bland=True) == (
                negative[0] if negative else None
            )
            # Dantzig: the most negative price, smallest index on ties.
            solver.partial = False
            best = min(prices)
            assert solver._entering(y, bland=False) == (
                prices.index(best) if best < 0 else None
            )
            if best < 0 and prices.index(best) < solver.std.n:
                assert prices.count(best) >= 2  # the tie really is there
                ties += 1
            # Partial: rotating blocks from the cursor, Dantzig per block.
            solver.partial = True
            solver._block = rng.choice([1, 3, 5, limit])
            solver._cursor = rng.randrange(limit + 2)
            expected = self._reference_partial(solver, prices)
            assert solver._entering(y, bland=False) == expected[0]
            assert solver._cursor == expected[1]
        assert ties

class TestWarmStartEdgeCases:
    def test_degenerate_hint_no_positive_ratio(self):
        """A hint column with no positive entry is skipped harmlessly."""
        # x0 only appears with negative coefficient in a <= row: its
        # transformed column has no positive ratio; pushing it must not
        # corrupt the solve.  The ">=" row is slack at the warm point, so
        # the crash lands on a negative surplus and the solve falls back to
        # ratio-test pushes of the point's support, x0 alone.
        rows = [{0: Fraction(-1), 1: Fraction(1)}, {2: Fraction(1)}]
        senses = ["<=", ">="]
        rhs = [Fraction(2), Fraction(1)]
        objective = [Fraction(0), Fraction(-1), Fraction(0)]
        result = solve_standard(
            *scaled(rows, senses, rhs, objective),
            warm_point=[Fraction(1), Fraction(0), Fraction(0)],
        )
        assert result.stats.warm_start_attempts == 1
        assert result.stats.warm_start_hits == 0
        assert result.status == "unbounded"

    def test_bad_warm_point_repaired(self):
        """An infeasible warm point costs pivots, never correctness."""
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.add_variable("y", ub=3)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
        lp.set_objective({"x": -1, "y": -1})
        good = solve_lp(lp, backend="exact")
        bad = solve_lp(
            lp, backend="exact",
            warm_values={"x": Fraction(100), "y": Fraction(100)},
        )
        assert bad.status == "optimal"
        assert bad.objective == good.objective

    def test_crash_hit_skips_phase1(self):
        """A feasible warm point factorizes straight past phase 1."""
        rows = [
            {j: Fraction(1) for j in range(4)},
            {0: Fraction(2), 1: Fraction(1)},
        ]
        senses = ["==", "<="]
        rhs = [Fraction(2), Fraction(3)]
        objective = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
        cold = solve_standard(*scaled(rows, senses, rhs, objective))
        warm = solve_standard(*scaled(rows, senses, rhs, objective), warm_point=cold.x)
        assert warm.status == "optimal" and warm.objective == cold.objective
        assert warm.stats.warm_start_hits == 1
        assert warm.stats.phase1_pivots == 0
        assert warm.pivots <= cold.pivots

    def test_farkas_seeding_infeasible_to_feasible_probe_pair(self):
        """The pipeline's certificate survives exactly while T is infeasible."""
        inst = make_instance(
            "near_critical", rng_from_seed(11), make_topology("clustered4x2"), n=6
        )
        builder = IP3Builder(inst)
        t_star = minimal_fractional_T(inst, backend="exact")
        points = builder.breakpoints
        # Infeasible horizons at which every job still has an option (the
        # structurally-infeasible ones are decided without an LP and thus
        # without a certificate).
        infeasible_ts = [
            t
            for t in points
            if t < t_star
            and all(
                any(time_of(builder, gi) <= t for gi in group)
                for group in builder.assign_template
            )
        ][-2:]
        feasible_t = next(t for t in points if t >= t_star)
        if not infeasible_ts:
            pytest.skip("no LP-infeasible breakpoint below T*")
        session = _ProbeSession(builder, "exact")
        # First infeasible probe solves and stores a verified certificate.
        assert session.probe(infeasible_ts[0]) is None
        assert session.farkas is not None
        rows0 = probe_rows(builder, infeasible_ts[0])[:3]
        assert certifies(*rows0, session.farkas)
        # Second infeasible probe is answered by certificate reuse when the
        # certificate transfers (and by a fresh solve otherwise) — either
        # way the verdict is infeasible.
        with collect_stats() as stats:
            assert session.probe(infeasible_ts[-1]) is None
        assert stats.farkas_reuses + stats.solves >= 1
        # The feasible side of the pair: the stale certificate must NOT
        # certify the feasible LP, and the probe must find a point.
        rows1 = probe_rows(builder, feasible_t)[:3]
        assert not certifies(*rows1, session.farkas)
        point = session.probe(feasible_t)
        assert point is not None
        coeff, senses, rhs, active = probe_rows(builder, feasible_t)
        dense = [Fraction(0)] * len(active)
        for li, gi in enumerate(active):
            dense[li] = point.get(gi, Fraction(0))
        assert check_standard_rows(coeff, senses, rhs, dense)

    def test_point_reuse_across_probes(self):
        """A downward probe inside the feasible region reuses the point."""
        inst = make_instance(
            "density", rng_from_seed(3), make_topology("flat4"), n=5
        )
        builder = IP3Builder(inst)
        points = builder.breakpoints
        session = _ProbeSession(builder, "exact")
        assert session.probe(points[-1]) is not None
        with collect_stats() as stats:
            verdict = session.probe(points[-1])  # same horizon: trivial reuse
        assert verdict is not None
        assert stats.point_reuses == 1 and stats.solves == 0


class TestPivotBudget:
    def test_structured_error_fields(self):
        rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1)}]
        senses = ["==", "<="]
        rhs = [Fraction(1), Fraction(1)]
        objective = [Fraction(-1), Fraction(1)]
        with pytest.raises(PivotLimitError) as err, pivot_cap(1):
            solve_standard(*scaled(rows, senses, rhs, objective))
        assert err.value.budget == 1
        assert err.value.pivots == 2
        assert err.value.phase in (1, 2)

    def test_default_budget_solves_fine(self):
        rows = [{0: Fraction(1)}]
        result = solve_standard(*scaled(rows, ["<="], [Fraction(1)], [Fraction(-1)]))
        assert result.status == "optimal"

    def test_bland_threshold_zero_still_terminates(self, monkeypatch):
        """Bland-from-pivot-0 is slower but exact — a pure safety rule."""
        rows = [
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
            {0: Fraction(3), 1: Fraction(1)},
        ]
        senses = ["<=", "<="]
        rhs = [Fraction(4), Fraction(6)]
        objective = [Fraction(-1), Fraction(-1), Fraction(-1)]
        b = solve_standard(*scaled(rows, senses, rhs, objective))
        monkeypatch.setattr(revised_mod, "BLAND_THRESHOLD", 0)
        a = solve_standard(*scaled(rows, senses, rhs, objective))
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective


class TestHybridCertification:
    def test_corrupted_candidate_rejected(self, monkeypatch):
        """A wrong float candidate is repaired by the exact verifier."""
        import repro.lp.hybrid as hybrid_mod
        from repro.lp.revised import SimplexResult

        lp = LinearProgram()
        for j in range(10):
            lp.add_variable(("x", j), lb=0)
        lp.add_constraint({("x", j): 1 for j in range(10)}, "==", 1)
        lp.add_constraint(
            {("x", j): Fraction(j + 1) for j in range(10)}, "<=", 3
        )
        lp.set_objective({("x", j): Fraction(j + 1) for j in range(10)})

        def corrupted(coeff_rows, senses, rhs, objective, scales):
            # Claims optimality at a wildly infeasible point.
            return SimplexResult(
                "optimal", [Fraction(5)] * len(objective), Fraction(0), None
            )

        monkeypatch.setattr(hybrid_mod, "float_candidate", corrupted)
        monkeypatch.setattr(hybrid_mod, "_FLOAT_SIZE_CUTOFF", 0)
        solution = solve_lp(lp, backend="hybrid")
        assert solution.is_optimal
        assert solution.objective == Fraction(1)  # true optimum: all on x0

    def test_corrupted_infeasibility_claim_rejected(self, monkeypatch):
        import repro.lp.hybrid as hybrid_mod
        from repro.lp.revised import SimplexResult

        lp = LinearProgram()
        for j in range(8):
            lp.add_variable(("x", j), lb=0)
        lp.add_constraint({("x", j): 1 for j in range(8)}, "==", 1)

        def lying(coeff_rows, senses, rhs, objective, scales):
            return SimplexResult("infeasible", [], None, None)

        monkeypatch.setattr(hybrid_mod, "float_candidate", lying)
        monkeypatch.setattr(hybrid_mod, "_FLOAT_SIZE_CUTOFF", 0)
        # certify_infeasible cannot produce a proof for a feasible program,
        # so the exact solver re-derives the true verdict.
        solution = solve_lp(lp, backend="hybrid")
        assert solution.is_optimal


class TestCertificates:
    def test_denormalize_flips_negative_rhs_rows(self):
        y = [Fraction(1), Fraction(2)]
        out = denormalize_farkas(y, [Fraction(-3), Fraction(3)])
        assert out == [Fraction(-1), Fraction(2)]

    def test_farkas_rejects_wrong_length_and_signs(self):
        rows = [{0: Fraction(1)}]
        assert not certifies(rows, ["<="], [Fraction(1)], [])
        # y > 0 on a <= row violates the sign condition.
        assert not certifies(rows, ["<="], [Fraction(1)], [Fraction(1)])

    def test_feasible_point_rows_returns_certificate(self):
        rows = [{0: Fraction(1)}, {0: Fraction(1)}]
        senses = [">=", "<="]
        rhs = [Fraction(3), Fraction(1)]
        point, farkas = feasible_point_rows(rows, senses, rhs, 1, backend="exact")
        assert point is None and farkas is not None
        assert certifies(rows, senses, rhs, farkas)


class TestStatsPlumbing:
    def test_lp_solution_carries_stats(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.set_objective({"x": -1})
        solution = solve_lp(lp, backend="exact")
        assert isinstance(solution.stats, SolverStats)
        assert solution.stats.solves == 1

    def test_collect_stats_nested_scopes(self):
        lp = LinearProgram()
        lp.add_variable("x", ub=1)
        lp.set_objective({"x": -1})
        with collect_stats() as outer:
            solve_lp(lp, backend="exact")
            with collect_stats() as inner:
                solve_lp(lp, backend="exact")
        assert inner.solves == 1
        assert outer.solves == 2
        assert "solves" in outer.render()

    def test_profile_cli_flag(self, capsys):
        from repro.cli import main

        assert main(["solve", "--demo", "ii1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "solver profile:" in out
        assert "pivots" in out


def test_standard_form_unchanged_contract():
    """The shared standard form still sign-normalizes rows to b ≥ 0."""
    std = standard_form(
        *scaled([{0: Fraction(1)}], ["<="], [Fraction(-2)], [Fraction(0)])
    )
    assert std.senses == [">="]
    assert std.rhs == [Fraction(2)]

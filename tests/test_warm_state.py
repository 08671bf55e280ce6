"""Warm starts from a point: resumability, determinism, row layouts.

A solve is warm-started only from a point (``warm_point`` on raw rows,
keyed ``warm_values`` on a :class:`~repro.lp.model.LinearProgram`); no
solver basis survives from one solve to the next.  This module pins down:

* a :class:`~repro.exceptions.PivotLimitError` mid-search must leave the
  :class:`~repro.core.programs._ProbeSession` resumable;
* a solve warm-started from another solve's vertex is optimal with the
  cold solve's objective and a vertex-sized support (warm starts change the
  path, never the answer);
* a warm key the target program lacks raises ``SolverError``;
* sparse and densified ``W`` rows answer ftran/btran identically.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from _int_rows import random_lp, scaled
from repro.core.programs import IP3Builder, _ProbeSession
from repro.exceptions import PivotLimitError, SolverError
from repro.lp import (
    LinearProgram,
    LUBasis,
    solve_lp,
    solve_standard,
)
from repro.lp.basis import _to_dense
from repro.lp.solve import check_standard_rows
from repro.runner.budget import pivot_cap
from repro.workloads import make_instance, make_topology, rng_from_seed


def _small_lp():
    """A 2-row / 4-var LP with a unique optimum and a nontrivial basis."""
    rows = [
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)},
        {0: Fraction(2), 1: Fraction(1)},
    ]
    senses = ["==", "<="]
    rhs = [Fraction(2), Fraction(3)]
    objective = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    return rows, senses, rhs, objective


class TestPivotLimitResumability:
    def test_kernel_raise_leaves_no_global_residue(self):
        """A budgeted abort is an exception, not a corrupted process."""
        rows, senses, rhs, objective = _small_lp()
        with pytest.raises(PivotLimitError), pivot_cap(1):
            solve_standard(*scaled(rows, senses, rhs, objective))
        # The very next solve in the same process is untouched.
        result = solve_standard(*scaled(rows, senses, rhs, objective))
        assert result.status == "optimal"

    def test_probe_session_resumable_after_pivot_limit(self, monkeypatch):
        """A PivotLimitError mid-search leaves the session answerable."""
        # near_critical has many breakpoints where lower probes are not
        # answered structurally, so one genuinely reaches the solver.
        topo = make_topology("flat4")
        inst = make_instance("near_critical", rng_from_seed(11), topo, n=8)
        builder = IP3Builder(inst)
        T_hi = builder.breakpoints[-1]

        session = _ProbeSession(builder, backend="exact")
        assert session.probe(T_hi) is not None  # seeds the point

        import repro.core.programs as programs

        real = programs.feasible_point_rows

        def explode(*args, **kwargs):
            raise PivotLimitError(budget=1, pivots=1, phase=2)

        # Walk down the breakpoint ladder until a probe actually needs an
        # LP solve — simulating a search step whose carried point did not
        # transfer (real searches hit this whenever the support dies), so
        # the probe reaches the solver and aborts mid-search.
        real_check = programs.check_standard_rows
        monkeypatch.setattr(programs, "feasible_point_rows", explode)
        monkeypatch.setattr(
            programs, "check_standard_rows", lambda *a, **k: False
        )
        T_abort = None
        for T in reversed(builder.breakpoints[:-1]):
            try:
                session.probe(T)
            except PivotLimitError:
                T_abort = T
                break
        assert T_abort is not None, "no probe reached the solver"
        monkeypatch.setattr(programs, "feasible_point_rows", real)
        monkeypatch.setattr(programs, "check_standard_rows", real_check)

        # The session resumes: same verdict as a never-interrupted session.
        fresh = _ProbeSession(builder, backend="exact")
        resumed_verdict = session.probe(T_abort)
        fresh.probe(T_hi)
        fresh_verdict = fresh.probe(T_abort)
        assert (resumed_verdict is None) == (fresh_verdict is None)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_carried_basis_solve_equals_cold_solve(data):
    """Property: warm path ≠ warm answer.  A solve seeded with the vertex of
    a partially priced donor is optimal, matches the cold objective exactly,
    satisfies every row exactly and returns a vertex (support ≤ rows).
    """
    rows, senses, rhs, objective = data
    cold = solve_standard(*scaled(rows, senses, rhs, objective))
    # Donor: partial pricing, so its vertex may differ from the cold
    # Dantzig one whenever this LP allows it.
    donor = solve_standard(*scaled(rows, senses, rhs, objective), canonical=False)
    assert donor.status == cold.status
    if donor.status != "optimal":
        return
    warm = solve_standard(*scaled(rows, senses, rhs, objective), warm_point=donor.x)
    assert warm.status == "optimal"
    assert warm.objective == cold.objective
    assert check_standard_rows(rows, senses, rhs, warm.x)
    assert sum(1 for v in warm.x if v) <= len(rows)


class TestUnknownWarmKey:
    def test_unknown_warm_key_raises(self):
        """A warm key the LP lacks is a caller bug, not a silent drop."""
        lp = LinearProgram()
        lp.add_variable("x", ub=2)
        lp.add_variable("y", ub=3)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 4)
        lp.set_objective({"x": -1, "y": -1})
        with pytest.raises(SolverError, match="ghost"):
            solve_lp(
                lp, backend="exact",
                warm_values={"x": Fraction(1), "ghost": Fraction(5)},
            )
        result = solve_lp(lp, backend="exact", warm_values={"x": Fraction(1)})
        assert result.status == "optimal"


class TestSparseDenseEquivalence:
    def _random_basis(self, m, seed):
        rng = random.Random(seed)
        while True:
            cols = []
            for _ in range(m):
                col = {
                    i: rng.randrange(-5, 6)
                    for i in range(m)
                    if rng.random() < 0.5
                }
                cols.append(col)
            b = [rng.randrange(0, 9) for _ in range(m)]
            lub = LUBasis.factorize(m, cols, b)
            if lub is not None:
                return lub, cols

    def test_ftran_btran_identical_on_densified_rows(self):
        """Forcing every W row dense changes nothing but the layout."""
        for seed in (3, 5, 8):
            sparse, cols = self._random_basis(7, seed)
            dense, _ = self._random_basis(7, seed)  # identical factorization
            assert dense.den == sparse.den
            for i in range(dense.m):
                # Lift the row to the current den before re-laying it out,
                # so the rewritten row and its stamp agree.
                row = dense.current_row(i)
                if type(row) is dict:
                    dense.inv[i] = _to_dense(row, dense.m)
                assert dense.row_density(i) == 1.0
            probe_cols = cols + [{i: 1} for i in range(7)]
            for col in probe_cols:
                assert sparse.ftran(col) == dense.ftran(col)
            for cb in ({0: 1}, {i: i + 1 for i in range(7)}):
                assert sparse.btran(cb) == dense.btran(cb)


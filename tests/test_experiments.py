"""Integration tests: the E01–E14 experiment suite at small scale.

These assert the paper-predicted values; the benchmark harness runs the same
code at larger scale and prints the tables.
"""

import pytest

from repro.experiments import (
    e01_example_ii1,
    e02_example_iii1,
    e03_migration_bounds,
    e04_semi_partitioned_validity,
    e05_hierarchical_validity,
    e06_pushdown,
    e07_two_approx_ratio,
    e08_gap_family,
    e09_general_masks,
    e10_memory_model1,
    e11_memory_model2,
    e12_scheduler_comparison,
    e13_integrality,
    e14_scaling,
)


class TestE01:
    def test_matches_paper(self):
        result = e01_example_ii1.run()
        assert result.opt_semi == 2
        assert result.opt_collapse == 3
        assert result.T_lp == 2
        assert "E01" in result.table.render()


class TestE02:
    def test_matches_paper(self):
        result = e02_example_iii1.run()
        assert result.T == 2
        assert result.valid
        assert result.makespan == 2
        assert result.migrations_of_global_job == 1


class TestE03:
    def test_bounds_hold(self):
        result = e03_migration_bounds.run(
            machine_counts=(2, 3, 4), trials=10, n_jobs=8
        )
        for row in result.rows:
            assert row.within_bounds, row


class TestE04:
    def test_all_valid(self):
        result = e04_semi_partitioned_validity.run(
            shapes=((5, 2), (8, 3)), trials=6
        )
        assert result.all_valid


class TestE05:
    def test_all_valid_and_lemma_iv2(self):
        result = e05_hierarchical_validity.run(
            machine_counts=(3, 5, 7), trials=8, n_jobs=8
        )
        assert result.all_valid
        assert result.lemma_iv2_holds


class TestE06:
    def test_lemma_v1_holds(self):
        result = e06_pushdown.run(machine_counts=(3, 4, 5), n_jobs=5)
        assert result.lemma_holds


class TestE07:
    def test_theorem_v2_bound(self):
        result = e07_two_approx_ratio.run(
            shapes=((4, 3), (6, 3)), trials=4
        )
        assert result.bound_holds
        for row in result.rows:
            if row.vs_opt is not None:
                assert row.vs_opt.maximum <= 2.0 + 1e-12


class TestE08:
    def test_matches_paper_formulas(self):
        result = e08_gap_family.run(sizes=(3, 4, 5, 6))
        assert result.matches_paper
        gaps = [float(r.gap) for r in result.rows]
        assert gaps == sorted(gaps)  # gap increases toward 2
        assert gaps[-1] < 2.0


class TestE09:
    def test_eight_approx_bound(self):
        result = e09_general_masks.run(shapes=((4, 3), (6, 4)), trials=5)
        assert result.bound_holds


class TestE10:
    def test_model1_bounds(self):
        result = e10_memory_model1.run(
            shapes=(("semi", 5, 2), ("clustered", 6, 4)), trials=3
        )
        assert result.bounds_hold
        assert any(r.completed for r in result.rows)


class TestE11:
    def test_model2_bounds(self):
        result = e11_memory_model2.run(configs=((2, 2, 3), (4, 2, 4)), trials=3)
        assert result.bounds_hold
        assert any(r.completed for r in result.rows)
        # No fallback drops: evidence for Lemma VI.2's existence claim.
        assert all(r.fallback_drops == 0 for r in result.rows)


class TestE12:
    def test_hierarchy_never_loses_and_crossovers_appear(self):
        result = e12_scheduler_comparison.run(n_jobs=5, trials=2)
        assert result.hierarchy_never_loses
        by_name = {r.workload: r for r in result.rows}
        coarse = by_name["coarse saturated"]
        # Partitioning must pay for not splitting on saturated coarse grains.
        assert coarse.normalized["partitioned"] is not None
        assert coarse.normalized["partitioned"] > 1.05
        # Global must pay migration overhead on the migration-averse mix.
        averse = by_name["migration-averse"]
        assert averse.normalized["global"] is None or averse.normalized["global"] > 1.2


class TestE13:
    def test_gaps_at_most_2(self):
        result = e13_integrality.run(trials=6, gap_ms=(2, 3, 4))
        assert result.gaps_at_most_2
        # The gap family approaches 2 from below: 2 − 1/m exactly.
        for gm, T_star, opt, gap in result.gap_family_rows:
            assert gap == 2 - (1 / __import__("fractions").Fraction(gm))


class TestE14:
    def test_runs_and_reports(self):
        result = e14_scaling.run(shapes=((5, 3),), backends=("exact", "hybrid"))
        assert len(result.rows) == 2
        assert all(r.seconds >= 0 for r in result.rows)
        assert all(r.ratio_vs_lp <= 2.0 + 1e-9 for r in result.rows)


class TestE15:
    def test_hierarchy_dominates_and_partitioned_decays(self):
        from repro.experiments import e15_schedulability

        result = e15_schedulability.run(
            utilizations=(0.6, 1.0), m=4, T_ref=20, trials=4
        )
        assert result.hierarchy_dominates
        # At u = 1.0 the flexible classes must still function.
        last = result.rows[-1]
        assert last.acceptance["hierarchical"] >= last.acceptance["partitioned"]

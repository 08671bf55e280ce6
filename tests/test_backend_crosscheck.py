"""Property-based cross-check: the exact and hybrid backends agree.

On random hierarchical instances both backends must return the same
feasibility verdicts and — after certification — the same ``T*`` to
*exact* equality.  Any divergence means an uncertified float value leaked
through the solver stack.
"""

from fractions import Fraction

import pytest

from repro import minimal_fractional_T
from repro.core.programs import IP3Builder, lp_feasible
from repro.workloads import random_hierarchical, random_semi_partitioned, rng_from_seed

BACKENDS = ("exact", "hybrid")


def _instances():
    for seed in (1, 7, 23, 140, 999):
        rng = rng_from_seed(seed)
        yield random_hierarchical(rng, n=int(rng.integers(3, 8)), m=int(rng.integers(2, 5)))
    for seed in (5, 11):
        rng = rng_from_seed(seed)
        yield random_semi_partitioned(rng, n=5, m=3)


def _t_star_cases():
    """``(instance, expected T* or None)``: :func:`_instances`, plus one pin.

    Seed 3 at 24×8 is where a rationalized HiGHS optimum, taken without
    exact certification, came out 1.2e-12 above the true ``T*``.
    """
    for inst in _instances():
        yield inst, None
    yield (
        random_hierarchical(rng_from_seed(3), n=24, m=8),
        Fraction(45000454, 1222137),
    )


class TestBackendAgreement:
    @pytest.mark.parametrize("idx", range(8))
    def test_t_star_exact_equality(self, idx):
        inst, expected = list(_t_star_cases())[idx]
        values = {b: minimal_fractional_T(inst, backend=b) for b in BACKENDS}
        assert values["exact"] == values["hybrid"]
        assert isinstance(values["hybrid"], Fraction)
        if expected is not None:
            assert values["exact"] == expected

    @pytest.mark.parametrize("idx", range(7))
    def test_feasibility_verdicts_agree(self, idx):
        inst = list(_instances())[idx]
        builder = IP3Builder(inst)
        points = builder.breakpoints
        # Probe at breakpoints, between them, and below the smallest one.
        probes = list(points[:4])
        if len(points) >= 2:
            probes.append((points[0] + points[1]) / 2)
        probes.append(points[0] / 2)
        for T in probes:
            verdicts = {b: lp_feasible(inst, T, backend=b) for b in BACKENDS}
            assert verdicts["exact"] == verdicts["hybrid"], (
                f"backends disagree at T={T}: {verdicts}"
            )

    def test_t_star_is_feasibility_threshold(self):
        # T* itself is feasible, anything strictly below is not — for every
        # backend, certified.
        inst = list(_instances())[0]
        t_star = minimal_fractional_T(inst, backend="hybrid")
        below = t_star * Fraction(99, 100)
        for backend in BACKENDS:
            assert lp_feasible(inst, t_star, backend=backend)
            assert not lp_feasible(inst, below, backend=backend)


class TestTwoApproxAcrossBackends:
    def test_same_t_lp_and_valid_bound(self):
        from repro import two_approximation, validate_schedule

        rng = rng_from_seed(77)
        inst = random_hierarchical(rng, n=6, m=3)
        results = {b: two_approximation(inst, backend=b) for b in BACKENDS}
        t_values = {b: r.T_lp for b, r in results.items()}
        assert t_values["exact"] == t_values["hybrid"]
        for backend, result in results.items():
            assert result.makespan <= 2 * result.T_lp
            report = validate_schedule(
                result.instance, result.assignment, result.schedule
            )
            assert report.valid, f"{backend} produced an invalid schedule"

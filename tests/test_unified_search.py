"""One ``T*`` search: the R||Cmax bound and both memory models run the
(IP-3) breakpoint search of :mod:`repro.core.programs`.

The seeded pins below were captured from the earlier hand-rolled searches
(a bisection over every breakpoint with a keyed min-T LP per bracket, one
copy in ``baselines/lst_unrelated.py`` and one in ``core/memory.py``).
``T*`` is the exact minimum of the same feasible set, so the shared search
must return the same values on both backends, and the same exception types.
"""

from fractions import Fraction

import pytest
from _int_rows import min_T_rows, probe_rows

from repro import INF, Instance, LaminarFamily
from repro.baselines import minimal_unrelated_T
from repro.core.memory import (
    minimal_model1_T,
    minimal_model2_T,
    model1_lp_feasible,
    solve_model1,
    solve_model1_exact,
)
from repro.core.programs import IP3Builder, _minimal_T
from repro.exceptions import InfeasibleError, InvalidInstanceError
from repro.obs.trace import tracing
from repro.workloads import random_semi_partitioned, rng_from_seed
from repro.workloads.generators import monotone_instance

BACKENDS = ("exact", "hybrid")


def _model1_case(seed):
    """An E10-shaped draw; every fourth one has half the E10 headroom."""
    rng = rng_from_seed(1000 + seed)
    kind, n, m = [("semi", 6, 2), ("semi", 8, 4), ("clustered", 6, 4)][seed % 3]
    if kind == "semi":
        inst = random_semi_partitioned(rng, n=n, m=m)
    else:
        inst = monotone_instance(rng, LaminarFamily.clustered(m, 2), n=n)
    space = [[int(rng.integers(1, 4)) for _ in range(m)] for _ in range(n)]
    total = sum(min(row) for row in space)
    scale = Fraction(3, 4) if seed % 4 == 3 else Fraction(3, 2)
    per_machine = max(3, int(scale * total / m))
    return inst, space, {i: per_machine for i in range(m)}


def _uniform_tree(m, arity):
    sets = [frozenset(range(m))]
    level = [frozenset(range(m))]
    while True:
        below = []
        for node in level:
            members = sorted(node)
            if len(members) <= arity:
                break
            size = len(members) // arity
            for c in range(arity):
                below.append(frozenset(members[c * size:(c + 1) * size]))
        if not below:
            break
        sets.extend(below)
        level = below
    sets.extend(frozenset([i]) for i in range(m))
    return LaminarFamily(range(m), set(sets))


def _model2_case(seed):
    """An E11-shaped draw on a binary uniform tree."""
    rng = rng_from_seed(2000 + seed)
    m, n = [(2, 4), (4, 6), (8, 8)][seed % 3]
    inst = monotone_instance(rng, _uniform_tree(m, 2), n=n)
    sizes = [Fraction(int(rng.integers(1, 5)), 8) for _ in range(n)]
    mu = [Fraction(2), Fraction(3, 2)][seed % 2]
    return inst, sizes, mu


def _unrelated_case(seed):
    """A matrix over machine ids 1, 3, 5, … with missing and INF entries."""
    rng = rng_from_seed(3000 + seed)
    n, m = [(5, 3), (8, 4), (10, 3)][seed % 3]
    p = {}
    for j in range(n):
        row = {}
        for i in (2 * k + 1 for k in range(m)):
            v = int(rng.integers(0, 12))
            if v >= 10 and row:
                continue
            row[i] = INF if v == 9 and row else v
        p[j] = row
    return p


MODEL1_PINS = [
    "23", "39", "937/44", InfeasibleError, "30", "68997/2633", "976/35", "21",
    "21", "1727/72", "349/15", "15", "2170/71", "1653619/61242", "21",
    InfeasibleError,
]
MODEL2_PINS = [
    "144/11", "18", "20", "1223/35", "25", "20", "326/15", "1753/82", "19",
    "533/21", "17", "19",
]
UNRELATED_PINS = [
    "23/7", "84/11", "819/89", "33/5", "6", "10", "5", "17/5", "151/16", "6",
    "9", "57/5",
]


def _check(pin, fn, *args, **kwargs):
    if isinstance(pin, str):
        assert fn(*args, **kwargs) == Fraction(pin)
    else:
        with pytest.raises(pin):
            fn(*args, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(len(MODEL1_PINS)))
def test_model1_T_pinned(seed, backend):
    _check(MODEL1_PINS[seed], minimal_model1_T, *_model1_case(seed), backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(len(MODEL2_PINS)))
def test_model2_T_pinned(seed, backend):
    _check(MODEL2_PINS[seed], minimal_model2_T, *_model2_case(seed), backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(len(UNRELATED_PINS)))
def test_unrelated_T_pinned(seed, backend):
    _check(UNRELATED_PINS[seed], minimal_unrelated_T, _unrelated_case(seed), backend=backend)


@pytest.fixture
def memory_instance():
    return Instance.semi_partitioned(p_local=[[2, 2]] * 4, p_global=[3] * 4)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMemoryEdges:
    def test_model1_infeasible_at_every_horizon(self, memory_instance, backend):
        # Each job charges at least one unit somewhere; 4 units > 2 budget.
        with pytest.raises(InfeasibleError):
            minimal_model1_T(memory_instance, [[1, 1]] * 4, {0: 1, 1: 1}, backend=backend)

    def test_model1_job_pruned_everywhere(self, memory_instance, backend):
        space = [[5, 5]] + [[1, 1]] * 3
        with pytest.raises(InfeasibleError):
            minimal_model1_T(memory_instance, space, {0: 2, 1: 2}, backend=backend)

    def test_model2_infeasible_at_every_horizon(self, backend):
        # Three half-size jobs that may only use leaf {0}, of capacity 1.
        inst = Instance.clustered(
            2, p_local=[[1, INF, INF, INF]] * 3, p_cluster=[[INF, INF]] * 3,
            p_global=[INF] * 3,
        )
        with pytest.raises(InfeasibleError):
            minimal_model2_T(inst, [Fraction(1, 2)] * 3, 2, backend=backend)

    def test_model2_job_without_options(self, backend):
        inst = Instance.semi_partitioned(p_local=[[1, 1], [INF, INF]], p_global=[2, INF])
        with pytest.raises(InfeasibleError):
            minimal_model2_T(inst, [Fraction(1, 2)] * 2, 2, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestUnrelatedEdges:
    def test_non_contiguous_machine_ids(self, backend):
        assert minimal_unrelated_T({0: {5: 3, 9: 4}, 1: {5: 2}}, backend=backend) == 4

    def test_all_zero_times(self, backend):
        assert minimal_unrelated_T({0: {0: 0, 1: 0}, 1: {0: 0}}, backend=backend) == 0

    def test_inf_entries(self, backend):
        p = {0: {0: 2, 1: INF}, 1: {0: INF, 1: 3}, 2: {0: 1, 1: 1}}
        assert minimal_unrelated_T(p, backend=backend) == 3

    @pytest.mark.parametrize(
        "p",
        [
            {0: {0: 2}, 1: {0: INF, 1: INF}},
            {0: {0: 2}, 1: {}},
            {},
            {0: {0: INF}},
        ],
        ids=["inf-row", "empty-row", "empty-matrix", "all-inf"],
    )
    def test_job_without_finite_time(self, p, backend):
        with pytest.raises(InfeasibleError):
            minimal_unrelated_T(p, backend=backend)


class TestModel1Validation:
    """A missing or non-positive budget is an invalid instance at every
    Model 1 entry point, whatever the pruning would have found first."""

    SPACE = [[1, 1]] * 4

    def _entry_points(self, inst, budgets):
        return [
            lambda: solve_model1(inst, self.SPACE, budgets, 10),
            lambda: model1_lp_feasible(inst, self.SPACE, budgets, 10),
            lambda: minimal_model1_T(inst, self.SPACE, budgets),
            lambda: solve_model1_exact(inst, self.SPACE, budgets),
        ]

    @pytest.mark.parametrize("entry", range(4))
    def test_every_budget_zero(self, memory_instance, entry):
        with pytest.raises(InvalidInstanceError, match="must be positive"):
            self._entry_points(memory_instance, {0: 0, 1: 0})[entry]()

    @pytest.mark.parametrize("entry", range(4))
    def test_missing_budget(self, memory_instance, entry):
        with pytest.raises(InvalidInstanceError, match="machine 1 has no memory budget"):
            self._entry_points(memory_instance, {0: 2})[entry]()


class TestSideRows:
    @pytest.fixture
    def builder(self):
        inst = random_semi_partitioned(rng_from_seed(7), n=6, m=3)
        side = [
            ({(alpha, j): Fraction(1 + j % 2) for j, alpha, _p in IP3Builder(inst).finite
              if i in alpha}, Fraction(5))
            for i in range(3)
        ]
        return IP3Builder(inst, side)

    def test_side_rows_follow_the_load_rows(self, builder):
        loads = len(builder.assign_template) + len(builder.load_template)
        for T in builder.breakpoints:
            rows, senses, rhs, active = probe_rows(builder, T)
            assert len(rows) == loads + 3
            assert senses[loads:] == ["<="] * 3 and rhs[loads:] == [5] * 3
            program = min_T_rows(builder, T, T)
            if program is None:
                continue
            min_rows, min_senses, min_rhs, _objective, _active = program
            # Side rows sit before T ≥ t_low and carry no T entry.
            assert min_rows[loads:-1] == [
                {1 + col: c for col, c in row.items()} for row in rows[loads:]
            ]
            assert min_senses[-1] == ">=" and min_rhs[loads:-1] == [5] * 3

    def test_zero_times_with_infeasible_side_rows_raise(self):
        inst = Instance.identical(2, [0, 0])
        root = frozenset({0, 1})
        assert _minimal_T(IP3Builder(inst), "exact") == 0
        side = [({(root, 0): 1, (root, 1): 1}, Fraction(1))]
        with pytest.raises(InfeasibleError):
            _minimal_T(IP3Builder(inst, side), "exact")
        assert _minimal_T(IP3Builder(inst, [(side[0][0], Fraction(2))]), "exact") == 0


def test_memory_models_emit_the_shared_search_spans(memory_instance):
    with tracing() as tracer:
        minimal_model1_T(memory_instance, [[1, 1]] * 4, {0: 2, 1: 2}, backend="exact")
        minimal_model2_T(memory_instance, [Fraction(1, 2)] * 4, 2, backend="exact")
    names = [s.name for s in tracer.spans]
    assert names.count("search.minimal_fractional_T") == 2

"""Section VI — memory-constrained hierarchical scheduling.

Two extensions of (IP-3) with per-job memory footprints:

**Model 1** (Theorem VI.1): machine *i* has budget ``B_i``; job *j* assigned
to mask ``α`` consumes ``s_ij`` on *every* machine ``i ∈ α``:

    Σ_j s_ij · Σ_{α ∋ i} x_{αj} ≤ B_i          (7)

Iterative rounding (rows dropped once ≤ 2 fractional variables remain)
yields a schedule with makespan ≤ 3T and memory ≤ 3·B_i.

**Model 2** (Theorem VI.3): the family is a uniform tree; a node of height
``h`` (root excluded) has capacity ``µ^h``; job *j* has size ``s_j ≤ 1``:

    Σ_j s_j x_{αj} ≤ µ^{h(α)}                  (9)

Lemma VI.2 with ρ = 1 + H_k (column-sum bound computed in the paper's
Theorem VI.3 proof) yields σ = 2 + H_k bicriteria; for k = 2 levels the
tighter ρ = 2 + 1/m gives σ = 3 + 1/m.

Both solvers return the rounded assignment, the realized schedule (built at
the *actual* minimal horizon of the assignment, never worse than σ·T), and
the measured memory violations, so experiments E10/E11 can compare against
the theorems' guarantees.

The smallest LP-feasible horizons (:func:`minimal_model1_T`,
:func:`minimal_model2_T`) are not searched here: rows (7) and (9) do not
depend on ``T``, so each model is (IP-3) plus *side rows* of
:class:`~repro.core.programs.IP3Builder`, and the (IP-3) breakpoint search
of :mod:`repro.core.programs` finds ``T*`` with its bound, probe reuse and
min-T LPs.  Model 1 hands it a copy of the instance in which the
budget-pruned pairs are ``INF``.  The decision verdicts
(:func:`model1_lp_feasible`, :func:`model2_lp_feasible`) are one probe of
the same builder, as :func:`repro.core.programs.lp_feasible` is for
(IP-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, InvalidInstanceError
from ..lp.solve import _resolve_backend
from ..rounding.iterative import IterativeRoundingResult, PackingRow, iterative_round
from ..schedule.schedule import Schedule
from .assignment import Assignment, min_T_for_assignment
from .hierarchical import schedule_hierarchical
from .instance import Instance
from .laminar import MachineSet
from .programs import IP3Builder, _minimal_T, _ProbeSession, admissible_pairs

Time = Union[int, Fraction]


def harmonic(k: int) -> Fraction:
    """The k-th harmonic number ``H_k = 1 + 1/2 + … + 1/k``."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# Model 1
# ---------------------------------------------------------------------------


@dataclass
class Model1Result:
    instance: Instance
    T: Fraction
    """The horizon whose LP the rounding started from."""

    assignment: Assignment
    schedule: Schedule
    makespan: Fraction
    memory_usage: Dict[int, Fraction]
    budgets: Dict[int, Fraction]
    rounding: IterativeRoundingResult

    @property
    def makespan_ratio(self) -> Fraction:
        """``makespan / T`` — Theorem VI.1 guarantees ≤ 3."""
        return self.makespan / self.T if self.T else Fraction(0)

    @property
    def max_memory_ratio(self) -> Fraction:
        """``max_i usage_i / B_i`` — Theorem VI.1 guarantees ≤ 3."""
        ratios = [
            self.memory_usage[i] / self.budgets[i]
            for i in self.budgets
            if self.budgets[i] > 0
        ]
        return max(ratios) if ratios else Fraction(0)


def _model1_rows(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Fraction,
) -> Tuple[Dict[int, List], List[PackingRow]]:
    """Groups and packing rows of (IP-3)+(7) at horizon *T*.

    Pairs whose memory footprint alone would exceed some budget are pruned
    (they could never be 1 in a solution within the budgets) — this keeps
    every coefficient ≤ its row bound, the property behind the "3×".
    Every Model 1 entry point starts here, so the budgets are validated
    first: a missing or non-positive budget is an invalid instance, whatever
    the pruning would have found.
    """
    for i in sorted(instance.machines):
        if i not in budgets:
            raise InvalidInstanceError(f"machine {i} has no memory budget")
        if to_fraction(budgets[i]) <= 0:
            raise InvalidInstanceError(f"budget of machine {i} must be positive")
    pairs = admissible_pairs(instance, T)
    groups: Dict[int, List] = {j: [] for j in range(instance.n)}
    for alpha, j in pairs:
        if any(to_fraction(space[j][i]) > to_fraction(budgets[i]) for i in alpha):
            continue
        groups[j].append((alpha, j))
    for j, keys in groups.items():
        if not keys:
            raise InfeasibleError(
                f"job {j} has no admissible set within T={T} and the budgets"
            )
    key_sets = {j: set(keys) for j, keys in groups.items()}
    rows: List[PackingRow] = []
    for alpha in instance.family.sets:
        coeffs: Dict = {}
        for beta in instance.family.subsets_of(alpha):
            for j in range(instance.n):
                key = (beta, j)
                if key in key_sets[j]:
                    coeffs[key] = to_fraction(instance.p(j, beta))
        rows.append(PackingRow(f"load[{sorted(alpha)}]", coeffs, len(alpha) * T))
    for i in sorted(instance.machines):
        coeffs = {}
        for j in range(instance.n):
            s = to_fraction(space[j][i])
            if s == 0:
                continue
            for key in groups[j]:
                alpha, _j = key
                if i in alpha:
                    coeffs[key] = s
        rows.append(PackingRow(f"mem[{i}]", coeffs, to_fraction(budgets[i])))
    return groups, rows


def solve_model1(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Time,
    backend: str = "hybrid",
) -> Model1Result:
    """Theorem VI.1: round (IP-3)+(7) at horizon *T* into a schedule.

    *space[j][i]* is job *j*'s footprint on machine *i*.  Raises
    :class:`InfeasibleError` when the LP relaxation at *T* is infeasible
    (the theorem's precondition).
    """
    T = to_fraction(T)
    groups, rows = _model1_rows(instance, space, budgets, T)
    rounding = iterative_round(groups, rows, max_drop_vars=2, backend=backend)
    masks: Dict[int, MachineSet] = {}
    for (alpha, j), value in rounding.values.items():
        if value == 1:
            masks[j] = alpha
    assignment = Assignment(masks)
    T_final = min_T_for_assignment(instance, assignment)
    schedule = schedule_hierarchical(instance, assignment, T_final)
    memory_usage: Dict[int, Fraction] = {}
    for i in sorted(instance.machines):
        usage = Fraction(0)
        for j, alpha in assignment.items():
            if i in alpha:
                usage += to_fraction(space[j][i])
        memory_usage[i] = usage
    return Model1Result(
        instance=instance,
        T=T,
        assignment=assignment,
        schedule=schedule,
        makespan=schedule.makespan(),
        memory_usage=memory_usage,
        budgets={i: to_fraction(budgets[i]) for i in sorted(instance.machines)},
        rounding=rounding,
    )


def model1_lp_feasible(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Time,
    backend: str = "hybrid",
) -> bool:
    """Whether the LP relaxation of (IP-3)+(7) is feasible at *T*.

    Certified for every backend: one probe of the model's builder (see
    :func:`_memory_lp_feasible`).
    """
    return _memory_lp_feasible(
        instance, lambda T: _model1_rows(instance, space, budgets, T), T, backend
    )


def _memory_builder(instance: Instance, rows_at) -> IP3Builder:
    """The (IP-3) builder of a memory model: its pairs, with side rows.

    *rows_at(T)* returns ``(groups, rows)``.  Evaluated once at the top
    breakpoint, where ``R`` is every finite pair, it gives the model's
    pairs (*groups*, which Model 1 prunes by budget) and its memory rows,
    which do not depend on ``T``; the builder takes the instance with every
    other pair ``INF`` and the memory rows as side rows.
    """
    finite = [
        to_fraction(instance.p(j, alpha))
        for j in range(instance.n)
        for alpha in instance.family.sets
        if not is_inf(instance.p(j, alpha))
    ]
    if not finite:
        raise InfeasibleError("no finite processing times")
    groups, rows = rows_at(max(finite))
    pruned = Instance(
        instance.family,
        {j: {alpha: instance.p(j, alpha) for alpha, _j in keys} for j, keys in groups.items()},
        validate=False,
    )
    side_rows = [(row.coeffs, row.bound) for row in rows if not row.name.startswith("load[")]
    return IP3Builder(pruned, side_rows)


def _memory_lp_feasible(instance: Instance, rows_at, T: Time, backend: str) -> bool:
    """Certified verdict of a memory model's LP at *T*: one
    :class:`~repro.core.programs._ProbeSession` probe of its
    :func:`_memory_builder`, the memory rows riding as side rows.  A job
    with no pair within *T* and the model's pruning is infeasible, and so
    is a model with no pair at any horizon."""
    _resolve_backend(backend)
    try:
        builder = _memory_builder(instance, rows_at)
    except InfeasibleError:
        return False
    return _ProbeSession(builder, backend).probe(to_fraction(T)) is not None


def minimal_model1_T(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    backend: str = "hybrid",
) -> Fraction:
    """Smallest horizon at which (IP-3)+(7)'s LP relaxation is feasible."""
    builder = _memory_builder(
        instance, lambda T: _model1_rows(instance, space, budgets, T)
    )
    return _minimal_T(builder, backend)


def solve_model1_exact(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    backend: str = "hybrid",
) -> Tuple[Fraction, Assignment]:
    """Exact minimum makespan honoring the memory budgets *strictly*.

    Minimizes a continuous ``T`` over binary assignments subject to the load
    rows (scaled by T) and the hard memory rows (7) via branch-and-bound —
    the uncompromising reference the bicriteria Theorem VI.1 trades against.
    Small instances only.  Raises :class:`InfeasibleError` when no integral
    assignment fits the budgets at any horizon.
    """
    from ..lp.branch_and_bound import solve_binary_ilp
    from ..lp.model import LinearProgram

    # The largest relevant pruning anchor: every pair not ruled out by a
    # budget may participate at a sufficiently large horizon.
    _lo, hi = instance.trivial_bounds()
    anchor = to_fraction(hi)
    groups, rows = _model1_rows(instance, space, budgets, anchor)

    t_key = ("__T__",)
    lp = LinearProgram()
    lp.add_variable(t_key, lb=0)
    for j, keys in groups.items():
        for key in keys:
            lp.add_variable(key, lb=0, ub=1, integral=True)
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for row in rows:
        if row.name.startswith("load["):
            per_T = row.bound / anchor  # |α|
            coeffs = dict(row.coeffs)
            coeffs[t_key] = -per_T
            lp.add_constraint(coeffs, "<=", 0, name=row.name)
        else:
            lp.add_constraint(row.coeffs, "<=", row.bound, name=row.name)
    # Constraint (2c): a chosen pair's processing time bounds T from below.
    for j, keys in groups.items():
        for key in keys:
            alpha, _j = key
            p = to_fraction(instance.p(j, alpha))
            if p > 0:
                lp.add_constraint({key: p, t_key: -1}, "<=", 0)
    lp.set_objective({t_key: 1})
    result = solve_binary_ilp(lp, backend=backend)
    if not result.is_optimal:
        raise InfeasibleError("no integral assignment fits the memory budgets")
    masks: Dict[int, MachineSet] = {}
    for key, value in result.values.items():
        if isinstance(key, tuple) and len(key) == 2 and value == 1:
            alpha, j = key
            masks[j] = alpha
    assignment = Assignment(masks)
    return min_T_for_assignment(instance, assignment), assignment


# ---------------------------------------------------------------------------
# Model 2
# ---------------------------------------------------------------------------


@dataclass
class Model2Result:
    instance: Instance
    T: Fraction
    assignment: Assignment
    schedule: Schedule
    makespan: Fraction
    memory_usage: Dict[MachineSet, Fraction]
    capacities: Dict[MachineSet, Fraction]
    rho: Fraction
    sigma: Fraction
    """The theorem's guarantee ``σ = 1 + ρ`` (= 2 + H_k, or 3 + 1/m for k=2)."""

    rounding: IterativeRoundingResult

    @property
    def makespan_ratio(self) -> Fraction:
        return self.makespan / self.T if self.T else Fraction(0)

    @property
    def max_memory_ratio(self) -> Fraction:
        ratios = [
            self.memory_usage[a] / self.capacities[a]
            for a in self.capacities
            if self.capacities[a] > 0
        ]
        return max(ratios) if ratios else Fraction(0)


def model2_rho(instance: Instance) -> Fraction:
    """The column-sum bound of Theorem VI.3's proof.

    ``1 + H_k`` in general; the tighter ``2 + 1/m`` when the family has two
    levels (the semi-partitioned case analyzed at the end of the proof).
    """
    k = instance.family.num_levels
    if k == 2:
        return 2 + Fraction(1, instance.m)
    return 1 + harmonic(k)


def _model2_rows(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Fraction,
) -> Tuple[Dict[int, List], List[PackingRow], Dict[MachineSet, Fraction]]:
    family = instance.family
    if not family.is_tree:
        raise InvalidInstanceError("Model 2 requires a tree-shaped family")
    mu = to_fraction(mu)
    if mu <= 1:
        raise InvalidInstanceError(f"µ must exceed 1, got {mu}")
    for j in range(instance.n):
        s = to_fraction(sizes[j])
        if not 0 <= s <= 1:
            raise InvalidInstanceError(f"job size s_{j}={s} outside [0, 1]")

    pairs = admissible_pairs(instance, T)
    groups: Dict[int, List] = {j: [] for j in range(instance.n)}
    for alpha, j in pairs:
        groups[j].append((alpha, j))
    for j, keys in groups.items():
        if not keys:
            raise InfeasibleError(f"job {j} has no admissible set within T={T}")
    key_sets = {j: set(keys) for j, keys in groups.items()}

    rows: List[PackingRow] = []
    for alpha in family.sets:
        coeffs: Dict = {}
        for beta in family.subsets_of(alpha):
            for j in range(instance.n):
                key = (beta, j)
                if key in key_sets[j]:
                    coeffs[key] = to_fraction(instance.p(j, beta))
        rows.append(PackingRow(f"load[{sorted(alpha)}]", coeffs, len(alpha) * T))
    capacities: Dict[MachineSet, Fraction] = {}
    root = frozenset(instance.machines)
    for alpha in family.sets:
        if alpha == root:
            continue  # the root has unbounded capacity
        cap = mu ** family.height(alpha)
        capacities[alpha] = cap
        coeffs = {}
        for j in range(instance.n):
            key = (alpha, j)
            if key in key_sets[j]:
                s = to_fraction(sizes[j])
                if s > 0:
                    coeffs[key] = s
        rows.append(PackingRow(f"mem[{sorted(alpha)}]", coeffs, cap))
    return groups, rows, capacities


def solve_model2(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Time,
    backend: str = "hybrid",
) -> Model2Result:
    """Theorem VI.3: round (IP-4) at horizon *T* with Lemma VI.2.

    *sizes[j]* ≤ 1 is job *j*'s memory footprint; a node of height ``h``
    has capacity ``µ^h`` (root unbounded).
    """
    T = to_fraction(T)
    groups, rows, capacities = _model2_rows(instance, sizes, mu, T)
    rho = model2_rho(instance)
    rounding = iterative_round(groups, rows, rho=rho, backend=backend)
    masks: Dict[int, MachineSet] = {}
    for (alpha, j), value in rounding.values.items():
        if value == 1:
            masks[j] = alpha
    assignment = Assignment(masks)
    T_final = min_T_for_assignment(instance, assignment)
    schedule = schedule_hierarchical(instance, assignment, T_final)
    memory_usage: Dict[MachineSet, Fraction] = {}
    for alpha in capacities:
        memory_usage[alpha] = sum(
            (to_fraction(sizes[j]) for j, a in assignment.items() if a == alpha),
            Fraction(0),
        )
    return Model2Result(
        instance=instance,
        T=T,
        assignment=assignment,
        schedule=schedule,
        makespan=schedule.makespan(),
        memory_usage=memory_usage,
        capacities=capacities,
        rho=rho,
        sigma=1 + rho,
        rounding=rounding,
    )


def model2_lp_feasible(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Time,
    backend: str = "hybrid",
) -> bool:
    """Whether the LP relaxation of (IP-4) is feasible at *T*.

    Certified for every backend: one probe of the model's builder (see
    :func:`_memory_lp_feasible`).
    """
    return _memory_lp_feasible(
        instance, lambda T: _model2_rows(instance, sizes, mu, T)[:2], T, backend
    )


def minimal_model2_T(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    backend: str = "hybrid",
) -> Fraction:
    """Smallest horizon at which (IP-4)'s LP relaxation is feasible."""
    builder = _memory_builder(
        instance, lambda T: _model2_rows(instance, sizes, mu, T)[:2]
    )
    return _minimal_T(builder, backend)

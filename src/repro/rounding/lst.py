"""Lenstra–Shmoys–Tardos rounding for unrelated machine scheduling.

Given a horizon ``T`` at which the R||Cmax assignment LP

    Σ_i x_{ij} = 1            (j ∈ J, over machines i with p_{ij} ≤ T)
    Σ_j p_{ij} x_{ij} ≤ T     (i ∈ M)
    x ≥ 0

is feasible, the classic rounding [Lenstra, Shmoys, Tardos 1990] produces an
*integral* assignment with makespan at most ``2T``: integral variables of a
basic solution are kept, and the fractional jobs — whose support graph is a
pseudo-forest in which every fractional job has degree ≥ 2 — are matched to
machines so each machine receives at most one extra job of size ≤ T.

This is the engine behind Theorem V.2: after Lemma V.1's push-down, the
hierarchical LP solution lives on singletons and *is* such an LP solution.

:func:`lst_round` solves that LP from integer rows
(:func:`unrelated_rows`, the integer-row contract of
:mod:`repro.lp.solve`): the times are integers over one common
denominator (:class:`IntegerTimes`), taken from a processing-time matrix or,
for Theorem V.2, straight from the search's
:meth:`~repro.core.programs.IP3Builder.singleton_times`.  The rows are
those of :func:`build_unrelated_lp`, the keyed form, scaled as the exact
kernel scales them, so no :class:`~repro.lp.model.LinearProgram` is built
on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Tuple, Union

from .._fraction import INF, is_inf, to_fraction, to_fraction_finite
from ..exceptions import InfeasibleError, RoundingError
from ..lp.model import LinearProgram

# solve_lp is unused here; kept bound because perfbench/layers.py wraps it.
from ..lp.solve import solve_lp, solve_rows  # noqa: F401
from .matching import maximum_bipartite_matching
from .pseudoforest import connected_components

Time = Union[int, Fraction]
PMatrix = Mapping[int, Mapping[int, Union[int, Fraction, float]]]


@dataclass(frozen=True)
class IntegerTimes:
    """``R||Cmax`` processing times as integers over one common denominator.

    ``jobs`` lists ``(job, [(machine, P), …])`` by increasing job, each
    job's finite times by increasing machine; job ``j`` takes
    ``P / denominator`` on machine ``i``.
    """

    jobs: List[Tuple[int, List[Tuple[int, int]]]]
    denominator: int

    @classmethod
    def from_matrix(cls, p: PMatrix) -> "IntegerTimes":
        """The finite entries of *p* (``job -> {machine: time}``)."""
        rows = [
            (j, [(i, to_fraction(p[j][i])) for i in sorted(p[j]) if not is_inf(p[j][i])])
            for j in sorted(p)
        ]
        den = lcm(*{v.denominator for _j, row in rows for _i, v in row})
        return cls(
            [
                (j, [(i, v.numerator * (den // v.denominator)) for i, v in row])
                for j, row in rows
            ],
            den,
        )


def unrelated_rows(
    times: IntegerTimes, T: Time
) -> Tuple[List[Dict[int, int]], List[str], List[int], List[int], List[Tuple[int, int]]]:
    """The LP of :func:`build_unrelated_lp` at horizon *T* as integer rows.

    Returns ``(coeff_rows, senses, rhs, scales, pairs)``: the rows of
    ``build_unrelated_lp(p, T).to_standard_rows()`` in the same order (one
    assignment row per job, an empty one for a job with no time within
    *T*; one load row per machine with a variable, ``p = 0`` entries
    omitted), each times ``scales[i]``, the lcm of its denominators (see
    :mod:`repro.lp.solve`).  ``pairs[col]`` is column ``col``'s
    ``(machine, job)``.
    """
    T = to_fraction(T)
    den = times.denominator
    t_num, t_den = T.numerator, T.denominator
    cap = t_num * den  # P / den ≤ T  ⇔  P·t_den ≤ cap
    coeff_rows: List[Dict[int, int]] = []
    pairs: List[Tuple[int, int]] = []
    loads: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in times.jobs:
        assign: Dict[int, int] = {}
        for i, P in row:
            if P * t_den <= cap:
                col = len(pairs)
                pairs.append((i, j))
                assign[col] = 1
                loads.setdefault(i, []).append((col, P))
        coeff_rows.append(assign)
    senses = ["=="] * len(coeff_rows)
    rhs = [1] * len(coeff_rows)
    scales = [1] * len(coeff_rows)
    for i in sorted(loads):
        entries = [(col, P) for col, P in loads[i] if P]
        scale = t_den
        if den != 1:
            for _col, P in entries:
                d = den // gcd(P, den)
                if scale % d:
                    scale = lcm(scale, d)
        coeff_rows.append({col: P * scale // den for col, P in entries})
        senses.append("<=")
        rhs.append(t_num * (scale // t_den))
        scales.append(scale)
    return coeff_rows, senses, rhs, scales, pairs


def build_unrelated_lp(p: PMatrix, T: Time) -> LinearProgram:
    """The R||Cmax assignment LP at horizon *T* (variables ``("x", i, j)``).

    *p* maps ``job -> {machine: time}``; pairs with ``p_{ij} > T`` (or INF)
    get no variable, which encodes the pruning.
    """
    T = to_fraction(T)
    lp = LinearProgram()
    machines: Dict[int, List[int]] = {}
    for j in sorted(p):
        allowed = []
        for i in sorted(p[j]):
            value = p[j][i]
            if not is_inf(value) and to_fraction(value) <= T:
                # ub implied by the assignment row; a bound row would only
                # bloat the tableau.
                lp.add_variable(("x", i, j), lb=0)
                allowed.append(i)
                machines.setdefault(i, []).append(j)
        if not allowed:
            lp.add_constraint({}, "==", 1, name=f"assign[{j}]")  # infeasible row
        else:
            lp.add_constraint(
                {("x", i, j): 1 for i in allowed}, "==", 1, name=f"assign[{j}]"
            )
    for i in sorted(machines):
        lp.add_constraint(
            {("x", i, j): to_fraction(p[j][i]) for j in machines[i]},
            "<=",
            T,
            name=f"load[{i}]",
        )
    return lp


def _fractional_graph(
    values: Mapping[Tuple[str, int, int], Fraction],
) -> Tuple[Dict[int, int], List[Tuple[Tuple[str, int], Tuple[str, int]]]]:
    """Split a basic LP solution into integral assignments + fractional edges.

    Returns ``(integral: job -> machine, edges)`` where edges connect
    ``("job", j)`` and ``("machine", i)`` nodes for fractional variables.
    """
    integral: Dict[int, int] = {}
    edges: List[Tuple[Tuple[str, int], Tuple[str, int]]] = []
    for (tag, i, j), value in sorted(values.items(), key=lambda kv: (kv[0][2], kv[0][1])):
        if tag != "x" or value == 0:
            continue
        if value == 1:
            if j in integral:
                raise RoundingError(f"job {j} integrally assigned twice")
            integral[j] = i
        else:
            edges.append((("job", j), ("machine", i)))
    return integral, edges


def round_fractional_solution(
    values: Mapping[Tuple[str, int, int], Fraction],
) -> Dict[int, int]:
    """Round a basic solution of the assignment LP to an integral assignment.

    Every fractional job is matched to one of its fractional machines; the
    matching exists because each pseudo-tree component with all job degrees
    ≥ 2 satisfies Hall's condition.  Raises :class:`RoundingError` when the
    input is not vertex-shaped (e.g. produced by a non-basic solver).
    """
    integral, edges = _fractional_graph(values)
    if not edges:
        return integral
    for component in connected_components(edges):
        if not component.is_pseudotree:
            raise RoundingError(
                "fractional support has a component with more edges than "
                "nodes; the LP solution is not basic"
            )
    adjacency: Dict[int, List[int]] = {}
    for (tag_u, j), (tag_v, i) in edges:
        adjacency.setdefault(j, []).append(i)
    matching = maximum_bipartite_matching(adjacency)
    unmatched = [j for j in adjacency if j not in matching]
    if unmatched:
        raise RoundingError(
            f"fractional jobs {unmatched} could not be matched; "
            f"the LP solution is not basic"
        )
    result = dict(integral)
    for j, i in matching.items():
        if j in result:
            raise RoundingError(f"job {j} both integral and fractional")
        result[j] = i
    return result


def lst_round(
    p: Union[PMatrix, IntegerTimes],
    T: Time,
    backend: str = "hybrid",
) -> Dict[int, int]:
    """Full LST step: solve the assignment LP at *T*, then round.

    *p* is a matrix ``job -> {machine: time}`` or its
    :class:`IntegerTimes`.  Returns ``job -> machine``.  The resulting
    per-machine load is at most ``2T`` (LP load ≤ T plus at most one extra
    job of size ≤ T).  Raises :class:`InfeasibleError` when the LP itself
    is infeasible at *T*.

    The rounding needs a *basic* solution; both backends guarantee one.
    The LP is :func:`unrelated_rows`, solved canonically, so the vertex is
    the one the keyed :func:`build_unrelated_lp` gives.
    """
    times = p if isinstance(p, IntegerTimes) else IntegerTimes.from_matrix(p)
    coeff_rows, senses, rhs, scales, pairs = unrelated_rows(times, T)
    result = solve_rows(
        coeff_rows, senses, rhs, [0] * len(pairs), backend=backend, scales=scales
    )
    if result.status != "optimal":
        raise InfeasibleError(f"assignment LP infeasible at T={T}")
    return round_fractional_solution(
        {("x", i, j): v for (i, j), v in zip(pairs, result.x) if v}
    )


def assignment_loads(p: PMatrix, assignment: Mapping[int, int]) -> Dict[int, Fraction]:
    """Per-machine load of an integral assignment.

    Assigning a job to a machine with ``p = INF`` is a domain error
    (:class:`~repro.exceptions.InvalidInstanceError`), not a coercion crash.
    """
    loads: Dict[int, Fraction] = {}
    for j, i in assignment.items():
        loads[i] = loads.get(i, Fraction(0)) + to_fraction_finite(
            p[j][i], f"processing time of job {j} on machine {i}"
        )
    return loads

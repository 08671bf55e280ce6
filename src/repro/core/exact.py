"""Exact optimal solving of the hierarchical scheduling problem.

Because the (IP-2) constraints are necessary *and* sufficient
(Theorem IV.3), the optimal makespan is

    opt(I) = min over assignments x of
             max( max_j p_{mask(j),j},  max_α Σ_{β⊆α} vol(β) / |α| )

so exact solving is a search over integral assignments.  A depth-first
branch-and-bound with exact arithmetic explores jobs in decreasing
cheapest-time order; admissible-set choices are tried cheapest-first and
pruned against the incumbent with two lower bounds (current partial load
vector, plus every unassigned job's cheapest remaining contribution).

Only meant for the small instances of the experiment suite (it is the
reference that E07 measures approximation ratios against); the 2-approx of
Section V is the scalable path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, SolverError
from ..schedule.schedule import Schedule
from .assignment import Assignment, min_T_for_assignment
from .hierarchical import schedule_hierarchical
from .instance import Instance
from .laminar import MachineSet


@dataclass
class ExactResult:
    assignment: Assignment
    optimum: Fraction
    nodes_explored: int

    def build_schedule(self, instance: Instance) -> Schedule:
        return schedule_hierarchical(instance, self.assignment, self.optimum)


def solve_exact(
    instance: Instance,
    upper_bound: Optional[Union[int, Fraction]] = None,
    node_limit: int = 2_000_000,
) -> ExactResult:
    """Find an assignment of provably minimal makespan.

    Parameters
    ----------
    upper_bound:
        An incumbent to start from (e.g. the 2-approximation's makespan);
        tightens pruning but never changes the result.
    node_limit:
        Safety cap on search nodes; exceeding it raises
        :class:`SolverError`.
    """
    family = instance.family
    sets = family.sets
    set_index = {s: k for k, s in enumerate(sets)}
    supersets: List[List[int]] = [
        [set_index[alpha]] + [set_index[a] for a in family.ancestors(alpha)]
        for alpha in sets
    ]
    sizes = [len(alpha) for alpha in sets]

    # Per-job options sorted cheapest-first; jobs ordered hardest-first
    # (largest cheapest time) so pruning bites early.
    options: List[List[Tuple[Fraction, int]]] = []
    for j in range(instance.n):
        opts = []
        for alpha in sets:
            p = instance.p(j, alpha)
            if not is_inf(p):
                opts.append((to_fraction(p), set_index[alpha]))
        if not opts:
            raise InfeasibleError(f"job {j} has no admissible set")
        opts.sort()
        options.append(opts)
    job_order = sorted(range(instance.n), key=lambda j: -options[j][0][0])

    # remaining_min[t] = Σ_{jobs from position t on} cheapest time — an
    # admissible heuristic for the total-volume bound at the root set(s).
    remaining_min: List[Fraction] = [Fraction(0)] * (instance.n + 1)
    for t in range(instance.n - 1, -1, -1):
        remaining_min[t] = remaining_min[t + 1] + options[job_order[t]][0][0]

    num_sets = len(sets)
    nested: List[Fraction] = [Fraction(0)] * num_sets  # Σ_{β⊆α} vol(β)
    chosen: List[int] = [-1] * instance.n
    best_T: Optional[Fraction] = to_fraction(upper_bound) if upper_bound is not None else None
    best_choice: Optional[List[int]] = None
    nodes = 0
    m = instance.m
    assigned_total = Fraction(0)

    def current_T(max_p: Fraction) -> Fraction:
        peak = max_p
        for k in range(num_sets):
            if nested[k] > sizes[k] * peak:
                peak = nested[k] / sizes[k]
        return peak

    def dfs(t: int, max_p: Fraction) -> None:
        nonlocal nodes, best_T, best_choice, assigned_total
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"exact search exceeded {node_limit} nodes")
        lower = current_T(max_p)
        # Any schedule of the total volume on m machines needs ≥ volume/m.
        lower = max(lower, (assigned_total + remaining_min[t]) / m)
        if best_T is not None and lower >= best_T:
            return
        if t == instance.n:
            if best_T is None or lower < best_T:
                best_T = lower
                best_choice = chosen.copy()
            return
        j = job_order[t]
        for p, k in options[j]:
            if best_T is not None and p >= best_T:
                break  # options sorted; all further are at least as large
            for a in supersets[k]:
                nested[a] += p
            assigned_total += p
            chosen[j] = k
            dfs(t + 1, max(max_p, p))
            chosen[j] = -1
            assigned_total -= p
            for a in supersets[k]:
                nested[a] -= p

    dfs(0, Fraction(0))
    if best_choice is None:
        raise InfeasibleError("no feasible assignment exists")
    assignment = Assignment({j: sets[best_choice[j]] for j in range(instance.n)})
    optimum = min_T_for_assignment(instance, assignment)
    return ExactResult(assignment=assignment, optimum=optimum, nodes_explored=nodes)


def find_assignment_within(
    instance: Instance,
    T: Union[int, Fraction],
    node_limit: int = 2_000_000,
) -> Optional[Assignment]:
    """The first assignment with makespan ≤ *T*, or None when none exists.

    A decision-problem variant of :func:`solve_exact` — it stops at the
    first witness instead of optimizing, which is what schedulability
    studies (experiment E15) need and is exponentially cheaper near the
    feasibility boundary.
    """
    T = to_fraction(T)
    family = instance.family
    sets = family.sets
    set_index = {s: k for k, s in enumerate(sets)}
    supersets: List[List[int]] = [
        [set_index[alpha]] + [set_index[a] for a in family.ancestors(alpha)]
        for alpha in sets
    ]
    capacities = [len(alpha) * T for alpha in sets]

    options: List[List[Tuple[Fraction, int]]] = []
    for j in range(instance.n):
        opts = []
        for alpha in sets:
            p = instance.p(j, alpha)
            if not is_inf(p) and to_fraction(p) <= T:
                opts.append((to_fraction(p), set_index[alpha]))
        if not opts:
            return None
        opts.sort()
        options.append(opts)
    job_order = sorted(range(instance.n), key=lambda j: -options[j][0][0])

    remaining_min: List[Fraction] = [Fraction(0)] * (instance.n + 1)
    for t in range(instance.n - 1, -1, -1):
        remaining_min[t] = remaining_min[t + 1] + options[job_order[t]][0][0]
    m = instance.m

    # Forced loads, checked once before the search.  With volume slack
    # s = m·T − Σ cheapest, no witness gives a job an option dearer than
    # its cheapest by more than s.  When every option within s lies under
    # one set, that set and its ancestors carry at least the job's
    # cheapest time in every witness; a set whose forced load exceeds its
    # capacity leaves none, however deep the tree the search would walk.
    slack = m * T - remaining_min[0]
    if slack >= 0:
        forced: List[Fraction] = [Fraction(0)] * len(sets)
        for opts in options:
            cheapest = opts[0][0]
            common = set(supersets[opts[0][1]])
            for p, k in opts[1:]:
                if p - cheapest > slack:
                    break
                common.intersection_update(supersets[k])
            for a in common:
                forced[a] += cheapest
        if any(load > cap for load, cap in zip(forced, capacities)):
            return None

    # Identical jobs (equal option lists) are interchangeable, so a job
    # takes no option index below its previous twin's in ``job_order``.
    # The DFS returns the lexicographically first feasible index vector,
    # which already obeys this (swapping a violating pair gives a smaller
    # one), so the cut keeps the witness and only skips symmetric subtrees.
    twin: List[int] = [-1] * instance.n
    last_of: Dict[Tuple[Tuple[Fraction, int], ...], int] = {}
    for t, j in enumerate(job_order):
        signature = tuple(options[j])
        twin[t] = last_of.get(signature, -1)
        last_of[signature] = t
    picked: List[int] = [0] * instance.n

    nested: List[Fraction] = [Fraction(0)] * len(sets)
    chosen: List[int] = [-1] * instance.n
    assigned_total = Fraction(0)
    nodes = 0

    def dfs(t: int) -> bool:
        nonlocal nodes, assigned_total
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"feasibility search exceeded {node_limit} nodes")
        if (assigned_total + remaining_min[t]) > m * T:
            return False
        if t == instance.n:
            return True
        j = job_order[t]
        first = picked[twin[t]] if twin[t] >= 0 else 0
        for i in range(first, len(options[j])):
            p, k = options[j][i]
            ok = True
            for a in supersets[k]:
                if nested[a] + p > capacities[a]:
                    ok = False
                    break
            if not ok:
                continue
            for a in supersets[k]:
                nested[a] += p
            assigned_total += p
            chosen[j] = k
            picked[t] = i
            if dfs(t + 1):
                return True
            chosen[j] = -1
            assigned_total -= p
            for a in supersets[k]:
                nested[a] -= p
        return False

    if not dfs(0):
        return None
    return Assignment({j: sets[chosen[j]] for j in range(instance.n)})

"""Builders for the paper's mathematical programs (IP-1) … (IP-3).

The decision form (IP-3) at a fixed horizon ``T`` is the primitive
everything else uses:

* ``Σ_{α} x_{αj} = 1``          for every job (assignment rows),
* ``Σ_j Σ_{β ⊆ α} p_{βj} x_{βj} ≤ |α|·T``  for every admissible set,
* ``x_{αj} = 0`` whenever ``p_{αj} > T``   (the pruning set ``R``).

Minimizing the makespan reduces to a search on ``T``: the admissible pair
set ``R(T)`` only changes at the distinct finite processing-time values, and
between two consecutive breakpoints feasibility is a single LP with ``T`` as
an explicit variable.  :func:`minimal_fractional_T` implements that search
exactly, returning the paper's lower bound ``T* ≤ opt(I)``.  It starts at
a bound ``B ≤ T*`` found with no LP (:meth:`IP3Builder.demand_bound`): the
instance's trivial lower bound ``LB``
(:meth:`~repro.core.instance.Instance.trivial_bounds`) sharpened by the
trapped-demand cut ``D(α) ≤ |α|·T``, which holds for the LP relaxation and
not only for integral assignments.  ``T* = B`` is tried first, whichever
term set ``B``: one max-flow onto each job's cheapest pairs
(:meth:`IP3Builder.cheapest_flow`, no LP at all) either finds a point of
the decision LP at ``B``, which proves ``T* = B``, or comes up short.  At
the volume bound ``Σ_j c_j / m`` a short flow refutes ``B``; above it, it
proves nothing, and when a trapped set's ``D(α)/|α| > LB`` lies strictly
inside a bracket, one probe at ``B`` decides.  Failing that, when ``B``
lies strictly inside a bracket, that bracket's min-T LP runs and usually
settles ``T*``.  Otherwise no breakpoint below ``B`` is probed, the search
gallops upward from the first one at or above it and then bisects, and an
anchor equal to ``B`` is ``T*`` itself.

Probe cost: a naive implementation rebuilds the subset-closure scan
(``O(|F|²·n)``) and cold-starts the simplex at every probe.  The search here
is **incremental** end to end:

* one :class:`IP3Builder` is shared across all probes — the closure is
  computed once, over the processing times converted once to integers
  over one common denominator, and each probe's rows are materialized by
  *masking* index templates, built on the first probe, on ``p ≤ T``
  (:meth:`IP3Builder.probe_rows`), not by rebuilding a keyed
  :class:`~repro.lp.model.LinearProgram`; the rows come out as integer
  rows plus one scale per row (the contract of :mod:`repro.lp.solve`),
  the integers the exact kernel works in, so no ``Fraction`` row is built;
  the mask is one exact integer threshold per probe
  (:meth:`IP3Builder.mask`), and the HiGHS leg builds its float image from
  those integer rows, once per call;
* successive probes reuse the bracketing probes' outcomes: a still-valid
  feasible point answers a "yes" probe after one ``O(nnz)`` exact re-check,
  a still-valid Farkas certificate answers a "no" probe the same way, and
  when a solve is unavoidable it is warm-started from the previous feasible
  point, masked to the probe's columns (:class:`_ProbeSession`);
* a search solves at most **two** min-T LPs, and none when the flow or the
  probe at ``B`` proves ``T* = B``: ``B``'s bracket's, and the
  one below the anchor only when the anchor lies above ``B``'s bracket.
  The anchor probe already certified the decision LP feasible at ``T =
  anchor``, so over ``R(anchor)`` with ``T ≥ anchor`` the optimum is the
  anchor itself; only the previous bracket ``[prev, anchor)``, with the
  smaller ``R(prev)``, can do better.  Every min-T LP is built from the
  builder's integer rows (:meth:`IP3Builder.min_T_rows`) — no keyed
  :class:`~repro.lp.model.LinearProgram` — and the previous bracket's is
  warm-started from the anchor's feasible point.

Theorem V.2 then rounds the LST LP of the singleton collapse at ``T*``:
the builder hands it the singleton times in the same integers
(:meth:`IP3Builder.singleton_times`), so that LP too is built once, as
integer rows (:func:`repro.rounding.lst.unrelated_rows`).

This is the only ``T*`` search over the breakpoints.  The ``R||Cmax``
assignment LP is (IP-3) on the singleton family
(:func:`repro.baselines.lst_unrelated.minimal_unrelated_T`), and the
memory LPs of Section VI are (IP-3) plus ``T``-independent packing rows,
which :class:`IP3Builder` takes as *side rows*
(:func:`repro.core.memory.minimal_model1_T`, ``minimal_model2_T``).  Only
:mod:`repro.core.exact_ilp`, the independent cross-check, keeps its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, InvalidInstanceError
from ..lp.certificates import farkas_certifies
from ..lp.model import LinearProgram
from ..lp.solve import (
    _resolve_backend,
    check_standard_rows,
    feasible_point_rows,
    scale_rows,
    solve_lp,
    solve_rows,
)
from ..lp.stats import SolverStats, record
from ..obs.trace import span as trace_span
from ..rounding.lst import IntegerTimes
from .assignment import FractionalAssignment
from .instance import Instance
from .laminar import MachineSet

Time = Union[int, Fraction]


def admissible_pairs(instance: Instance, T: Time) -> List[Tuple[MachineSet, int]]:
    """The pruning set ``R = {(α, j) : p_{αj} ≤ T}`` of Section V."""
    T = to_fraction(T)
    pairs: List[Tuple[MachineSet, int]] = []
    for j in range(instance.n):
        for alpha in instance.family.sets:
            p = instance.p(j, alpha)
            if not is_inf(p) and to_fraction(p) <= T:
                pairs.append((alpha, j))
    return pairs


class IP3Builder:
    """Instance structure shared by every LP a ``T``-search builds.

    Precomputes the finite pairs and the breakpoint list.  The per-set
    subset-closure templates of the load rows (:attr:`load_template`) are
    built on first use, by the first probe or min-T LP, so each LP after
    that is a filter pass instead of a fresh ``O(|F|²·n)`` scan, and a
    search the flow proves builds none.  Variable and row ordering match
    :func:`build_ip3` exactly (the vertex a solver returns depends on it).
    Construction is traced as one ``search.build`` span.

    **Integer times.**  Every finite time is converted once to an integer
    over one common :attr:`denominator` (:attr:`var_p`, the third field of
    :attr:`finite`); the ranks, the templates, the row builders and the
    bounds below all read those integers.  :meth:`probe_rows`,
    :meth:`min_T_rows` and :meth:`singleton_times` (Theorem V.2's LST
    slice) hand the exact kernel integer rows plus one scale per row: the
    lcm of the raw row's denominators, the scale the kernel would derive
    from the rational row.

    **Exact mask.**  Every finite pair's time is one of the sorted
    ``breakpoints``; :attr:`var_rank` stores its index there.  So
    ``p ≤ T`` holds exactly when ``var_rank < mask(T)``, where
    :meth:`mask` is one ``bisect`` over the breakpoints.  Both row builders
    (:meth:`probe_rows`, :meth:`min_T_rows`) and the probe pipeline's
    structural and support checks filter on that integer — no per-entry
    ``Fraction`` comparison.

    **Side rows.**  *side_rows* adds ``T``-independent packing rows to
    every program the builder makes, each ``({(α, j): coeff}, bound)``
    meaning ``Σ coeff·x_{αj} ≤ bound`` over the pairs active at the probed
    horizon; every key must be a finite pair of the instance.  They come
    after the load rows in :meth:`probe_rows` and :meth:`min_T_rows`
    (before ``T ≥ t_low``, with no ``T`` entry).  The memory models of
    Section VI are (IP-3) plus such rows (see :mod:`repro.core.memory`);
    with none, every program is (IP-3) itself.  The builder keeps no float
    image: the HiGHS leg builds one from the integer rows it is handed.

    **Demand bound.**  Per job it keeps the cheapest time, as an integer
    over :attr:`denominator`, and the trap steps, so
    :meth:`demand_bound` evaluates the trapped demand at a mask with one
    bisection per job and one integer pass over the family, with no
    ``Fraction`` arithmetic.  :meth:`trivial_lower` and
    :meth:`cheapest_flow` read the same integers, and
    :meth:`point_feasible` checks the flow's point on them.
    """

    def __init__(
        self,
        instance: Instance,
        side_rows: Sequence[Tuple[Mapping[Tuple[MachineSet, int], Time], Time]] = (),
    ):
        with trace_span(
            "search.build", n=instance.n, sets=len(instance.family.sets),
            side_rows=len(side_rows),
        ):
            self.instance = instance
            family = instance.family
            n = instance.n
            pairs: List[Tuple[int, MachineSet]] = []
            times: List[Fraction] = []
            #: Global variable indices per family set, in job order.
            self._vars_of_set: Dict[MachineSet, List[int]] = {
                alpha: [] for alpha in family.sets
            }
            vars_of_set = self._vars_of_set
            #: Per-job assignment-row template: global variable indices.
            self.assign_template: List[List[int]] = []
            for j in range(n):
                group: List[int] = []
                for alpha in family.sets:
                    p = instance.p(j, alpha)
                    if not is_inf(p):
                        vars_of_set[alpha].append(len(times))
                        group.append(len(times))
                        pairs.append((j, alpha))
                        times.append(p)
                self.assign_template.append(group)
            self.jobs_without_options: List[int] = [
                j for j, group in enumerate(self.assign_template) if not group
            ]
            #: Common denominator of every finite time.
            self.denominator: int = lcm(*{p.denominator for p in times})
            den = self.denominator
            #: Processing time per global variable index (position in
            #: ``finite``), as an integer over ``denominator``.
            self.var_p: List[int] = (
                [p.numerator for p in times] if den == 1
                else [p.numerator * (den // p.denominator) for p in times]
            )
            #: (j, α, P) for every finite pair, in build_ip3 variable order,
            #: with ``p_αj = P / denominator``.
            self.finite: List[Tuple[int, MachineSet, int]] = [
                (j, alpha, P) for (j, alpha), P in zip(pairs, self.var_p)
            ]
            by_time: Dict[int, List[int]] = {}
            for gi, P in enumerate(self.var_p):
                by_time.setdefault(P, []).append(gi)
            ranked = sorted(by_time)
            #: The distinct finite times, ascending.
            self.breakpoints: List[Fraction] = [times[by_time[P][0]] for P in ranked]
            #: Index of each variable's time in ``breakpoints`` (the exact mask key).
            self.var_rank: List[int] = [0] * len(self.var_p)
            for rank, P in enumerate(ranked):
                for gi in by_time[P]:
                    self.var_rank[gi] = rank
            #: Per variable, the denominator of its time (``None`` when every
            #: time is an integer): the row scales of :meth:`probe_rows`.
            self._var_den: Optional[List[int]] = (
                None if den == 1 else [den // gcd(P, den) for P in self.var_p]
            )
            var_p, var_rank = self.var_p, self.var_rank
            #: Per side row: (entries as (global index, coeff, rank), bound).
            self.side_template: List[Tuple[List[Tuple[int, Fraction, int]], Fraction]] = []
            var_of_pair = {pair: gi for gi, pair in enumerate(pairs)} if side_rows else {}
            for coeffs, bound in side_rows:
                entries = []
                for (alpha, j), coeff in coeffs.items():
                    gi = var_of_pair[(j, alpha)]
                    entries.append((gi, to_fraction(coeff), var_rank[gi]))
                self.side_template.append((entries, to_fraction(bound)))
            #: Smallest mask at which every job has an admissible pair (beyond
            #: every mask when some job has none).
            self.full_mask: int = 1 + max(
                (
                    min((var_rank[gi] for gi in group), default=len(self.breakpoints))
                    for group in self.assign_template
                ),
                default=-1,
            )
            #: Cheapest finite time per job as an integer over ``denominator``
            #: (0 for a job without options): the trapped-demand weight, the
            #: volume bound's term and the flow's supply.
            self.cheapest: List[int] = []
            #: Per job, its trap steps ``(rank, trap)``: ``trap`` is the minimal
            #: family set containing every mask of rank ``< rank``; it holds for
            #: every mask ``k ≥ rank`` up to the next step.  ``None`` (masks on
            #: two roots) is final.
            self.trap_steps: List[List[Tuple[int, Optional[MachineSet]]]] = []
            for group in self.assign_template:
                by_rank = sorted(group, key=var_rank.__getitem__)
                self.cheapest.append(var_p[by_rank[0]] if by_rank else 0)
                steps: List[Tuple[int, Optional[MachineSet]]] = []
                for gi in by_rank:
                    trap = self.finite[gi][1]
                    if steps:
                        # The sets containing the old trap form its ancestor
                        # chain; the first one that also holds the new mask is
                        # the minimal set containing both.
                        alpha, trap = trap, steps[-1][1]
                        if trap is None or alpha <= trap:
                            continue
                        while trap is not None and not alpha <= trap:
                            trap = family.parent(trap)
                    step = (var_rank[gi] + 1, trap)
                    if steps and steps[-1][0] == step[0]:
                        steps[-1] = step
                    else:
                        steps.append(step)
                self.trap_steps.append(steps)

    @cached_property
    def load_template(self) -> List[Tuple[MachineSet, List[Tuple[int, int, int]]]]:
        """Per-set load-row template: ``(α, [(global index, P, rank)])``
        over every ``β ⊆ α``, built on first use.

        Probes address variables by their position in :attr:`finite`
        (stable across all horizons), so materializing a probe from it is
        pure integer filtering: no tuple-key hashing, no
        :class:`~repro.lp.model.LinearProgram`.  Only :meth:`probe_rows`
        and :meth:`min_T_rows` read it.
        """
        family = self.instance.family
        var_p, var_rank, vars_of_set = self.var_p, self.var_rank, self._vars_of_set
        return [
            (
                alpha,
                [
                    (gi, var_p[gi], var_rank[gi])
                    for beta in family.subsets_of(alpha)
                    for gi in vars_of_set[beta]
                ],
            )
            for alpha in family.sets
        ]

    def mask(self, T: Time) -> int:
        """The exact mask of horizon *T*: ``p_gi ≤ T  ⇔  var_rank[gi] < mask(T)``."""
        return bisect_right(self.breakpoints, T)

    def _trapped_demand(self, k: int) -> Dict[MachineSet, int]:
        """``D(α)`` at mask *k* (``k ≥ full_mask``) over ``denominator``:
        each job's cheapest time, booked on its trap at *k* and accumulated
        bottom-up."""
        traps = (
            steps[bisect_right(steps, k, key=itemgetter(0)) - 1][1]
            for steps in self.trap_steps
        )
        return self.instance.family.trapped_demand(zip(traps, self.cheapest), zero=0)

    def trivial_lower(self) -> Fraction:
        """``LB = max(max_j c_j, Σ_j c_j / m)`` over the cheapest times: the
        lower value of :meth:`~repro.core.instance.Instance.trivial_bounds`
        (which proves ``LB ≤ T*``), in ``O(n)`` from the cached ranks."""
        m = self.instance.m
        return Fraction(
            max(max(self.cheapest) * m, sum(self.cheapest)), m * self.denominator
        )

    def demand_bound(self, lower: Fraction) -> Fraction:
        """A lower bound ``B ≥ lower`` on (IP-3)'s ``T*``, from the
        trapped-demand cut, with no LP.  *lower* must itself bound ``T*``.

        On the bracket of mask ``k``, ``[points[k-1], points[k])``, ``R`` is
        fixed and every job whose masks all lie in ``α`` loads ``α``'s row
        by at least its cheapest time, even split fractionally.  So a
        feasible ``T`` there is at least ``g_k = max_α D_k(α)/|α|``.  ``g_k``
        falls as ``k`` grows (traps only widen), so bisection finds the
        first bracket ``g_k`` does not refute, from the one holding *lower*
        on, and ``B = max(lower, points[k-1], g_k)`` lies in it.  ``T*``
        lies in that bracket or a later one, hence ``B ≤ T*``.  Demands
        stay integers over ``denominator``; each comparison is one
        cross-multiplication.
        """
        points = self.breakpoints
        den = self.denominator
        lo, hi = max(self.full_mask, self.mask(lower)), len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            # D(α)/den < |α|·cap  ⇔  D(α)·cap.denominator < |α|·cap.numerator·den
            q, p = points[mid].denominator, points[mid].numerator * den
            demand = self._trapped_demand(mid)
            if all(d * q < len(alpha) * p for alpha, d in demand.items()):
                hi = mid
            else:
                lo = mid + 1
        top_d, top_size = 0, 1
        for alpha, d in self._trapped_demand(lo).items():
            if d * top_size > top_d * len(alpha):
                top_d, top_size = d, len(alpha)
        return max(lower, points[lo - 1], Fraction(top_d, top_size * den))

    def cheapest_flow(self, T: Fraction) -> Optional[Dict[int, Fraction]]:
        """A point of the decision LP at *T* on each job's cheapest pairs,
        from one max-flow, or ``None`` when the flow is short (then there
        is no such point).

        The network: source → job ``j`` with capacity ``c_j``; job ``j`` →
        every inclusion-maximal set among its cheapest pairs, uncapacitated
        (moving flow from ``β`` up to a cheapest ``α ⊇ β`` loads a subset of
        the rows ``β`` loads); set ``α`` → its parent (the sink, for a root)
        with capacity ``|α|·T``.  A saturated flow gives the point
        ``x_αj = flow_αj / c_j``; a job with ``c_j = 0`` goes whole onto one
        zero-time pair.  With ``T = num/den``, job ``j`` supplies
        ``c_j·den`` and set ``α`` holds ``|α|·num·denominator``, all
        integers.  When some ``c_j > T`` no cheapest pair is admissible and
        the flow is short.

        For ``T ≥ LB`` every cheapest pair is admissible, so a saturated
        flow is a point of the decision LP and proves ``T* ≤ T``.  At
        ``T = Σc/m`` the converse holds too: summed with the assignment
        rows, the root load rows force every feasible point onto cheapest
        pairs and fill the roots exactly, so the flow saturates exactly when
        the LP is feasible.  Above ``Σc/m`` a short flow proves nothing.
        Side rows are ignored: callers with side rows must not use it.
        """
        num, den = T.numerator, T.denominator
        if max(self.cheapest, default=0) * den > num * self.denominator:
            return None
        family = self.instance.family
        sets = family.sets
        index = {alpha: s for s, alpha in enumerate(sets)}
        parent = [index.get(family.parent(alpha), -1) for alpha in sets]
        supply = [c * den for c in self.cheapest]
        var_p, finite = self.var_p, self.finite
        point: Dict[int, Fraction] = {}
        options: List[List[int]] = []
        # Per job, its cheapest pairs: set index → global index.
        var_of: List[Dict[int, int]] = []
        for group, c in zip(self.assign_template, self.cheapest):
            pairs = {index[finite[gi][1]]: gi for gi in group if var_p[gi] == c}
            var_of.append(pairs)
            if not c:
                point[next(iter(pairs.values()))] = Fraction(1)
                options.append([])
                continue
            maximal = []
            for s in pairs:  # no ancestor of s is a cheapest pair too
                up = parent[s]
                while up >= 0 and up not in pairs:
                    up = parent[up]
                if up < 0:
                    maximal.append(s)
            options.append(maximal)
        unit = num * self.denominator
        flow = _forest_flow(
            parent,
            [[index[c] for c in family.children(alpha)] for alpha in sets],
            [len(alpha) * unit for alpha in sets],
            options,
            supply,
        )
        if flow is None:
            return None
        for s, by_job in enumerate(flow):
            for j, f in by_job.items():
                if f:
                    point[var_of[j][s]] = Fraction(f, supply[j])
        return point

    def point_feasible(self, T: Fraction, point: Mapping[int, Fraction]) -> bool:
        """Whether *point* (global index → value, non-zero entries only) is
        exactly a point of the decision LP at *T*, without building its rows.

        Every entry must be ``≥ 0`` on a pair with ``p ≤ T`` (rank
        ``< mask(T)``), each job's entries must sum to exactly 1, and each
        set's load, accumulated bottom-up along ``family.parent``, must be at
        most ``|α|·T``.  The point is scaled by the lcm of its denominators,
        as :func:`~repro.lp.solve.check_standard_rows` scales it, so with
        ``T = num/den`` every comparison is ``load·den ≤ |α|·num·denominator``
        in integers.  This is the verdict of ``check_standard_rows`` on
        :meth:`probe_rows` at *T*.  Side rows are not checked.
        """
        k = self.mask(T)
        rank, finite = self.var_rank, self.finite
        common = lcm(*{v.denominator for v in point.values()})
        mass = [0] * len(self.assign_template)
        booked: List[Tuple[MachineSet, int]] = []
        for gi, v in point.items():
            if v < 0 or rank[gi] >= k:
                return False
            x = v.numerator * (common // v.denominator)
            j, alpha, P = finite[gi]
            mass[j] += x
            if P:
                booked.append((alpha, P * x))
        if any(total != common for total in mass):
            return False
        # The same bottom-up pass as the trapped demand, over the loads.
        loads = self.instance.family.trapped_demand(booked, zero=0)
        unit, den = T.numerator * self.denominator * common, T.denominator
        return all(load * den <= len(alpha) * unit for alpha, load in loads.items())

    def _columns(self, k: int, offset: int) -> Tuple[List[int], List[int]]:
        """``(active, local)`` at mask *k*: the global indices of the active
        variables, and each active variable's column (``offset`` + its
        position in *active*) indexed by global index."""
        active = [gi for gi, r in enumerate(self.var_rank) if r < k]
        local = [0] * len(self.var_rank)
        for li, gi in enumerate(active):
            local[gi] = offset + li
        return active, local

    def _load_scale(self, entries, k: int, scale: int) -> int:
        """The lcm of *scale* and the denominators of the times of rank
        ``< k`` in a load-row template (*scale* itself when every time is
        an integer)."""
        dens = self._var_den
        if dens is not None:
            for gi, P, r in entries:
                if r < k and P and scale % dens[gi]:
                    scale = lcm(scale, dens[gi])
        return scale

    def _side_rows(self, k: int, local: List[int]):
        """The side rows at mask *k* as integer ``(rows, rhs, scales)``."""
        return scale_rows(
            [
                {local[gi]: c for gi, c, r in entries if r < k}
                for entries, _bound in self.side_template
            ],
            [bound for _entries, bound in self.side_template],
        )

    def probe_rows(
        self, T: Time
    ) -> Tuple[List[Dict[int, int]], List[str], List[int], List[int], List[int]]:
        """The decision LP at horizon *T* as masked integer rows.

        Returns ``(coeff_rows, senses, rhs, scales, active)``: integer rows
        (see :mod:`repro.lp.solve`) and *active*, which maps local
        variable index → position in ``self.finite``.  Row ``i`` is
        ``scales[i]`` times the raw row, ``scales[i]`` the lcm of the raw
        row's denominators, so the kernel's integers are those it would
        derive from the rational rows.  Row order is the :func:`build_ip3`
        order (all assignment rows, then all load rows), then the side
        rows; a fixed order is what keeps Farkas certificates transferable
        between probes.  ``O(nnz)`` integer filtering on the exact mask.
        """
        T = to_fraction(T)
        k = self.mask(T)
        rank = self.var_rank
        den = self.denominator
        active, local = self._columns(k, 0)
        coeff_rows: List[Dict[int, int]] = [
            {local[gi]: 1 for gi in group if rank[gi] < k} for group in self.assign_template
        ]
        rhs = [1] * len(coeff_rows)
        scales = [1] * len(coeff_rows)
        t_num, t_den = T.numerator, T.denominator
        for alpha, entries in self.load_template:
            size = len(alpha)
            # |α|·T has denominator t_den / gcd(|α|, t_den).
            scale = self._load_scale(entries, k, t_den // gcd(size, t_den))
            if scale == den:
                row = {local[gi]: P for gi, P, r in entries if r < k}
            else:
                row = {local[gi]: P * scale // den for gi, P, r in entries if r < k}
            coeff_rows.append(row)
            rhs.append(size * t_num * scale // t_den)
            scales.append(scale)
        side, side_rhs, side_scales = self._side_rows(k, local)
        coeff_rows += side
        jobs = len(self.assign_template)
        senses = ["=="] * jobs + ["<="] * (len(coeff_rows) - jobs)
        return coeff_rows, senses, rhs + side_rhs, scales + side_scales, active

    def min_T_rows(
        self, r_anchor: Fraction, t_low: Fraction
    ) -> Optional[
        Tuple[List[Dict[int, int]], List[str], List[int], List[int], List[int], List[int]]
    ]:
        """Min-T LP with ``R`` frozen at *r_anchor* and ``T ≥ t_low``, as integer rows.

        Returns ``(coeff_rows, senses, rhs, scales, objective, active)``:
        integer rows as in :meth:`probe_rows`; column 0 is ``T``, column
        ``1 + li`` is global variable ``active[li]``; the rows are the
        assignment rows, the load rows ``Σ p·x − |α|·T ≤ 0`` (``T`` first,
        ``p = 0`` entries omitted), the side rows and ``T ≥ t_low``; the
        objective is ``T``.  Returns ``None`` when some job has no
        admissible set at the anchor (the frozen-R program is then
        trivially infeasible).  ``x ≤ 1`` is implied by the assignment rows
        and not materialized.
        """
        k = self.mask(r_anchor)
        if k < self.full_mask:
            return None
        t_low = to_fraction(t_low)
        rank = self.var_rank
        den = self.denominator
        active, local = self._columns(k, 1)
        coeff_rows: List[Dict[int, int]] = [
            {local[gi]: 1 for gi in group if rank[gi] < k} for group in self.assign_template
        ]
        rhs = [1] * len(coeff_rows)
        scales = [1] * len(coeff_rows)
        for alpha, entries in self.load_template:
            scale = self._load_scale(entries, k, 1)
            row: Dict[int, int] = {0: -len(alpha) * scale}
            if scale == den:
                row.update((local[gi], P) for gi, P, r in entries if r < k and P)
            else:
                row.update(
                    (local[gi], P * scale // den) for gi, P, r in entries if r < k and P
                )
            coeff_rows.append(row)
            rhs.append(0)
            scales.append(scale)
        side, side_rhs, side_scales = self._side_rows(k, local)
        loads = len(coeff_rows) - len(self.assign_template)
        senses = ["=="] * len(self.assign_template) + ["<="] * (loads + len(side)) + [">="]
        coeff_rows += side + [{0: t_low.denominator}]
        rhs += side_rhs + [t_low.numerator]
        scales += side_scales + [t_low.denominator]
        objective = [1] + [0] * len(active)
        return coeff_rows, senses, rhs, scales, objective, active

    def singleton_times(self) -> IntegerTimes:
        """The singleton pairs as ``R||Cmax`` times, for the LST LP.

        Job ``j`` on machine ``i`` takes its time on the singleton
        ``{i}``, as an integer over :attr:`denominator`.  On a family with every singleton (Theorem
        V.2's extension) this is the collapse ``Iu``, and
        :func:`repro.rounding.lst.unrelated_rows` builds its LST LP with no
        ``Fraction`` arithmetic.
        """
        jobs: List[Tuple[int, List[Tuple[int, int]]]] = [
            (j, []) for j in range(self.instance.n)
        ]
        for j, alpha, P in self.finite:
            if len(alpha) == 1:
                (i,) = alpha
                jobs[j][1].append((i, P))
        for _j, row in jobs:
            row.sort()
        return IntegerTimes(jobs, self.denominator)


def _forest_flow(
    parent: List[int],
    children: List[List[int]],
    cap: List[int],
    options: List[List[int]],
    supply: List[int],
) -> Optional[List[Dict[int, int]]]:
    """Route every job's *supply* into a forest of capacitated edges.

    Set ``s`` has one edge to ``parent[s]`` (``-1``: the sink) with
    capacity ``cap[s]``; job ``j`` may send any amount into each set of
    ``options[j]``.  Returns ``flow[s][j]``, job ``j``'s flow into set
    ``s``, when the maximum flow routes all of *supply*, else ``None``.
    Flow is placed greedily up each job's chain first, jobs with the fewest
    options first (the rest can fill around them, which leaves few
    augmenting paths); then BFS augmenting paths (shortest first, so the
    loop ends) run over the residual graph,
    whose backward arcs go from a set down to a child with flow and from a
    set back to a job with flow into it.
    """
    resid = list(cap)
    flow: List[Dict[int, int]] = [{} for _ in cap]
    need = list(supply)
    for j in sorted(range(len(options)), key=lambda j: len(options[j])):
        for s in options[j]:
            amount, t = need[j], s
            while t >= 0 and amount:
                amount, t = min(amount, resid[t]), parent[t]
            if amount:
                flow[s][j] = flow[s].get(j, 0) + amount
                need[j] -= amount
                t = s
                while t >= 0:
                    resid[t] -= amount
                    t = parent[t]
            if not need[j]:
                break
    jobs = len(cap)  # job j is node jobs + j; sets are 0 … jobs-1
    while any(need):
        prev: Dict[int, Optional[int]] = {
            jobs + j: None for j, left in enumerate(need) if left
        }
        queue, end = deque(prev), None
        while queue:
            u = queue.popleft()
            if u >= jobs:
                nexts = options[u - jobs]
            elif resid[u] and parent[u] < 0:
                end = u
                break
            else:
                nexts = [parent[u]] if resid[u] else []
                nexts += [c for c in children[u] if resid[c] < cap[c]]
                nexts += [jobs + j for j, f in flow[u].items() if f]
            for v in nexts:
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        if end is None:
            return None
        path = [end]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        arcs = list(zip(path, path[1:]))
        amount = min(need[path[0] - jobs], resid[end])
        for u, v in arcs:
            if u >= jobs:
                continue  # job → set is uncapacitated
            if v >= jobs:
                amount = min(amount, flow[u][v - jobs])
            elif v == parent[u]:
                amount = min(amount, resid[u])
            else:
                amount = min(amount, cap[v] - resid[v])
        need[path[0] - jobs] -= amount
        resid[end] -= amount
        for u, v in arcs:
            if u >= jobs:
                flow[v][u - jobs] = flow[v].get(u - jobs, 0) + amount
            elif v >= jobs:
                flow[u][v - jobs] -= amount
            elif v == parent[u]:
                resid[u] -= amount
            else:
                resid[v] += amount
    return flow


class _ProbeSession:
    """Incremental feasibility probing for one binary search.

    Carries the last feasible point and the last Farkas certificate across
    probes.  Probe rows share one variable indexing (positions in
    ``builder.finite``) and one row order, so both artifacts transfer
    between horizons: a point transfers downward whenever its support
    survives the shrunken pruning set and the tightened load bounds (one
    exact ``O(nnz)`` re-check decides), a certificate transfers upward
    whenever the new columns keep its column sums non-positive (same
    check).  Either hit answers the probe with **no LP solve at all**;
    misses fall through to a certified solve warm-started from the masked
    previous point.  Shortcut hits are recorded as
    ``point_reuses``/``farkas_reuses`` in any active
    :func:`repro.lp.stats.collect_stats` scope.  No solver basis is
    carried between probes: the masked point is the only warm start, and a
    session never probes the same mask twice, so a carried basis would
    never match.
    """

    def __init__(self, builder: IP3Builder, backend: str):
        _resolve_backend(backend)  # raises on unknown names
        self.builder = builder
        self.backend = backend
        #: Last feasible point, keyed by global variable index (support only).
        self.point: Optional[Dict[int, Fraction]] = None
        #: Last verified Farkas certificate, in probe-row order.
        self.farkas: Optional[List[Fraction]] = None

    def probe(self, T: Fraction) -> Optional[Dict[int, Fraction]]:
        """Certified feasibility verdict at horizon *T*.

        Returns the feasible point (global-index keyed, support only) or
        ``None`` for a certified infeasibility.
        """
        builder = self.builder
        with trace_span("search.probe", T=str(T)) as probe_sp:
            k = builder.mask(T)
            # A job with no admissible pair at T is an unsatisfiable {} == 1
            # row; decide it structurally instead of building the LP.
            if k < builder.full_mask:
                if probe_sp:
                    probe_sp.attrs["outcome"] = "structurally-infeasible"
                return None
            coeff_rows, senses, rhs, scales, active = builder.probe_rows(T)
            if self.farkas is not None and farkas_certifies(
                coeff_rows, senses, rhs, self.farkas, scales
            ):
                record(SolverStats(farkas_reuses=1))
                if probe_sp:
                    probe_sp.attrs["outcome"] = "farkas-reuse"
                return None
            masked: Optional[List[Fraction]] = None
            if self.point is not None:
                zero = Fraction(0)
                masked = [self.point.get(gi, zero) for gi in active]
                rank = builder.var_rank
                support_survives = all(rank[gi] < k for gi in self.point)
                if support_survives and check_standard_rows(
                    coeff_rows, senses, rhs, masked
                ):
                    record(SolverStats(point_reuses=1))
                    if probe_sp:
                        probe_sp.attrs["outcome"] = "point-reuse"
                    return self.point
            point, farkas = feasible_point_rows(
                coeff_rows, senses, rhs, len(active),
                backend=self.backend, warm_point=masked, scales=scales,
            )
            if point is not None:
                self.point = {
                    active[li]: v for li, v in enumerate(point) if v
                }
                if probe_sp:
                    probe_sp.attrs["outcome"] = "solved-feasible"
                return self.point
            if farkas is not None:
                self.farkas = farkas
            if probe_sp:
                probe_sp.attrs["outcome"] = "solved-infeasible"
            return None


def build_ip3(
    instance: Instance,
    T: Time,
    integral: bool = False,
) -> LinearProgram:
    """The decision program (IP-3) at horizon *T* (LP relaxation by default).

    Variables are keyed ``("x", α, j)``; only pairs in ``R(T)`` get a
    variable, which encodes constraint (3c) structurally.
    """
    T = to_fraction(T)
    lp = LinearProgram()
    pairs = admissible_pairs(instance, T)
    by_job: Dict[int, List[MachineSet]] = {}
    for alpha, j in pairs:
        # ub=1 is implied by the assignment rows; it is only declared for
        # integral builds, where branch-and-bound requires explicit bounds.
        lp.add_variable(
            ("x", alpha, j), lb=0, ub=1 if integral else None, integral=integral
        )
        by_job.setdefault(j, []).append(alpha)
    for j in range(instance.n):
        if j not in by_job:
            # No admissible set fits within T — encode infeasibility as an
            # unsatisfiable row instead of raising, so binary search can
            # treat it uniformly.
            lp.add_constraint({}, "==", 1, name=f"assign[{j}]")
        else:
            lp.add_constraint(
                {("x", alpha, j): 1 for alpha in by_job[j]},
                "==",
                1,
                name=f"assign[{j}]",
            )
    for alpha in instance.family.sets:
        coeffs: Dict = {}
        for beta in instance.family.subsets_of(alpha):
            for j in range(instance.n):
                key = ("x", beta, j)
                if lp.has_variable(key):
                    coeffs[key] = to_fraction(instance.p(j, beta))
        lp.add_constraint(coeffs, "<=", len(alpha) * T, name=f"load[{sorted(alpha)}]")
    return lp


def feasible_lp_solution(
    instance: Instance,
    T: Time,
    backend: str = "hybrid",
) -> Optional[FractionalAssignment]:
    """A feasible fractional solution of (IP-3)'s LP relaxation at *T*.

    Returns ``None`` when the relaxation is infeasible.  The solution is a
    basic one (vertex) on both backends.
    """
    lp = build_ip3(instance, T)
    solution = solve_lp(lp, backend=backend)
    if not solution.is_optimal:
        return None
    values = {
        (alpha, j): value
        for (tag, alpha, j), value in solution.values.items()
        if tag == "x" and value != 0
    }
    return FractionalAssignment(values)


def lp_feasible(instance: Instance, T: Time, backend: str = "hybrid") -> bool:
    """Whether the LP relaxation of (IP-3) is feasible at horizon *T*.

    Certified for every backend: one :meth:`_ProbeSession.probe` on the
    instance's :class:`IP3Builder`, so the verdict is always backed by an
    exactly re-checked point, an exact solve or an exact Farkas
    certificate.  A job with no pair within *T* is infeasible outright.
    """
    return _ProbeSession(IP3Builder(instance), backend).probe(to_fraction(T)) is not None


def _min_T_with_fixed_R(
    builder: IP3Builder,
    r_anchor: Fraction,
    t_low: Fraction,
    backend: str,
    warm: Optional[Tuple[Fraction, Dict[int, Fraction]]] = None,
) -> Optional[Fraction]:
    """Minimize T over the LP with ``R = R(r_anchor)`` and ``T ≥ t_low``.

    Returns the optimal T or ``None`` when infeasible.  Caller must ensure
    the returned value stays inside the bracket where ``R`` is constant.
    *warm* is ``(T, point)`` with *point* a global-index feasible point of
    a decision LP; masked to the LP's variables it seeds the exact/hybrid
    crash basis.  The optimum ``T`` is vertex-invariant, so the vertex is
    not canonicalized.
    """
    with trace_span(
        "search.min_T", anchor=str(r_anchor), warm=warm is not None,
    ) as min_sp:
        program = builder.min_T_rows(r_anchor, t_low)
        if program is None:
            if min_sp:
                min_sp.attrs["outcome"] = "trivially-infeasible"
            return None
        coeff_rows, senses, rhs, scales, objective, active = program
        warm_point = None
        if warm is not None:
            warm_T, point = warm
            zero = Fraction(0)
            warm_point = [warm_T] + [point.get(gi, zero) for gi in active]
        result = solve_rows(
            coeff_rows, senses, rhs, objective, backend=backend,
            warm_point=warm_point, canonical=False, scales=scales,
        )
        if result.status != "optimal":
            if min_sp:
                min_sp.attrs["outcome"] = "infeasible"
            return None
        if min_sp:
            min_sp.attrs["outcome"] = "optimal"
        return to_fraction(result.x[0])


def _above_top(builder: IP3Builder, t_low: Fraction, backend: str) -> Fraction:
    """``T*`` when it lies above every processing time (the load bound
    dominates): ``R`` is maximal there, so one min-T LP with ``T ≥ t_low``
    settles it."""
    t_above = _min_T_with_fixed_R(builder, builder.breakpoints[-1], t_low, backend)
    if t_above is None:
        # Every job has a pair at the top, so only side rows can get here.
        raise InfeasibleError("LP relaxation infeasible at every horizon")
    return t_above


def _gallop(start: int, top: int):
    """Indices ``start, start+1, start+3, start+7, …`` below *top*, then
    *top* (``start ≤ top``)."""
    idx, step = start, 1
    while idx < top:
        yield idx
        idx, step = idx + step, 2 * step
    yield top


def minimal_fractional_T(
    instance: Instance,
    backend: str = "hybrid",
    builder: Optional[IP3Builder] = None,
) -> Fraction:
    """The minimum horizon ``T*`` at which (IP-3)'s LP relaxation is feasible.

    This is the paper's fractional lower bound: ``T* ≤ opt(I)``, found by
    the breakpoint search of :func:`_minimal_T` on the instance's
    :class:`IP3Builder`.  *builder*, when given, must be the instance's
    builder (side-row free); a caller that needs it afterwards builds it
    once (Theorem V.2 reads its :meth:`IP3Builder.singleton_times`).

    Degenerate inputs resolve exactly instead of entering a vacuous search:

    * no jobs → ``0``;
    * a job whose processing row is all-INF can never be placed at any
      horizon → :class:`InvalidInstanceError` (structural, not a matter of
      ``T``);
    * all finite processing times zero (zero-volume instance) → ``0``.
    """
    if instance.n == 0:
        return Fraction(0)
    if builder is None:
        builder = IP3Builder(instance)
    elif builder.instance is not instance or builder.side_template:
        raise ValueError("builder must be the side-row-free builder of instance")
    if builder.jobs_without_options:
        jobs = builder.jobs_without_options
        raise InvalidInstanceError(
            f"job(s) {jobs} have no finite processing time on any admissible "
            f"set; no horizon T can make (IP-3) feasible"
        )
    return _minimal_T(builder, backend)


def _minimal_T(builder: IP3Builder, backend: str) -> Fraction:
    """The minimum horizon ``T*`` at which *builder*'s LP is feasible.

    The LP is (IP-3) plus the builder's side rows; every job must have a
    finite pair.  Side rows are ``T``-independent, so feasibility stays
    monotone in ``T``, ``R(T)`` still changes only at the breakpoints, and
    every bound below still holds (extra rows only shrink the feasible
    set).  Raises :class:`InfeasibleError` when no horizon is feasible,
    which only side rows can cause.

    Exact procedure over the breakpoints of ``R(T)``, starting at the bound
    ``B = builder.demand_bound(LB)``, with ``LB`` the instance's trivial
    lower bound (:meth:`IP3Builder.trivial_lower`):
    ``LB ≤ B ≤ T*``, found from the LP-valid trapped-demand cut with no LP.
    ``T* = B`` is tried first.  With no side rows, one max-flow onto each
    job's cheapest pairs (:meth:`IP3Builder.cheapest_flow`) runs at ``B``,
    whichever term set it; a saturated flow's point, checked exactly by
    :meth:`IP3Builder.point_feasible`, proves ``T* = B`` with no LP and no
    LP rows at all.  A short flow refutes ``B`` only when ``B = Σc/m``;
    otherwise it proves nothing and the search goes on.  When ``B > LB``
    (a trapped set's ``D(α)/|α|``) lies strictly inside
    ``[points[s-1], points[s])``, one probe at ``B`` runs next and a
    feasible verdict proves ``T* = B``.  Otherwise, on that bracket, where
    ``R`` is fixed, the bracket's min-T LP with ``T ≥ B`` runs; an optimum
    ``≤ points[s]`` is ``T*``.  Failing that, from the first breakpoint
    ``≥ B`` the search gallops upward (indices ``start``, ``start+1``,
    ``start+3``, ``start+7``, … capped at the top) to the first feasible
    one, then bisects back for the smallest feasible breakpoint, the
    *anchor*.  A second min-T LP, over the bracket below the anchor, runs
    only when the anchor lies above ``points[s]``: at ``points[s]`` the
    bracket below is already decided.  The probes run through one
    :class:`_ProbeSession`, so consecutive probes reuse each other's
    feasible points and Farkas certificates and only a handful of them pay
    for an actual LP solve.  The search span records ``lower_bound`` (LB),
    ``demand_bound`` (B), ``start`` (B's breakpoint index), ``flow``
    (``saturated`` or ``short``, when the flow ran; its ``search.flow``
    child span records ``outcome=saturated|short|check-failed``) and how
    the bracket was refined: ``refine=flow`` (the flow proved ``T* = B``,
    no LP), ``bound-probe`` (the probe at B proved ``T* = B``),
    ``bound-bracket`` (B's bracket LP gave ``T*``), ``bound`` (the anchor
    is B, so ``T* = B`` with no min-T LP), ``prev-bracket`` (the LP below
    the anchor beat it), ``anchor`` or ``above-top`` (infeasible at every
    breakpoint; one min-T LP over the full ``R``, with no probe at all
    when B is above the top).
    """
    _resolve_backend(backend)  # raises on unknown names, even with no LP
    points = builder.breakpoints
    if points[-1] == 0 and not builder.side_template:
        # Every finite time is 0 and every job has one: T* = 0 exactly.
        # Side rows may still be infeasible at T = 0, so then it is probed.
        return Fraction(0)

    # LB ≤ T* (see Instance.trivial_bounds), and B ≥ LB refines it with the
    # trapped-demand cut: every T below B is infeasible without a probe.
    lower = builder.trivial_lower()
    bound = builder.demand_bound(lower)
    start = bisect_left(points, bound)
    top = len(points) - 1

    with trace_span(
        "search.minimal_fractional_T",
        n=builder.instance.n, backend=backend, breakpoints=len(points),
        lower_bound=str(lower), demand_bound=str(bound), start=start,
    ) as search_sp:
        if not builder.side_template:
            with trace_span("search.flow", T=str(bound)) as flow_sp:
                point = builder.cheapest_flow(bound)
                outcome = (
                    "short" if point is None
                    else "saturated" if builder.point_feasible(bound, point)
                    else "check-failed"
                )
                if flow_sp:
                    flow_sp.attrs["outcome"] = outcome
            if search_sp:
                search_sp.attrs["flow"] = "short" if point is None else "saturated"
            if outcome == "saturated":
                if search_sp:
                    search_sp.attrs["refine"] = "flow"
                return bound
        if start > top:
            if search_sp:
                search_sp.attrs["refine"] = "above-top"
            return _above_top(builder, bound, backend)
        session = _ProbeSession(builder, backend)
        if points[start] != bound:
            # B lies strictly inside [points[start-1], points[start]), where
            # R is fixed.  Set by a trapped set (B > LB), B itself is often
            # T*: one probe decides that, and an infeasible verdict leaves
            # its Farkas certificate to the gallop.
            if bound > lower and session.probe(bound) is not None:
                if search_sp:
                    search_sp.attrs["refine"] = "bound-probe"
                return bound
            # That bracket's min-T LP with T ≥ B is T* whenever its optimum
            # stays within the bracket's closure.
            t_bound = _min_T_with_fixed_R(builder, points[start - 1], bound, backend)
            if t_bound is not None and t_bound <= points[start]:
                if search_sp:
                    search_sp.attrs["refine"] = "bound-bracket"
                return t_bound
        # Gallop upward from the first breakpoint ≥ B to the first feasible
        # one; ``below`` is the last index known infeasible.
        below, anchor_point = start - 1, None
        for idx in _gallop(start, top):
            anchor_point = session.probe(points[idx])
            if anchor_point is not None:
                break
            below = idx
        if anchor_point is None:
            if search_sp:
                search_sp.attrs["refine"] = "above-top"
            return _above_top(builder, points[top], backend)
        # Bisect (below, idx] for the smallest feasible breakpoint index.
        lo_idx, hi_idx = below + 1, idx
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            mid_point = session.probe(points[mid])
            if mid_point is not None:
                anchor_point = mid_point
                hi_idx = mid
            else:
                lo_idx = mid + 1
        anchor = points[lo_idx]
        # The anchor probe certified T = anchor feasible, so over R(anchor)
        # with T ≥ anchor the optimum is the anchor itself.  Below it, R is
        # strictly smaller: only the previous bracket [prev, anchor) with
        # R(prev) can do better.  Below points[start] nothing is left to
        # solve: everything under B is refuted, and the rest of B's bracket
        # was decided by its LP.
        t_star, refine = anchor, "anchor"
        if anchor == bound:
            refine = "bound"
        elif lo_idx > start:
            prev = points[lo_idx - 1]
            # The anchor's feasible point, restricted to R(prev)'s variables,
            # with ``T = anchor`` is the best available seed: often feasible
            # for the previous bracket's LP, and its support still crashes
            # most of the basis when it is not.
            t_prev = _min_T_with_fixed_R(
                builder, prev, prev, backend, warm=(anchor, anchor_point),
            )
            if t_prev is not None and t_prev < anchor:
                t_star, refine = t_prev, "prev-bracket"
        if search_sp:
            search_sp.attrs["refine"] = refine
        return t_star

"""The exact simplex: revised two-phase simplex over a factorized basis.

The rounding arguments of Sections V and VI need *basic* feasible
solutions: Lenstra–Shmoys–Tardos relies on the pseudo-forest structure of
a vertex's support, and Lemma VI.2's iterative relaxation counts
fractional variables at a vertex.  Floating-point solvers return "almost"
vertices, and telling a fractional value from numeric noise then needs
tolerances that can break the combinatorial arguments.
:func:`solve_standard` is exact throughout, so support and fractionality
are exact properties.  It is a revised simplex that keeps only the basis
factorized and reconstructs just what an iteration needs:

* the dual row ``y = c_B·B⁻¹`` by one backward transform (``btran``) of the
  sparse basic-cost vector,
* reduced costs ``c_j − y·a_j`` (*pricing*) from the original constraint
  rows or columns, never from an updated tableau,
* the entering column ``B⁻¹·a_q`` by one forward transform (``ftran``),
* the basis exchange by one update of the factorized basis.

The basis is chosen by the program's structure, with no parameter, in
this order.  When every column of ``[A | S | I]`` has at most two non-zeros
(the LST LP), it is :class:`repro.lp.forest.ForestBasis`, which keeps the
basis as a pseudo-forest and updates it in tree-sized steps.  Otherwise,
when some row has only ``+1`` entries (the assignment rows of the search's
probes, min-T LPs and side-row programs), it is
:class:`repro.lp.gub.GUBBasis`, which keeps those rows implicit
(generalized upper bounding) and pivots a working basis the size of the
other rows.  Otherwise it is :class:`repro.lp.basis.LUBasis`, the
integer-preserving inverse with an ``O(rows²)`` rank-one update.  All three
return the same den-scaled integers (``den = |det B|``, ``rhs``,
``ftran``, ``btran``, ``row_dot``) after every pivot, so pricing, the ratio
test, the crash and Farkas certificates see the same numbers and every
pivot is the same under any of them.  The ``lp.solve`` span records which
one ran (``basis=forest|gub|lu``).

The kernel takes integer rows with their scales (the contract stated in
:mod:`repro.lp.solve`): each constraint row arrives scaled to integers by
the lcm of its denominators, either straight from a builder that emits
integer rows or through the one :func:`~repro.lp.solve.scale_rows` of a
rational entry point, so every quantity is an integer over the basis'
common denominator and no rational normalization happens inside the pivot
loop.  :func:`standard_form` sign-normalizes those rows into the
:class:`StandardForm` the kernel and the hybrid backend share, and
:class:`SimplexResult` is the record every backend returns.

Pricing follows the vertex contract.  Canonical solves (the default) price
every column with Dantzig's rule, which is deterministic, so the returned
vertex depends only on the program and the starting basis: the first
minimum of the den-scaled reduced costs ``acc[j] = c_j·den − Σ_i y_i·a_ij``
enters (the smallest index wins ties).  On ``LUBasis`` every pricing
computes ``acc`` in one pass over the scaled constraint rows whose dual is
non-zero.  On ``ForestBasis`` only a phase's first pricing (and one after
every dual was re-derived) does; after that, a float screen of the
reduced costs (:class:`_Screen`) refreshes just the duals the last pivot
moved, narrows the choice to the columns within its proven error bound of
the minimum, and prices those exactly, so the same column enters.
Probe-style solves (``canonical=False``) use partial pricing: columns are
scanned in rotating blocks and the Dantzig winner of the first block
containing an improving column enters.  That scan stays column-wise,
since it usually stops after one block; it prices only a fraction of the
columns per iteration and may land on a *different* (equally optimal)
vertex when optima are non-unique.
Under both rules, once the pivot count crosses :data:`BLAND_THRESHOLD`
the rule switches to Bland's smallest-index rule (the first exactly
negative reduced cost, priced in full on either basis), which cannot
cycle, so termination is guaranteed.
Every decision rests on exact integers, so how prices are computed never
changes which column enters.

A warm start is a point, never a carried basis: the point's support
columns are eliminated straight into the basis (``O(rows³)``, independent
of the column count).  This is how the hybrid backend certifies HiGHS
candidates.  A failed crash falls back to ordinary ratio-test pushes, which
preserve feasibility unconditionally.

Infeasible programs return an exact Farkas certificate
(:mod:`repro.lp.certificates`) read off the optimal phase-1 duals, so
callers running probe sequences can re-check it against a neighbouring LP
and skip entire solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .._fraction import to_fraction
from ..exceptions import PivotLimitError, SolverError
from .basis import LUBasis
from .certificates import denormalize_farkas, farkas_certifies
from .forest import ForestBasis
from .gub import GUBBasis, gub_rows
from .stats import SolverStats, record

#: After this many pivots the pivot rule switches to Bland's (anti-cycling).
BLAND_THRESHOLD = 5000
#: The pivot budget every solve runs under, exceeded only by a bug, not by
#: honest degeneracy; exceeding it raises the structured
#: :class:`~repro.exceptions.PivotLimitError`.  It is the one pivot-cap
#: channel: the sweep runner's per-task budget
#: (:func:`repro.runner.budget.pivot_cap`) swaps it for the duration of a
#: worker task and restores it, so every solve the task performs answers to
#: the budget without a cap threaded through every call chain.
MAX_PIVOTS = 200000


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: List[Fraction]
    objective: Optional[Fraction]
    basis: Optional[List[int]]
    pivots: int = 0
    #: Per-solve performance counters (``None`` for the float backend).
    stats: Optional[SolverStats] = None
    #: Verified Farkas certificate (infeasible results; row-indexed in the
    #: caller's row order, see :mod:`repro.lp.certificates`).
    farkas: Optional[List[Fraction]] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class StandardForm:
    """The normalized standard form shared by the exact and hybrid solvers.

    Rows are integer rows (see :mod:`repro.lp.solve`) sign-normalized to
    ``b ≥ 0``: row ``i`` is the raw row times ``±scales[i]``.  Slack and
    artificial variables are assigned fixed column indices so a candidate
    basis can be described by column index alone.
    """

    n: int  # structural variables
    num_rows: int
    rows: List[Dict[int, int]]
    senses: List[str]
    rhs: List[int]
    scales: List[int]
    slack_of_row: List[Optional[int]]
    slack_sign: List[int]
    needs_artificial: List[bool]
    art_start: int  # first artificial column; == total non-artificial columns
    total_cols: int  # including artificials, excluding the rhs column


def standard_form(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> StandardForm:
    """Normalize ``min c·x s.t. rows, x ≥ 0`` for the exact solver.

    The rows are integer rows with their *scales* (see the module
    docstring).
    """
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise SolverError("rows, senses and rhs must have equal length")
    norm_rows: List[Dict[int, int]] = []
    norm_rhs: List[int] = []
    norm_senses: List[str] = []
    for i in range(r):
        row = coeff_rows[i]
        b = rhs[i]
        sense = senses[i]
        if sense not in ("<=", ">=", "=="):
            raise SolverError(f"unknown sense {sense!r}")
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm_rows.append(row)
        norm_rhs.append(b)
        norm_senses.append(sense)

    slack_index = n
    slack_of_row: List[Optional[int]] = [None] * r
    slack_sign: List[int] = [0] * r
    for i, sense in enumerate(norm_senses):
        if sense in ("<=", ">="):
            slack_of_row[i] = slack_index
            slack_sign[i] = 1 if sense == "<=" else -1
            slack_index += 1
    needs_artificial = [sense in (">=", "==") for sense in norm_senses]
    art_start = slack_index
    total_cols = art_start + sum(needs_artificial)
    return StandardForm(
        n=n,
        num_rows=r,
        rows=norm_rows,
        senses=norm_senses,
        rhs=norm_rhs,
        scales=list(scales),
        slack_of_row=slack_of_row,
        slack_sign=slack_sign,
        needs_artificial=needs_artificial,
        art_start=art_start,
        total_cols=total_cols,
    )


def _point_hints(point: Sequence[Fraction]) -> List[int]:
    """Support of a warm-start point, largest value first (deterministic)."""
    support = [(v, j) for j, v in enumerate(point) if v and v > 0]
    support.sort(key=lambda pair: (-pair[0], pair[1]))
    return [j for _v, j in support]


#: Relative slack below which a row counts as tight at a warm-start point.
#: Only a *heuristic* (the crash result is verified exactly afterwards), so
#: the tolerance exists to keep rationalization noise from hiding a row that
#: is tight at the true vertex.
_TIGHT_EPS = 1e-9


def _tight_rows(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    scales: Sequence[int],
    point: Sequence[Fraction],
) -> List[bool]:
    """Which integer rows hold with (near-)equality at *point*.

    Equality rows count as tight regardless of the (possibly noisy) point —
    their artificial has to leave the basis either way.
    """
    flags: List[bool] = []
    # Float throughout: this is a heuristic with a relative tolerance nine
    # orders of magnitude above float dot-product noise, and the crash it
    # feeds is verified exactly afterwards.  It runs on the raw rows: the
    # tolerance is relative to the raw right-hand side, so it is not
    # invariant under row scaling.  ``a / scale`` (integer true division)
    # rounds correctly, so each entry is the float of the raw rational.
    fpoint = [float(v) if v else 0.0 for v in point]
    for row, sense, b, scale in zip(coeff_rows, senses, rhs, scales):
        if sense == "==":
            flags.append(True)
            continue
        activity = 0.0
        for j, v in row.items():
            pj = fpoint[j]
            if pj:
                activity += v / scale * pj
        fb = b / scale
        flags.append(abs(activity - fb) <= _TIGHT_EPS * max(1.0, abs(fb)))
    return flags




class _Screen:
    """A float screen of the reduced costs, kept across pivots.

    For programs whose every column lies in at most two rows (the LST LP on
    :class:`~repro.lp.forest.ForestBasis`), a column's reduced cost
    ``d_j = c_j − y_{r1}·a_1 − y_{r2}·a_2`` changes only when the true
    dual of one of its two rows does, and the basis names those rows
    (``moved``).  The screen keeps each row's dual as a float ``y_i/den``
    (correctly rounded), refreshes only the moved rows, and evaluates
    ``s_j`` by that formula in floats for all columns at once.

    Each ``s_j`` is within
    ``E = 7u·(max|c| + 2·max|a|·max|y|) + 2⁻¹⁰⁷⁰·(max|a| + 1)`` of ``d_j``
    (``u = 2⁻⁵³``: at most six roundings — of the cost, the dual, the entry
    and the three operations — each at most ``u`` relative to a term
    bounded by ``|c| + |y_1 a_1| + |y_2 a_2|``; the absolute term covers
    underflow).  So every column attaining the exact minimum has
    ``s_j ≤ min s + 2E`` (the code allows ``3E``, which absorbs the
    rounding of the sum), and only a column with ``s_j < E`` can be
    negative.  Those candidates are settled exactly: a column whose two
    duals are integers, with every magnitude below ``2⁵³``, has
    ``s_j = d_j`` exactly (all operations are exact integer arithmetic);
    every other candidate is priced exactly from the integer duals.
    Dantzig's rule takes the first exact minimum — the column that pricing
    every column exactly picks.  (Bland's rule prices every column in full.)

    Every conversion to float is the built-in ``int``'s, which rounds
    correctly and raises ``OverflowError`` beyond float range.
    """

    __slots__ = ("r1", "a1", "r2", "a2", "amax", "yf", "frac", "cf", "cmax", "stale")

    def __init__(self, solver: "_RevisedSolver"):
        m, n = solver.m, solver.std.art_start
        # A one-entry (or empty) column points its missing rows at the
        # zero dual ``m``.
        self.r1 = np.full(n, m, dtype=np.intp)
        self.r2 = np.full(n, m, dtype=np.intp)
        self.a1 = np.zeros(n)
        self.a2 = np.zeros(n)
        #: ``max|a|``, or ``None`` when an entry overflows a float: then
        #: the screen is off and every pricing is full.
        self.amax: Optional[float] = None
        try:
            for j in range(n):
                first = True
                for i, a in solver.col_items[j]:
                    if a:
                        if first:
                            self.r1[j], self.a1[j] = i, float(a)
                            first = False
                        else:
                            self.r2[j], self.a2[j] = i, float(a)
        except OverflowError:
            pass
        else:
            self.amax = float(
                max(np.abs(self.a1).max(initial=0), np.abs(self.a2).max(initial=0))
            )
        #: The float duals, and which rows' true duals are not integers.
        self.yf = np.zeros(m + 1)
        self.frac = np.zeros(m + 1, dtype=bool)
        #: The phase-2 costs as floats (built on first use), and ``max|c|``.
        self.cf: Optional[np.ndarray] = None
        self.cmax = 0.0
        #: Every float dual must be refreshed.
        self.stale = True

    def _refresh(self, lub, den: int, moved) -> None:
        yf, frac = self.yf, self.frac
        if self.stale:
            y_num = lub.duals()
            m = len(y_num)
            yf[:m] = [v / den for v in y_num]
            frac[:m] = [v % den != 0 for v in y_num]
            self.stale = False
        else:
            dual = lub.dual
            for i in moved:
                v = dual(i)
                yf[i] = v / den
                frac[i] = v % den != 0

    def evaluate(self, solver: "_RevisedSolver", moved):
        """Refresh the moved duals and screen every column.

        Returns ``(s, err, fuzzy)``: the screen, its error bound ``E`` and,
        per row, whether a column touching it must be priced exactly (its
        dual is not an integer, or the magnitudes reach ``2⁵³``).  Returns
        ``None`` when a float overflowed.
        """
        if self.amax is None:
            return None
        den = solver.lub.den
        try:
            self._refresh(solver.lub, den, moved)
        except OverflowError:
            self.stale = True
            return None
        s = self.yf[self.r1] * self.a1
        s += self.yf[self.r2] * self.a2
        costs = solver._costs()
        if costs:
            if self.cf is None:
                cf = np.zeros(len(s))
                try:
                    cf[: len(costs)] = [float(int(c)) for c in costs]
                except OverflowError:
                    return None
                self.cf = cf
                self.cmax = float(np.abs(cf).max(initial=0))
            s = self.cf - s
            cmax = self.cmax
        else:
            s = -s
            cmax = 0.0
        bound = cmax + 2 * self.amax * float(np.abs(self.yf).max())
        if not bound < inf:
            return None
        fuzzy = self.frac if bound < 2.0 ** 53 else np.ones_like(self.frac)
        err = 7 * 2.0 ** -53 * bound + 2.0 ** -1070 * (self.amax + 1)
        return s, err, fuzzy

    def pick(self, solver: "_RevisedSolver", moved) -> Optional[int]:
        """Dantzig's entering column, or ``-1`` when a float overflowed."""
        screened = self.evaluate(solver, moved)
        if screened is None:
            return -1
        s, err, fuzzy_row = screened
        # The candidates, in index order, and which must be priced exactly.
        cand = np.flatnonzero(s <= min(float(s.min()) + 3 * err, err))
        fuzzy = fuzzy_row[self.r1[cand]] | fuzzy_row[self.r2[cand]]
        den = solver.lub.den
        costs = solver._costs()
        exact_rc = solver._exact_rc
        win: Optional[int] = None
        win_v = 0
        sure = cand[~fuzzy]
        if len(sure):
            j = int(sure[np.argmin(s[sure])])
            if s[j] < 0:
                win, win_v = j, int(s[j]) * den
        for j in cand[fuzzy].tolist():
            v = exact_rc(j, den, costs)
            if v < win_v or (v == win_v and win is not None and j < win):
                win, win_v = j, v
        return win


class _RevisedSolver:
    """One solve's state: scaled columns, factorized basis, counters.

    ``lub`` is the basis: a :class:`ForestBasis`, a :class:`GUBBasis` or
    an :class:`LUBasis`, as ``_basis_cls`` chose from the columns
    (``_basis_args`` holds a ``GUBBasis``'s implicit rows).
    """

    def __init__(
        self,
        std,
        objective: Sequence[Fraction],
        partial: bool,
    ):
        self.std = std
        self.m = std.num_rows
        #: Partial (rotating-block) pricing instead of full Dantzig.
        self.partial = partial
        self.stats = SolverStats(solves=1)
        self.phase = 2

        # The rows arrive as integers (see the module docstring); slacks
        # and artificials are implicitly rescaled with their row (their
        # columns keep ±1 entries, so the starting basis is the identity).
        m = self.m
        self.scales: List[int] = std.scales
        self.b_int: List[int] = list(std.rhs)

        # Sparse integer columns of [A | S | I], and the same entries by row
        # restricted to the priced columns [A | S] (one-pass pricing).
        cols: List[Dict[int, int]] = [dict() for _ in range(std.total_cols)]
        row_items: List[List[Tuple[int, int]]] = []
        for i in range(m):
            items = list(std.rows[i].items())
            for j, a in items:
                cols[j][i] = a
            row_items.append(items)
        art_index = std.art_start
        self.art_of_row: List[Optional[int]] = [None] * m
        for i in range(m):
            s = std.slack_of_row[i]
            if s is not None:
                cols[s][i] = std.slack_sign[i]
                row_items[i].append((s, std.slack_sign[i]))
            if std.needs_artificial[i]:
                cols[art_index][i] = 1
                self.art_of_row[i] = art_index
                art_index += 1
        self.cols = cols
        self.row_items = row_items
        self.col_items: List[Tuple[Tuple[int, int], ...]] = [
            tuple(c.items()) for c in cols
        ]

        # Scaled integer objective (positive scaling preserves signs/argmin).
        fr_obj = [c if isinstance(c, int) else to_fraction(c) for c in objective]
        obj_scale = lcm(*(c.denominator for c in fr_obj))
        self.c_int: List[int] = [
            c.numerator * (obj_scale // c.denominator) for c in fr_obj
        ]

        # Slack-or-artificial starting basis (identity in the scaled system).
        self.basis: List[int] = [
            self.art_of_row[i]
            if self.art_of_row[i] is not None
            else std.slack_of_row[i]  # type: ignore[list-item]
            for i in range(m)
        ]
        # Chosen by structure alone (see the module docstring).
        self._basis_args: Tuple = ()
        if all(len(c) <= 2 or sum(1 for a in c.values() if a) <= 2 for c in cols):
            self._basis_cls = ForestBasis
        elif implicit := gub_rows(row_items):
            self._basis_cls, self._basis_args = GUBBasis, (implicit,)
        else:
            self._basis_cls = LUBasis
        self.lub = self._basis_cls(m, self.b_int, *self._basis_args)
        self._cursor = 0
        self._block = max(64, (std.art_start + 7) // 8)
        #: The basis keeps its duals and rhs stamped, reads them one entry
        #: at a time and names the duals a pivot moved (``ForestBasis``).
        self._stamped = hasattr(self.lub, "rederive")
        #: Canonical pricing on such a basis keeps a float screen of the
        #: reduced costs across pivots; see :class:`_Screen`.
        self._incremental = self._stamped and not partial
        self._screen: Optional[_Screen] = None
        #: Whether this phase has priced once (its first pricing is full).
        self._priced = False
        #: The current phase's non-zero basic costs by basis position,
        #: kept up to date by ``_pivot``; ``None`` until ``_basic_costs``
        #: builds it.
        self._cb: Optional[Dict[int, int]] = None
        #: The costs were replaced (a new phase) since the last
        #: ``rederive``, so every dual must be re-derived (pseudo-forest
        #: basis).  Within a phase only a pivot's own position changes
        #: cost, and ``ForestBasis.update`` marks that edge's node moved.
        self._new_costs = True

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    @property
    def pivots(self) -> int:
        return self.lub.updates

    def _pivot(self, row: int, alpha: Sequence[int], col: int) -> None:
        self.lub.update(row, alpha, self.cols[col])
        self.basis[row] = col
        cb = self._cb
        if cb is not None:
            c = self._basic_cost(col)
            if c:
                cb[row] = c
            else:
                cb.pop(row, None)
        if self.phase == 1:
            self.stats.phase1_pivots += 1
        if self.lub.updates > MAX_PIVOTS:
            raise PivotLimitError(MAX_PIVOTS, self.lub.updates, self.phase)

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def _costs(self) -> Sequence[int]:
        # Phase 1 prices against zero structural costs; phase 2 against the
        # scaled objective (slack/artificial costs are zero in both).
        return self.c_int if self.phase == 2 else ()

    def _basic_cost(self, col: int) -> int:
        """Column *col*'s cost in the current phase (artificials cost 1 in
        phase 1, structurals their scaled objective in phase 2)."""
        if self.phase == 1:
            return 1 if col >= self.std.art_start else 0
        return self.c_int[col] if col < self.std.n else 0

    def _prices(self, y_num: List[int]) -> List[int]:
        """Every priced column's den-scaled reduced cost, in one pass.

        ``acc[j] = c_j·den − Σ_i y_i·a_ij``, accumulated over the rows of
        ``[A | S]`` whose dual ``y_i`` is non-zero.
        """
        den = self.lub.den
        acc = [c * den for c in self._costs()]
        acc += [0] * (self.std.art_start - len(acc))
        row_items = self.row_items
        for i, yi in enumerate(y_num):
            if yi:
                for j, a in row_items[i]:
                    acc[j] -= yi * a
        return acc

    def _exact_rc(self, j: int, den: int, costs) -> int:
        """Column *j*'s den-scaled reduced cost, exactly, from the duals of
        the last ``rederive`` (pseudo-forest basis only)."""
        v = costs[j] * den if j < len(costs) else 0
        dual = self.lub.dual
        for i, a in self.col_items[j]:
            if a:
                v -= dual(i) * a
        return v

    def _entering_screened(
        self, moved: Optional[Set[int]], bland: bool
    ) -> Optional[int]:
        """The entering column on the pseudo-forest basis, after
        ``rederive`` re-derived the *moved* duals (``None``: all)."""
        if self._priced and moved is not None and not bland:
            if self._screen is None:
                self._screen = _Screen(self)
            col = self._screen.pick(self, moved)
            if col != -1:
                return col
        # A phase's first pricing, one after every dual was re-derived or
        # the screen overflowed, and every pricing under Bland's rule:
        # price every column exactly, and refresh every float dual next
        # time.
        self._priced = True
        if self._screen is not None:
            self._screen.stale = True
        return self._entering(self.lub.duals(), bland)

    def _entering(self, y_num: List[int], bland: bool) -> Optional[int]:
        if bland:
            return next(
                (j for j, v in enumerate(self._prices(y_num)) if v < 0), None
            )
        if not self.partial:
            acc = self._prices(y_num)
            best = min(acc, default=0)
            # The first minimum keeps Dantzig's smallest-index tie-break.
            return acc.index(best) if best < 0 else None
        # Partial pricing: rotating blocks, Dantzig winner of the first
        # block that contains any improving column.  Column-wise, because
        # the scan usually stops after the first block.
        limit = self.std.art_start
        den = self.lub.den
        costs = self._costs()
        n_costs = len(costs)
        col_items = self.col_items
        block = self._block
        scanned = 0
        j = self._cursor if self._cursor < limit else 0
        best_j = None
        best = 0
        while scanned < limit:
            v = costs[j] * den if j < n_costs else 0
            for i, a in col_items[j]:
                yi = y_num[i]
                if yi:
                    v -= yi * a
            if v < best:
                best = v
                best_j = j
            scanned += 1
            j += 1
            if j >= limit:
                j = 0
            if scanned % block == 0 and best_j is not None:
                break
        if best_j is not None:
            self._cursor = (best_j + 1) % limit
        return best_j

    def _basic_costs(self) -> Dict[int, int]:
        """The current phase's non-zero basic costs by basis position."""
        if self._cb is None:
            cost = self._basic_cost
            self._cb = {
                i: c for i, b in enumerate(self.basis) if (c := cost(b))
            }
        return self._cb

    def _rederive(self) -> Optional[Set[int]]:
        """``rederive`` on the pseudo-forest basis: the duals the pivots
        since the last call moved (``None``: all of them)."""
        moved = self.lub.rederive(self._basic_costs(), self._new_costs)
        self._new_costs = False
        return moved

    def _dual_row(self) -> List[int]:
        """den-scaled duals ``c_B·W`` for the current phase's costs."""
        if self._stamped:
            self._rederive()
            return self.lub.duals()
        return self.lub.btran(self._basic_costs())

    # ------------------------------------------------------------------
    # Ratio test (ties broken by smallest basis index: Bland-safe)
    # ------------------------------------------------------------------

    def _leaving(self, alpha: Sequence[int]) -> Optional[int]:
        lub = self.lub
        rhs_at = lub.rhs_at if self._stamped else lub.rhs.__getitem__
        basis = self.basis
        best_r: Optional[int] = None
        best_b = best_a = 0
        for r in range(self.m):
            a = alpha[r]
            if a <= 0:
                continue
            b = rhs_at(r)
            if best_r is None:
                best_r, best_b, best_a = r, b, a
                continue
            lhs = b * best_a
            cmp = best_b * a
            if lhs < cmp or (lhs == cmp and basis[r] < basis[best_r]):
                best_r, best_b, best_a = r, b, a
        return best_r

    def _set_phase(self, phase: int) -> None:
        # New costs or a new basis: the basic-cost dict and the screen's
        # costs are rebuilt, and the next pricing is full.
        self.phase = phase
        self._cb = None
        self._new_costs = True
        self._priced = False
        if self._screen is not None:
            self._screen.cf = None

    def run_phase(self, phase: int) -> str:
        self._set_phase(phase)
        while True:
            bland = self.pivots >= BLAND_THRESHOLD
            if self._incremental:
                col = self._entering_screened(self._rederive(), bland)
            else:
                col = self._entering(self._dual_row(), bland)
            if col is None:
                return "optimal"
            alpha = self.lub.ftran(self.cols[col])
            row = self._leaving(alpha)
            if row is None:
                return "unbounded"
            self._pivot(row, alpha, col)

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------

    def crash_factorize(
        self, hints: Sequence[int], eligible: Optional[Sequence[bool]]
    ) -> bool:
        """Factorize the hinted basis directly; ``True`` iff exactly feasible.

        Hint columns are eliminated into eligible (tight) rows —
        structurally-owning rows first, artificial-basic ones preferred so
        phase 1 dissolves as a side effect — then slack columns are
        reinstated on rows whose artificial would otherwise sit at a
        non-zero level.  The intermediate dictionaries may be infeasible;
        the result counts only if the final one is exactly feasible with
        every remaining artificial at level 0.
        """
        std, m = self.std, self.m
        self.stats.refactorizations += 1
        claimed = [False] * m
        in_basis = set(self.basis)
        skipped: List[int] = []
        for col in hints:
            if not 0 <= col < std.art_start or col in in_basis:
                continue
            alpha = self.lub.ftran(self.cols[col])
            best_row: Optional[int] = None
            best_rank = 2
            for r in range(m):
                if (
                    claimed[r]
                    or (eligible is not None and not eligible[r])
                    or r not in self.cols[col]
                    or alpha[r] == 0
                ):
                    continue
                rank = 0 if self.basis[r] >= std.art_start else 1
                if rank < best_rank:
                    best_rank = rank
                    best_row = r
                    if rank == 0:
                        break
            if best_row is None:
                skipped.append(col)
                continue
            in_basis.discard(self.basis[best_row])
            self._pivot(best_row, alpha, col)
            in_basis.add(col)
            claimed[best_row] = True
        # Mop-up: stragglers may factor into eligible rows through fill-in
        # once every structurally-owning row is placed.
        for col in skipped:
            alpha = self.lub.ftran(self.cols[col])
            best_row = None
            for r in range(m):
                if (
                    claimed[r]
                    or (eligible is not None and not eligible[r])
                    or alpha[r] == 0
                ):
                    continue
                best_row = r
                if self.basis[r] >= std.art_start:
                    break
            if best_row is None:
                continue  # linearly dependent on the placed columns
            in_basis.discard(self.basis[best_row])
            self._pivot(best_row, alpha, col)
            in_basis.add(col)
            claimed[best_row] = True
        # A "≥" row that is slack at the warm point starts artificial-basic;
        # reinstate its surplus column so the artificial is not left at a
        # negative level.
        for r in range(m):
            if self.basis[r] >= std.art_start:
                s = std.slack_of_row[r]
                if s is not None and s not in in_basis:
                    alpha = self.lub.ftran(self.cols[s])
                    if alpha[r] != 0:
                        in_basis.discard(self.basis[r])
                        self._pivot(r, alpha, s)
                        in_basis.add(s)
        rhs = self.lub.rhs
        for r in range(m):
            if rhs[r] < 0:
                return False
            if self.basis[r] >= std.art_start and rhs[r] != 0:
                return False
        return True

    def push_hints(self, hints: Sequence[int]) -> None:
        """Ratio-test pushes: always legal, bad hints only cost their pivots."""
        in_basis = set(self.basis)
        for col in hints:
            if not 0 <= col < self.std.art_start or col in in_basis:
                continue
            alpha = self.lub.ftran(self.cols[col])
            row = self._leaving(alpha)
            if row is None:
                continue
            in_basis.discard(self.basis[row])
            self._pivot(row, alpha, col)
            in_basis.add(col)

    def reset(self) -> None:
        """Back to the slack/artificial identity basis (crash fallback)."""
        self.basis = [
            self.art_of_row[i]
            if self.art_of_row[i] is not None
            else self.std.slack_of_row[i]  # type: ignore[list-item]
            for i in range(self.m)
        ]
        updates = self.lub.updates
        self.lub = self._basis_cls(self.m, self.b_int, *self._basis_args)
        self.lub.updates = updates  # pivot budget covers the failed crash
        self._set_phase(self.phase)

    # ------------------------------------------------------------------
    # Phase-1 bookkeeping
    # ------------------------------------------------------------------

    def artificial_level_positive(self) -> bool:
        rhs = self.lub.rhs
        return any(
            rhs[i] != 0
            for i in range(self.m)
            if self.basis[i] >= self.std.art_start
        )

    def clear_artificials(self) -> None:
        """Pivot zero-level artificials out wherever a structural entry exists.

        Load-bearing: a basic
        artificial at level 0 whose row has non-zero structural entries
        could be lifted off zero by a later phase-2 pivot, silently voiding
        an equality row.  All-zero rows (redundant constraints) keep their
        artificial marker; extraction skips it and pricing never enters
        artificial columns.
        """
        for i in range(self.m):
            if self.basis[i] >= self.std.art_start:
                for j in range(self.std.art_start):
                    entry = self.lub.row_dot(i, self.cols[j])
                    if entry != 0:
                        alpha = self.lub.ftran(self.cols[j])
                        self._pivot(i, alpha, j)
                        break

    def farkas_certificate(
        self,
        coeff_rows: Sequence[Dict[int, int]],
        senses: Sequence[str],
        rhs: Sequence[int],
    ) -> Optional[List[Fraction]]:
        """The exact Farkas dual read off the optimal phase-1 basis.

        The scaled phase-1 duals ``y_num/den`` certify the *scaled* rows;
        row ``i`` of the scaled system is ``scales[i]`` times the
        sign-normalized row, so the normalized certificate is
        ``y_num[i]·scales[i]/den``, denormalized back to the caller's row
        signs: raw-row units.  Verified exactly against the caller's
        integer rows before being returned — a certificate this module
        emits is always a proof.
        """
        self._set_phase(1)
        y_num = self._dual_row()
        den = self.lub.den
        y_std = [
            Fraction(y_num[i] * self.scales[i], den) for i in range(self.m)
        ]
        y_raw = denormalize_farkas(y_std, rhs)
        if farkas_certifies(coeff_rows, senses, rhs, y_raw, self.scales):
            return y_raw
        return None  # pragma: no cover - duality guarantees the checks

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def extract(self, objective: Sequence[Fraction]):
        n = self.std.n
        den = self.lub.den
        rhs = self.lub.rhs
        x = [Fraction(0)] * n
        for i in range(self.m):
            if self.basis[i] < n:
                x[self.basis[i]] = Fraction(rhs[i], den)
        value = sum(
            (to_fraction(objective[j]) * x[j] for j in range(n) if x[j]),
            Fraction(0),
        )
        return x, value


def solve_standard(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
    warm_point: Optional[Sequence[Fraction]] = None,
    canonical: bool = True,
) -> SimplexResult:
    """Solve ``min c·x  s.t.  rows, x ≥ 0`` exactly.

    *coeff_rows* are sparse ``{var_index: coefficient}`` mappings; *senses*
    entries are ``"<="``, ``">="`` or ``"=="``.  The rows are integer rows
    with their *scales* (see :mod:`repro.lp.solve`).  The returned ``x`` is
    an exact rational basic solution: at most ``len(coeff_rows)`` entries are non-zero.
    Every result carries ``stats``; infeasible results carry a verified
    Farkas certificate on ``farkas``, in raw-row units.

    Pricing switches to Bland's rule after :data:`BLAND_THRESHOLD` pivots.
    The pivot budget is :data:`MAX_PIVOTS` (which the sweep runner's
    :func:`~repro.runner.budget.pivot_cap` swaps per task); exhausting it
    raises the structured :class:`~repro.exceptions.PivotLimitError`.

    A warm start can only speed the solve up, never change its guarantees:
    *warm_point* is a candidate solution whose support and tight rows seed a
    crash basis.  A crash that lands on an infeasible dictionary restarts
    from the identity basis and pushes the support in by ratio tests.

    *canonical* picks the pricing and with it the vertex contract.  ``True``
    (the default) prices with Dantzig's rule, so the vertex is a
    deterministic function of the program and the starting basis.
    ``False`` prices partially, for probe-style callers that need only
    feasibility or the objective value and take whatever vertex the solve
    lands on.
    """
    if not isinstance(canonical, bool):
        raise SolverError(f"canonical must be a bool, not {canonical!r}")
    from ..obs.trace import span as trace_span

    with trace_span(
        "lp.solve", kernel="revised", rows=len(coeff_rows), cols=len(objective),
    ) as solve_sp:
        std = standard_form(coeff_rows, senses, rhs, objective, scales)
        solver = _RevisedSolver(std, objective, partial=not canonical)
        if solve_sp:
            solve_sp.attrs["basis"] = solver.lub.kind
        has_artificials = any(std.needs_artificial)

        crashed = False
        if warm_point is not None and len(warm_point) == std.n:
            point = [to_fraction(v) for v in warm_point]
            hints = _point_hints(point)
            if hints:
                solver.stats.warm_start_attempts += 1
                with trace_span("lp.crash", hints=len(hints)) as crash_sp:
                    crashed = solver.crash_factorize(
                        hints, _tight_rows(coeff_rows, senses, rhs, scales, point)
                    )
                    if crashed:
                        solver.stats.warm_start_hits += 1
                    else:
                        # The crash landed on an infeasible dictionary;
                        # restart from the identity basis and fall back to
                        # ratio-test pushes.
                        solver.reset()
                        solver.push_hints(hints)
                    if crash_sp:
                        crash_sp.attrs["hit"] = crashed
                        crash_sp.attrs["pivots"] = solver.pivots

        # ------------- Phase 1: minimize the sum of artificials ------------
        if has_artificials and not crashed:
            with trace_span("lp.phase1") as phase_sp:
                status = solver.run_phase(1)
                if phase_sp:
                    phase_sp.attrs["pivots"] = solver.stats.phase1_pivots
            if status == "unbounded":  # pragma: no cover - impossible: cost ≥ 0
                raise SolverError("phase-1 objective unbounded")
            if solver.artificial_level_positive():
                farkas = solver.farkas_certificate(coeff_rows, senses, rhs)
                solver.stats.pivots = solver.pivots
                record(solver.stats)
                if solve_sp:
                    solve_sp.attrs["status"] = "infeasible"
                return SimplexResult(
                    "infeasible", [], None, None, solver.pivots,
                    stats=solver.stats, farkas=farkas,
                )
        if has_artificials:
            solver.clear_artificials()

        # ------------- Phase 2: original objective -------------------------
        phase1_total = solver.pivots
        with trace_span("lp.phase2") as phase_sp:
            status = solver.run_phase(2)
            if phase_sp:
                phase_sp.attrs["pivots"] = solver.pivots - phase1_total
        solver.stats.pivots = solver.pivots
        record(solver.stats)
        if solve_sp:
            solve_sp.attrs["status"] = status
            solve_sp.attrs["pivots"] = solver.pivots
        if status == "unbounded":
            return SimplexResult(
                "unbounded", [], None, list(solver.basis), solver.pivots,
                stats=solver.stats,
            )
        x, value = solver.extract(objective)
        return SimplexResult(
            "optimal", x, value, list(solver.basis), solver.pivots,
            stats=solver.stats,
        )

"""Reference oracle: a cold two-phase simplex on a dense integer tableau.

An independent implementation of the exact simplex, kept only to check the
revised solver (:func:`repro.lp.solve_standard`) against.  It shares
nothing with that solver except :func:`repro.lp.revised.standard_form` (the
column layout both must agree on) and the Bland threshold.  Each row is
scaled to integers and the tableau is kept with one common denominator (Edmonds' fraction-free
pivoting), so every value is exact.

The pivot rule is the revised solver's canonical one: Dantzig's rule with
ties to the smallest column, a min-ratio test with ties to the smallest
basic column, and Bland's rule once the pivot count reaches
:data:`~repro.lp.revised.BLAND_THRESHOLD`.  From a cold start both
solvers therefore pivot identically and return the same basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Optional

from _int_rows import scaled

from repro.lp.revised import BLAND_THRESHOLD, standard_form


class ReferenceResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: List[Fraction]
    objective: Optional[Fraction]
    basis: Optional[List[int]]


class _Tableau:
    """Integer tableau over one common denominator ``den > 0``.

    ``rows`` holds the constraint rows followed by the phase-2 cost row and,
    while phase 1 runs, the phase-1 cost row; the rhs is the last column.
    The rational value of a cell is ``cell / den``.
    """

    def __init__(
        self, rows: List[List[int]], basis: List[int], num_rows: int, art_start: int
    ):
        self.rows = rows
        self.den = 1
        self.basis = basis
        self.num_rows = num_rows
        self.art_start = art_start
        self.pivots = 0

    def pivot(self, row: int, col: int) -> None:
        rows, den = self.rows, self.den
        piv_row = rows[row]
        piv = piv_row[col]
        for i, cur in enumerate(rows):
            if i == row:
                continue
            f = cur[col]
            rows[i] = [(a * piv - f * b) // den for a, b in zip(cur, piv_row)]
        self.basis[row] = col
        if piv < 0:
            self.den = -piv
            self.rows = [[-a for a in r] for r in rows]
        else:
            self.den = piv
        self.pivots += 1

    def entering(self, cost_index: int) -> Optional[int]:
        """Most negative reduced cost (Dantzig), or the first one (Bland)."""
        cost = self.rows[cost_index]
        bland = self.pivots >= BLAND_THRESHOLD
        best_j: Optional[int] = None
        best = 0
        for j in range(self.art_start):
            if cost[j] < best:
                if bland:
                    return j
                best, best_j = cost[j], j
        return best_j

    def leaving(self, col: int) -> Optional[int]:
        """Min-ratio row; ties go to the smallest basic column."""
        best_r: Optional[int] = None
        best_b = best_a = 0
        for r in range(self.num_rows):
            a = self.rows[r][col]
            if a <= 0:
                continue
            b = self.rows[r][-1]
            if best_r is None or b * best_a < best_b * a or (
                b * best_a == best_b * a and self.basis[r] < self.basis[best_r]
            ):
                best_r, best_b, best_a = r, b, a
        return best_r

    def run_phase(self, cost_index: int) -> str:
        while True:
            col = self.entering(cost_index)
            if col is None:
                return "optimal"
            row = self.leaving(col)
            if row is None:
                return "unbounded"
            self.pivot(row, col)

    def drop_artificials(self) -> None:
        """Cut the artificial columns once phase 1 is over."""
        self.rows = [r[: self.art_start] + [r[-1]] for r in self.rows]


def _build(std, objective: List[Fraction]):
    """Row-scaled integer tableau with the slack/artificial starting basis."""
    m, width = std.num_rows, std.total_cols + 1
    rows: List[List[int]] = []
    basis: List[int] = []
    art = std.art_start
    for i in range(m):
        denominators = [v.denominator for v in std.rows[i].values()]
        scale = lcm(std.rhs[i].denominator, *denominators)
        row = [0] * width
        for j, v in std.rows[i].items():
            row[j] = int(v * scale)
        if std.slack_of_row[i] is not None:
            row[std.slack_of_row[i]] = std.slack_sign[i]
        if std.needs_artificial[i]:
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(std.slack_of_row[i])
        row[-1] = int(std.rhs[i] * scale)
        rows.append(row)
    obj_scale = lcm(*(c.denominator for c in objective)) if objective else 1
    cost2 = [0] * width
    for j, c in enumerate(objective):
        cost2[j] = int(c * obj_scale)
    rows.append(cost2)
    has_artificials = art > std.art_start
    if has_artificials:
        cost1 = [0] * width
        for j in range(std.art_start, std.total_cols):
            cost1[j] = 1
        for i in range(m):
            if basis[i] >= std.art_start:
                cost1 = [a - b for a, b in zip(cost1, rows[i])]
        rows.append(cost1)
    return _Tableau(rows, basis, m, std.art_start), has_artificials


def reference_solve(coeff_rows, senses, rhs, objective) -> ReferenceResult:
    """Solve ``min c·x  s.t.  rows, x ≥ 0`` from the slack/artificial basis."""
    objective = [Fraction(c) for c in objective]
    std = standard_form(*scaled(coeff_rows, senses, rhs, objective))
    tab, has_artificials = _build(std, objective)
    m = std.num_rows
    if has_artificials:
        tab.run_phase(m + 1)
        if tab.rows[m + 1][-1] < 0:  # phase-1 optimum still positive
            return ReferenceResult("infeasible", [], None, None)
        # A zero-level artificial left basic on a row with structural
        # entries could be lifted off zero in phase 2: pivot it out.
        for i in range(m):
            if tab.basis[i] >= std.art_start:
                col = next((j for j in range(std.art_start) if tab.rows[i][j]), None)
                if col is not None:
                    tab.pivot(i, col)
        tab.rows.pop()
        tab.drop_artificials()
    if tab.run_phase(m) == "unbounded":
        return ReferenceResult("unbounded", [], None, list(tab.basis))
    x = [Fraction(0)] * std.n
    for i in range(m):
        if tab.basis[i] < std.n:
            x[tab.basis[i]] = Fraction(tab.rows[i][-1], tab.den)
    value = sum((objective[j] * x[j] for j in range(std.n)), Fraction(0))
    return ReferenceResult("optimal", x, value, list(tab.basis))

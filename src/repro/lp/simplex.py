"""Shared pieces of the exact simplex: standard form, results, warm points.

The rounding arguments of Sections V and VI need *basic* feasible solutions:
Lenstra–Shmoys–Tardos relies on the pseudo-forest structure of a vertex's
support, and Lemma VI.2's iterative relaxation counts fractional variables at
a vertex.  Floating-point solvers return "almost" vertices; telling a
fractional value from numeric noise then needs tolerances that can break the
combinatorial arguments.  The exact simplex
(:func:`repro.lp.revised.solve_standard`) is exact throughout, so support and
fractionality are exact properties.

This module holds what that solver and the hybrid backend share: the
normalized :class:`StandardForm` (rows sign-normalized to ``b ≥ 0``, fixed
slack/artificial column indices), the :class:`SimplexResult` record, the
warm-point helpers that turn a candidate solution into crash hints and
tight-row flags, and the pivot budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .._fraction import to_fraction
from ..exceptions import SolverError
from .stats import SolverStats

#: After this many pivots the pivot rule switches to Bland's (anti-cycling).
BLAND_THRESHOLD_DEFAULT = 5000
#: Default hard cap — exceeded only by a bug, not by honest degeneracy.
#: Overridable only through the process budget below; exceeding it raises
#: the structured :class:`~repro.exceptions.PivotLimitError`.
MAX_PIVOTS_DEFAULT = 200000

#: Process-default override of :data:`MAX_PIVOTS_DEFAULT` (``None`` = use
#: the constant).  The sweep runner's per-task pivot budget
#: (:mod:`repro.runner.budget`) installs a cap here for the duration of a
#: worker task, so every solve the task performs — however deep in the
#: pipeline — answers to the budget without threading a cap through every
#: call chain.  It is the one pivot-cap channel: ``solve_standard`` takes no
#: per-solve override.
_default_max_pivots: "Optional[int]" = None


def set_default_max_pivots(cap: "Optional[int]") -> "Optional[int]":
    """Set the process-default pivot budget; returns the previous value.

    ``None`` restores :data:`MAX_PIVOTS_DEFAULT`.
    """
    global _default_max_pivots
    previous = _default_max_pivots
    _default_max_pivots = cap
    return previous


def default_max_pivots() -> int:
    """The pivot budget every solve runs under."""
    return MAX_PIVOTS_DEFAULT if _default_max_pivots is None else _default_max_pivots


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

    Rows are sign-normalized to ``b ≥ 0``; slack and artificial variables are
    assigned fixed column indices so a candidate basis can be described by
    column index alone.
    """

    n: int  # structural variables
    num_rows: int
    rows: List[Dict[int, Fraction]]
    senses: List[str]
    rhs: List[Fraction]
    slack_of_row: List[Optional[int]]
    slack_sign: List[int]
    needs_artificial: List[bool]
    art_start: int  # first artificial column; == total non-artificial columns
    total_cols: int  # including artificials, excluding the rhs column


def standard_form(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> StandardForm:
    """Normalize ``min c·x s.t. rows, x ≥ 0`` for the exact solver."""
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise SolverError("rows, senses and rhs must have equal length")
    norm_rows: List[Dict[int, Fraction]] = []
    norm_rhs: List[Fraction] = []
    norm_senses: List[str] = []
    for i in range(r):
        row = dict(coeff_rows[i])
        b = to_fraction(rhs[i])
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
        slack_of_row=slack_of_row,
        slack_sign=slack_sign,
        needs_artificial=needs_artificial,
        art_start=art_start,
        total_cols=total_cols,
    )


def _point_hints(point: Sequence[Fraction]) -> List[int]:
    """Support of a warm-start point, largest value first (deterministic)."""
    support = [(v, j) for j, v in enumerate(point) if v > 0]
    support.sort(key=lambda pair: (-pair[0], pair[1]))
    return [j for _v, j in support]


#: Relative slack below which a row counts as tight at a warm-start point.
#: Only a *heuristic* (the crash result is verified exactly afterwards), so
#: the tolerance exists to keep rationalization noise from hiding a row that
#: is tight at the true vertex.
_TIGHT_EPS = 1e-9


def _tight_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    point: Sequence[Fraction],
) -> List[bool]:
    """Which rows hold with (near-)equality at *point*.

    Equality rows count as tight regardless of the (possibly noisy) point —
    their artificial has to leave the basis either way.
    """
    flags: List[bool] = []
    # Float throughout: this is a heuristic with a relative tolerance nine
    # orders of magnitude above float dot-product noise, and the crash it
    # feeds is verified exactly afterwards.  Exact Fraction accumulation
    # here used to be one of the most expensive steps of a warm solve.
    fpoint = [float(v) for v in point]
    for row, sense, b in zip(coeff_rows, senses, rhs):
        if sense == "==":
            flags.append(True)
            continue
        activity = 0.0
        for j, v in row.items():
            pj = fpoint[j]
            if pj:
                activity += float(v) * pj
        fb = float(b)
        flags.append(abs(activity - fb) <= _TIGHT_EPS * max(1.0, abs(fb)))
    return flags

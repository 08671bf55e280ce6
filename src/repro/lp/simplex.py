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
integer-row contract (:func:`scale_rows`), the normalized
:class:`StandardForm` (integer rows sign-normalized to ``b ≥ 0``, fixed
slack/artificial column indices), the :class:`SimplexResult` record, the
warm-point helpers that turn a candidate solution into crash hints and
tight-row flags, and the pivot budget.

**Integer rows.**  The exact kernel, its certificates and the HiGHS leg
take integer rows: row ``i`` stands for the raw row
``rows[i] / scales[i]  sense  rhs[i] / scales[i]``, with ``scales[i]`` the
lcm of the denominators of the raw row's entries and right-hand side, and
every function below the entry points takes ``scales`` as a required
argument.  The builders of the hot LPs
(:class:`repro.core.programs.IP3Builder`,
:func:`repro.rounding.lst.unrelated_rows`) emit integer rows directly.
Rational rows enter only through :func:`repro.lp.solve.solve_lp`,
:func:`~repro.lp.solve.solve_rows` and
:func:`~repro.lp.solve.feasible_point_rows`, which convert them once with
:func:`scale_rows`.  Points, objective values and Farkas certificates are
always in raw-row units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

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


def scale_rows(
    coeff_rows: Sequence[Dict[int, Fraction]], rhs: Sequence[Fraction]
) -> Tuple[List[Dict[int, int]], List[int], List[int]]:
    """Rational rows as integer rows: ``(rows, rhs, scales)``.

    Row ``i`` is multiplied by ``scales[i]``, the lcm of its entries' and
    its right-hand side's denominators, so every entry and right-hand side
    becomes an integer (see the module docstring).  Stored zero entries
    stay stored.
    """
    rows: List[Dict[int, int]] = []
    rhs_int: List[int] = []
    scales: List[int] = []
    for row, b in zip(coeff_rows, rhs):
        b = to_fraction(b)
        scale = lcm(b.denominator, *(v.denominator for v in row.values()))
        rows.append(
            {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
        )
        rhs_int.append(b.numerator * (scale // b.denominator))
        scales.append(scale)
    return rows, rhs_int, scales


@dataclass
class StandardForm:
    """The normalized standard form shared by the exact and hybrid solvers.

    Rows are integer rows (see the module docstring) sign-normalized to
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

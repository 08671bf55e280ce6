"""Floating-point LP backend on top of :func:`scipy.optimize.linprog`.

Used for the larger benchmark instances where the exact simplex would be
slow.  ``method="highs"`` (dual simplex inside HiGHS) returns a basic optimal
solution, which is what the Section V rounding needs; values are snapped back
to rationals with a denominator bound before re-entering the exact pipeline.

The float leg is sparse end to end.  Each call builds the float image of
the integer rows it is handed (see :mod:`repro.lp.simplex`) in one pass,
:func:`float_entries`: one ``a / scale`` per nonzero dict item, the float
of the raw rational.  The entries reach ``linprog`` as COO (the format
``linprog`` converts sparse input to); explicit zeros (``p = 0``
coefficients) are dropped, so HiGHS receives exactly the CSC a dense
matrix of the same rows would convert to.  On the way back only entries
that do not snap to zero are rationalized.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .._fraction import rationalize
from ..exceptions import SolverError
from .simplex import SimplexResult

#: Values within this distance of an integer are snapped during rationalization.
_SNAP_EPS = 1e-9
#: Denominator bound for rationalizing the other values.
_MAX_DENOMINATOR = 10**6

_SENSES = ("<=", ">=", "==")


def float_entries(
    coeff_rows: Sequence[Dict[int, int]],
    scales: Sequence[int],
    flip: Sequence[bool],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, col, value)`` of the nonzero entries of the rows' float image.

    The rows are integer rows with their *scales* (see
    :mod:`repro.lp.simplex`) and each value is ``a / scale``: integer true
    division rounds correctly, so it is the float of the raw rational, bit
    for bit.  Rows where *flip* is set are negated.  Entries come row by
    row, each row in dict order; zero coefficients are dropped.  *flip* is
    best a list: iterating a numpy array yields slow scalars.
    """
    counts: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for row, scale, negate in zip(coeff_rows, scales, flip):
        if negate:
            scale = -scale
        counts.append(len(row))
        cols.extend(row)
        data.extend([a / scale for a in row.values()])
    values = np.array(data, dtype=float)
    nonzero = values != 0
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows[nonzero], np.array(cols, dtype=np.int64)[nonzero], values[nonzero]


def highs_inputs(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> Dict[str, Optional[np.ndarray]]:
    """The ``linprog`` keyword arguments ``c``, ``A_ub``, ``b_ub``, ``A_eq``, ``b_eq``.

    ``<=`` and ``>=`` rows (the latter negated) form ``A_ub`` and ``==`` rows
    ``A_eq``, each in the caller's row order, as COO without stored zeros
    (the format ``linprog`` converts every sparse input to), and ``None``
    when empty.  The rows are integer rows with their *scales*, and every
    float is that of the raw row (see :func:`float_entries`).  An unknown
    sense or a column index outside ``range(len(objective))`` raises
    ``ValueError``.
    """
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise ValueError("rows, senses and rhs must have equal length")
    unknown = set(senses).difference(_SENSES)
    if unknown:
        raise ValueError(f"unknown sense(s) {sorted(unknown)!r}")
    flip = [s == ">=" for s in senses]
    row, col, data = float_entries(coeff_rows, scales, flip)
    b = np.array([v / s for v, s in zip(rhs, scales)], dtype=float)
    b = np.where(flip, -b, b)
    is_eq = np.array([s == "==" for s in senses], dtype=bool)
    inputs: Dict[str, Optional[np.ndarray]] = {
        "c": np.array([float(v) if v else 0.0 for v in objective], dtype=float)
    }
    for part, in_part in (("ub", ~is_eq), ("eq", is_eq)):
        size = int(in_part.sum())
        block = b_part = None
        if size:
            position = np.cumsum(in_part) - 1  # row index inside the part
            pick = in_part[row]
            block = coo_array(
                (data[pick], (position[row[pick]], col[pick])), shape=(size, n)
            )
            b_part = b[in_part]
        inputs["A_" + part] = block
        inputs["b_" + part] = b_part
    return inputs


def solve_standard_float(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> SimplexResult:
    """Solve the same standard form as the exact simplex, via HiGHS.

    The result's ``x`` is rationalized (``limit_denominator``) so downstream
    exact checks can run; statuses map onto the exact solver's vocabulary.
    The rows are integer rows with their *scales*, imaged for HiGHS by
    :func:`highs_inputs`.  Construction errors raise ``ValueError``; a
    failure inside ``linprog`` or a status other than optimal, infeasible
    or unbounded raises :class:`~repro.exceptions.SolverError`.
    """
    n = len(objective)
    if n == 0:
        # linprog rejects empty programs; decide them exactly right here.
        # (The IP-3 builders encode "job has no options" as a {} == 1 row.)
        for sense, b in zip(senses, rhs):
            ok = (b >= 0) if sense == "<=" else (b <= 0) if sense == ">=" else b == 0
            if not ok:
                return SimplexResult("infeasible", [], None, None)
        return SimplexResult("optimal", [], Fraction(0), [])
    inputs = highs_inputs(coeff_rows, senses, rhs, objective, scales)
    try:
        result = linprog(**inputs, bounds=(0, None), method="highs")
    except Exception as exc:  # pragma: no cover - HiGHS internal failures
        raise SolverError(f"HiGHS failed: {exc}") from exc
    if result.status == 2:
        return SimplexResult("infeasible", [], None, None)
    if result.status == 3:
        return SimplexResult("unbounded", [], None, None)
    if result.status != 0:  # pragma: no cover - solver-internal failures
        raise SolverError(f"HiGHS failed: {result.message}")

    values = np.asarray(result.x, dtype=float)
    nearest = np.round(values)
    snapped = np.abs(values - nearest) < _SNAP_EPS
    zero = Fraction(0)
    x: List[Fraction] = [zero] * n
    support = np.flatnonzero(~snapped | (nearest != 0)).tolist()
    for j in support:
        if snapped[j]:
            x[j] = Fraction(int(nearest[j]))
        else:
            x[j] = rationalize(float(values[j]), _MAX_DENOMINATOR)
    objective_value = sum(
        (Fraction(objective[j]) * x[j] for j in support), Fraction(0)
    )
    return SimplexResult("optimal", x, objective_value, None)

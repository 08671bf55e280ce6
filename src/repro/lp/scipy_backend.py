"""Floating-point LP backend on top of :func:`scipy.optimize.linprog`.

Used for the larger benchmark instances where the exact simplex would be
slow.  ``method="highs"`` (dual simplex inside HiGHS) returns a basic optimal
solution, which is what the Section V rounding needs; values are snapped back
to rationals with a denominator bound before re-entering the exact pipeline.

The float leg is sparse end to end.  The float image of the exact rows is
a ``scipy.sparse`` CSR — either built here from the integer rows (see
:mod:`repro.lp.simplex`) by :func:`float_matrix`, one stored entry
``a / scale`` per dict item, the float of the raw rational, or handed in
ready-made as *float_rows*: the binary search of
:func:`repro.core.programs.minimal_fractional_T` keeps one float CSR
template per :class:`~repro.core.programs.IP3Builder` and passes each probe
a column slice of it.  Its nonzero entries reach ``linprog`` as COO (the
format ``linprog`` converts sparse input to); explicit zeros (``p = 0``
coefficients) are dropped, so HiGHS receives exactly the CSC a dense
matrix of the same rows would convert to.  On the way back only entries
that do not snap to zero are rationalized.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, csr_array

from .._fraction import rationalize
from ..exceptions import SolverError
from .simplex import SimplexResult

#: Values within this distance of an integer are snapped during rationalization.
_SNAP_EPS = 1e-9

_SENSES = ("<=", ">=", "==")


def float_matrix(
    coeff_rows: Sequence[Dict[int, int]],
    num_vars: int,
    scales: Sequence[int],
) -> csr_array:
    """The exact rows as a float CSR, one stored entry per dict item.

    The rows are integer rows with their *scales* (see
    :mod:`repro.lp.simplex`) and each entry is ``a / scale``: integer true
    division rounds correctly, so the matrix is the float image of the raw
    rational rows, bit for bit.  Zero coefficients stay stored (:func:`float_entries`
    drops them on the way to HiGHS); a column index outside
    ``range(num_vars)`` raises ``ValueError``.
    """
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    for row, scale in zip(coeff_rows, scales):
        indices.extend(row)
        data.extend([a / scale for a in row.values()])
        indptr.append(len(indices))
    return csr_array(
        (
            np.array(data, dtype=float),
            np.array(indices, dtype=np.int32),
            np.array(indptr, dtype=np.int32),
        ),
        shape=(len(coeff_rows), num_vars),
    )


def float_entries(
    coeff_rows: Sequence[Dict[int, int]],
    num_vars: int,
    float_rows: Optional[csr_array],
    flip: np.ndarray,
    scales: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, col, value)`` of the nonzero entries of the rows' float image.

    Entries come in row-major order; rows where *flip* is set are negated.
    *float_rows*, when given, must be the float image of *coeff_rows* (same
    shape, same values) and replaces building it from the dict rows; a
    shape mismatch raises ``ValueError``.  *scales* as in
    :func:`float_matrix`.
    """
    if float_rows is None:
        float_rows = float_matrix(coeff_rows, num_vars, scales)
    elif float_rows.shape != (len(coeff_rows), num_vars):
        raise ValueError(
            f"float_rows has shape {float_rows.shape}, "
            f"the rows need {(len(coeff_rows), num_vars)}"
        )
    entries = float_rows.tocoo()
    stored = entries.data != 0
    row, col, data = entries.row[stored], entries.col[stored], entries.data[stored]
    if flip.any():
        data = np.where(flip[row], -data, data)
    return row, col, data


def highs_inputs(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
    float_rows: Optional[csr_array] = None,
) -> Dict[str, Optional[np.ndarray]]:
    """The ``linprog`` keyword arguments ``c``, ``A_ub``, ``b_ub``, ``A_eq``, ``b_eq``.

    ``<=`` and ``>=`` rows (the latter negated) form ``A_ub`` and ``==`` rows
    ``A_eq``, each in the caller's row order, as COO without stored zeros
    (the format ``linprog`` converts every sparse input to), and ``None``
    when empty.  *float_rows*, when given, must be the float image of
    *coeff_rows* (same shape, same values); it replaces building the
    matrix from the dict rows.  The rows are integer rows with their
    *scales*, and every float is that of the raw row (see
    :func:`float_matrix`).  A shape mismatch or an unknown sense raises
    ``ValueError``.
    """
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise ValueError("rows, senses and rhs must have equal length")
    unknown = set(senses).difference(_SENSES)
    if unknown:
        raise ValueError(f"unknown sense(s) {sorted(unknown)!r}")
    flip = np.array([s == ">=" for s in senses], dtype=bool)
    row, col, data = float_entries(coeff_rows, n, float_rows, flip, scales)
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
    max_denominator: int = 10**6,
    float_rows: Optional[csr_array] = None,
) -> SimplexResult:
    """Solve the same standard form as the exact simplex, via HiGHS.

    The result's ``x`` is rationalized (``limit_denominator``) so downstream
    exact checks can run; statuses map onto the exact solver's vocabulary.
    The rows are integer rows with their *scales*; *float_rows* is an
    optional prebuilt float CSR of *coeff_rows* (see :func:`highs_inputs`).  Construction
    errors raise ``ValueError``; a
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
    inputs = highs_inputs(coeff_rows, senses, rhs, objective, scales, float_rows)
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
            x[j] = rationalize(float(values[j]), max_denominator)
    objective_value = sum(
        (Fraction(objective[j]) * x[j] for j in support), Fraction(0)
    )
    return SimplexResult("optimal", x, objective_value, None)

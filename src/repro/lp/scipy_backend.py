"""Floating-point LP backend: the HiGHS core that scipy bundles.

Used for the larger benchmark instances where the exact simplex would be
slow.  HiGHS's dual simplex returns a basic optimal solution, which is
what the Section V rounding needs; values are snapped back to rationals
with a denominator bound before re-entering the exact pipeline.

The float leg is sparse end to end and calls HiGHS directly, with no
``scipy.optimize.linprog`` wrapper in between.  Each call builds one
column-wise ``HighsLp`` from the integer rows it is handed (see
:mod:`repro.lp.solve`), :func:`highs_model`: one ``a / scale`` per
nonzero dict item (:func:`float_entries`), the float of the raw rational,
with explicit zeros (``p = 0`` coefficients) dropped.  The model, the
five options and the status and tolerance checks are those
``linprog(method="highs")`` uses (scipy 1.17), so HiGHS receives the same
model and returns the same ``x``, row duals and statuses bit for bit:
``<=``/``>=`` rows come first and ``==`` rows after, each in the caller's
row order, and ``>=`` rows are negated into ``<=`` rows.  On the way back
only entries that do not snap to zero are rationalized.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize._highspy import _core as highs

# Unused here; kept bound because perfbench/layers.py wraps this name.
from scipy.optimize import linprog  # noqa: F401

from .._fraction import rationalize
from ..exceptions import SolverError
from .revised import SimplexResult

#: Values within this distance of an integer are snapped during rationalization.
_SNAP_EPS = 1e-9
#: Denominator bound for rationalizing the other values.
_MAX_DENOMINATOR = 10**6

_SENSES = ("<=", ">=", "==")

#: ``linprog``'s acceptance tolerance for an optimal point: ``10·sqrt(tol)``
#: with its default ``tol = 1e-9``, on the column bounds, the ``<=`` slacks
#: and the equality residuals.
_CHECK_TOL = 10 * math.sqrt(1e-9)


def _options() -> "highs.HighsOptions":
    """The option values ``linprog(method="highs")`` sets; the rest default."""
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.log_to_console = False
    options.output_flag = False
    return options


_OPTIONS = _options()

_Status = highs.HighsModelStatus
#: Model statuses read as a verdict; every other status is a failure
#: (``kUnboundedOrInfeasible``, the limits, and the error statuses).
_VERDICTS = {
    _Status.kOptimal: "optimal",
    _Status.kInfeasible: "infeasible",
    _Status.kModelError: "infeasible",  # linprog's mapping: a model HiGHS rejects
    _Status.kUnbounded: "unbounded",
}


class HighsSolution(NamedTuple):
    """One HiGHS solve: the verdict and, when optimal, its floats.

    ``x`` is the column values, ``row_dual`` the row duals in the caller's
    row order (``linprog``'s ``marginals``), ``objective`` the optimal
    value; all three are ``None`` unless ``status == "optimal"``.
    """

    status: str
    x: Optional[np.ndarray] = None
    row_dual: Optional[np.ndarray] = None
    objective: Optional[float] = None


def float_entries(
    coeff_rows: Sequence[Dict[int, int]],
    scales: Sequence[int],
    flip: Sequence[bool],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, col, value)`` of the nonzero entries of the rows' float image.

    The rows are integer rows with their *scales* (see
    :mod:`repro.lp.solve`) and each value is ``a / scale``: integer true
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


def highs_model(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> Tuple["highs.HighsLp", List[int]]:
    """The column-wise ``HighsLp`` of ``min c·x s.t. rows, x ≥ 0``, and its row order.

    HiGHS row ``k`` is caller row ``order[k]``: the ``<=`` and ``>=`` rows
    first, then the ``==`` rows, each in the caller's order (the order
    ``linprog`` stacks ``A_ub`` over ``A_eq`` in).  ``>=`` rows are
    negated; inequality rows get row bounds ``[-inf, b]`` and equality
    rows ``[b, b]``; columns get ``[0, inf)``.  The CSC holds no explicit
    zeros and its row indices ascend within each column, so it equals the
    CSC of a dense matrix of the same rows.  The rows are integer rows
    with their *scales*, and every float is that of the raw rational (see
    :func:`float_entries`).  An unknown sense or a column index outside
    ``range(len(objective))`` raises ``ValueError``.
    """
    n = len(objective)
    r = len(coeff_rows)
    if len(senses) != r or len(rhs) != r:
        raise ValueError("rows, senses and rhs must have equal length")
    unknown = set(senses).difference(_SENSES)
    if unknown:
        raise ValueError(f"unknown sense(s) {sorted(unknown)!r}")
    order = [i for i, s in enumerate(senses) if s != "=="]
    num_ub = len(order)
    order += [i for i, s in enumerate(senses) if s == "=="]
    flip = [senses[i] == ">=" for i in order]
    row_scales = [scales[i] for i in order]
    row, col, value = float_entries([coeff_rows[i] for i in order], row_scales, flip)
    if col.size and (col.min() < 0 or col.max() >= n):
        raise ValueError(f"column index outside range({n})")
    by_col = np.argsort(col, kind="stable")  # rows ascend within each column
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=start[1:])
    b = np.array([rhs[i] / s for i, s in zip(order, row_scales)], dtype=float)
    b = np.where(flip, -b, b)
    lower = b.copy()
    lower[:num_ub] = -highs.kHighsInf

    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = r
    lp.col_cost_ = np.array([float(v) if v else 0.0 for v in objective], dtype=float)
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, highs.kHighsInf)
    lp.row_lower_ = lower
    lp.row_upper_ = b
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = r
    matrix.start_ = start
    matrix.index_ = row[by_col].astype(np.int32)
    matrix.value_ = value[by_col]
    return lp, order


def solve_highs(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> HighsSolution:
    """Solve ``min c·x s.t. rows, x ≥ 0`` with HiGHS, as ``linprog`` would.

    The model is :func:`highs_model`'s.  The verdict maps HiGHS's model
    status the way ``linprog`` does (``kModelError`` reads as infeasible),
    and an optimal point is accepted only within ``linprog``'s tolerance
    (:data:`_CHECK_TOL`).  Construction errors raise ``ValueError``; any
    other outcome (``kUnboundedOrInfeasible``, a limit, an error status,
    an exception inside HiGHS, a point outside the tolerance) raises
    :class:`~repro.exceptions.SolverError`.
    """
    lp, order = highs_model(coeff_rows, senses, rhs, objective, scales)
    solver = highs._Highs()
    try:
        if solver.passOptions(_OPTIONS) == highs.HighsStatus.kError:
            status = solver.getModelStatus()  # kNotset, read as a failure
        elif solver.passModel(lp) == highs.HighsStatus.kError:
            status = _Status.kModelError
        else:
            solver.run()  # an error status shows in the model status
            status = solver.getModelStatus()
        verdict = _VERDICTS.get(status)
        if verdict == "optimal":
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            residual = np.asarray(lp.row_upper_) - np.array(solution.row_value)
            row_dual = np.array(solution.row_dual)
            value = solver.getInfo().objective_function_value
    except Exception as exc:  # pragma: no cover - HiGHS internal failures
        raise SolverError(f"HiGHS failed: {exc}") from exc
    if verdict is None:
        raise SolverError(f"HiGHS failed: {solver.modelStatusToString(status)}")
    if verdict != "optimal":
        return HighsSolution(verdict)
    inequality = np.isinf(np.asarray(lp.row_lower_))
    if (
        np.isnan(x).any() or np.isnan(value) or np.isnan(residual).any()
        or (x < -_CHECK_TOL).any()
        or (residual[inequality] < -_CHECK_TOL).any()
        or (np.abs(residual[~inequality]) > _CHECK_TOL).any()
    ):
        raise SolverError("HiGHS's optimal point violates the constraints beyond tolerance")
    dual = np.empty_like(row_dual)
    dual[order] = row_dual
    return HighsSolution("optimal", x, dual, value)


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
    The rows are integer rows with their *scales*, solved by
    :func:`solve_highs`.  Construction errors raise ``ValueError``; a
    failure inside HiGHS or a status other than optimal, infeasible or
    unbounded raises :class:`~repro.exceptions.SolverError`.
    """
    n = len(objective)
    if n == 0:
        # HiGHS is never handed an empty program; decide it exactly here.
        # (The IP-3 builders encode "job has no options" as a {} == 1 row.)
        for sense, b in zip(senses, rhs):
            ok = (b >= 0) if sense == "<=" else (b <= 0) if sense == ">=" else b == 0
            if not ok:
                return SimplexResult("infeasible", [], None, None)
        return SimplexResult("optimal", [], Fraction(0), [])
    result = solve_highs(coeff_rows, senses, rhs, objective, scales)
    if result.status != "optimal":
        return SimplexResult(result.status, [], None, None)

    values = result.x
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

"""Certified hybrid LP backend: HiGHS speed, exact-simplex guarantees.

HiGHS alone is fast but returns floats whose rationalized "feasibility"
and "basicness" are only approximate — propagating them into the Section
V/VI rounding arguments silently voids the pseudo-forest and fractionality
properties those proofs rely on.  The ``exact`` backend is certified but
pays rational-pivoting cost from a cold start.

``hybrid`` composes the two so callers always get a guaranteed rational
basic optimal solution at close to float speed:

1. solve the LP with HiGHS (:func:`solve_standard_float`);
2. rationalize the candidate and read off its support;
3. re-solve with the **exact** simplex, passing the candidate as
   ``warm_point`` (:func:`repro.lp.revised.solve_standard`): its support
   columns are factorized straight into the starting basis, claiming only
   rows that are tight at the candidate.

Step 3 is the certificate: every number the caller sees was produced by
exact pivoting, so feasibility, optimality and basicness hold
unconditionally.  When the float candidate was right — the common case —
the crash basis is already feasible, so the exact solve needs no phase-1
work and terminates after a handful of cleanup pivots.  When the candidate
was wrong (rounding noise, wrong vertex, wrong verdict) the exact simplex
transparently repairs it: a crash that lands on an infeasible dictionary
falls back to ratio-test pushes of the support, and bad hints cost only
the pivots they take.  A
claimed "infeasible"/"unbounded" is likewise never trusted — the exact
solver re-derives the verdict from scratch.

Small programs skip HiGHS entirely (below :data:`_FLOAT_SIZE_CUTOFF` the
fixed cost of a HiGHS call exceeds a full exact solve).  When scipy is not
installed the backend degrades to the exact solver, keeping every guarantee.

The float leg never builds a dense matrix.  Every function here takes
integer rows with their scales (:mod:`repro.lp.solve`), and each HiGHS
call builds one column-wise model from those rows, once
(:func:`repro.lp.scipy_backend.highs_model`: each entry is ``a / scale``,
the float of the raw rational), and hands it to HiGHS directly
(:func:`repro.lp.scipy_backend.solve_highs`).
Only the HiGHS solve itself is allowed to fail quietly (the caller falls
back to the exact solver); a construction error, such as an unknown row
sense, raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .._fraction import rationalize
from ..exceptions import SolverError
from .certificates import denormalize_farkas, farkas_certifies
from .revised import SimplexResult, solve_standard, standard_form

try:  # pragma: no cover - exercised implicitly on import
    from .scipy_backend import solve_highs, solve_standard_float

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is present in CI images
    solve_highs = solve_standard_float = None  # type: ignore[assignment]
    HAVE_SCIPY = False

#: Problems with (variables × rows) below this skip the float probe: the
#: fixed cost of one HiGHS call exceeds a cold exact solve there.
_FLOAT_SIZE_CUTOFF = 64


def float_candidate(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
) -> Optional[SimplexResult]:
    """The HiGHS candidate, or ``None`` when scipy is missing or HiGHS fails.

    The result is *uncertified*: statuses and values are hints only.
    """
    if not HAVE_SCIPY:
        return None
    try:
        return solve_standard_float(coeff_rows, senses, rhs, objective, scales)
    except SolverError:  # pragma: no cover - HiGHS internal failures
        return None


def certify_infeasible(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    scales: Sequence[int],
    num_vars: int,
) -> Optional[List[Fraction]]:
    """Exact Farkas certificate of infeasibility from a float phase-1 dual.

    A non-``None`` return is a *proof* — never a float verdict: the
    returned ``y`` (row-indexed in the caller's row order, semantics of
    :func:`repro.lp.certificates.farkas_certifies`) has been verified
    exactly, so callers may cache it and re-check it against neighbouring
    LPs (the binary-search probe pipeline does).  The phase-1 program

        min 1ᵀa   s.t.   A·x + S·s + I·a = b,   x, s, a ≥ 0

    (rows sign-normalized to ``b ≥ 0``; ``S`` the slack columns) is always
    feasible, so HiGHS returns an optimal dual ``y``.  It goes to HiGHS as
    integer equality rows with the raw rows' scales, so its float image is
    that of the raw rows and the ``±1`` of ``S`` and ``I``.  Rationalizing ``y``
    and re-checking **exactly** the Farkas conditions

        yᵀA ≤ 0 (all columns),  sign conditions per row sense,  yᵀb > 0

    establishes that the original program is infeasible — without a single
    exact pivot.  Any check failing (dual noise too large, wrong verdict)
    returns ``None`` and the caller falls back to the exact simplex.

    This is what makes the binary search of ``minimal_fractional_T`` fast:
    its infeasible probes are certified in ``O(nnz)`` integer work instead
    of a cold exact phase-1 solve.  ``y`` is in raw-row units;
    *num_vars* is the number of structural columns.
    """
    if not HAVE_SCIPY:
        return None
    std = standard_form(coeff_rows, senses, rhs, [0] * num_vars, scales)
    r = std.num_rows
    if r == 0:
        return None  # x = 0 is feasible
    # standard_form negated the rows with a negative rhs; the slack and
    # artificial entries are ±scale, so their floats are ±1.0.
    art_start = std.art_start
    phase1 = []
    for i, row in enumerate(std.rows):
        row = dict(row)
        scale = std.scales[i]
        if std.slack_of_row[i] is not None:
            row[std.slack_of_row[i]] = std.slack_sign[i] * scale
        row[art_start + i] = scale
        phase1.append(row)
    cost = [0] * art_start + [1] * r
    try:
        result = solve_highs(phase1, ["=="] * r, std.rhs, cost, std.scales)
    except SolverError:  # pragma: no cover - HiGHS internal failures
        return None
    if result.status != "optimal" or result.objective < 1e-9:
        return None
    raw = result.row_dual.tolist()
    for sign in (1.0, -1.0):  # the sign convention of HiGHS duals is not pinned
        try:
            y_std = [rationalize(sign * v, 10**9) for v in raw]
        except ValueError:  # pragma: no cover - non-finite marginals
            continue
        y = denormalize_farkas(y_std, rhs)
        if farkas_certifies(coeff_rows, senses, rhs, y, scales):
            return y
    return None


def solve_standard_hybrid(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    objective: Sequence[Fraction],
    scales: Sequence[int],
    warm_point: Optional[Sequence[Fraction]] = None,
    canonical: bool = True,
) -> SimplexResult:
    """Certified solve: float candidate first, exact verification always.

    The returned :class:`SimplexResult` is produced by the exact simplex in
    every path, so it carries the same guarantees as ``backend="exact"``.
    The rationalized HiGHS point (when HiGHS claims optimality) takes
    precedence over the caller's *warm_point* as the crash-basis seed; the
    candidate's basis is **factorized directly** (``O(rows³)``, independent
    of the column count).  A claimed
    infeasibility is accepted only with an exact Farkas certificate, which
    is attached to the result for reuse.

    The rows are integer rows with their *scales*
    (:mod:`repro.lp.solve`).
    """
    n = len(objective)
    size = n * max(len(coeff_rows), 1)
    if size >= _FLOAT_SIZE_CUTOFF:
        candidate = float_candidate(coeff_rows, senses, rhs, objective, scales)
        if candidate is not None and candidate.status == "optimal":
            warm_point = candidate.x
        elif candidate is not None and candidate.status == "infeasible":
            farkas = certify_infeasible(coeff_rows, senses, rhs, scales, num_vars=n)
            if farkas is not None:
                return SimplexResult(
                    "infeasible", [], None, None, farkas=farkas
                )
    return solve_standard(
        coeff_rows, senses, rhs, objective, scales,
        warm_point=warm_point, canonical=canonical,
    )

"""Unified LP solving entry point with backend dispatch.

Backends
--------
``"exact"``
    Exact rational simplex.  Guaranteed exact optimal *basic* solutions;
    the reference everything else is certified against.
``"hybrid"``
    HiGHS candidate + exact verification/repair (see :mod:`repro.lp.hybrid`).
    Same guarantees as ``"exact"``, faster on anything large enough for the
    float probe to pay off.  Degrades to ``"exact"`` when scipy is
    unavailable.

Any other name raises :class:`~repro.exceptions.SolverError`.

Every exact solve — the ``"exact"`` backend and the verification step of
``"hybrid"`` — runs the one exact simplex,
:func:`repro.lp.revised.solve_standard`.

Warm starts: pass ``warm_values`` (a previously feasible point keyed like
the program's variables; ``warm_point``, a dense vector, on the raw-row
entry points) and the exact/hybrid backends factorize its support into the
starting basis, typically skipping phase 1 entirely.  A point is the only
warm-start input: no solver basis is carried from one solve to the next.

:func:`solve_lp` (keyed :class:`~repro.lp.model.LinearProgram`) and
:func:`solve_rows` (raw standard rows) share one backend dispatch:
``solve_lp`` converts to rows and delegates.

**Integer rows.**  The exact kernel, its certificates and the HiGHS leg
take integer rows: row ``i`` stands for the raw row
``rows[i] / scales[i]  sense  rhs[i] / scales[i]``, with ``scales[i]`` the
lcm of the denominators of the raw row's entries and right-hand side, and
every function below the entry points here takes ``scales`` as a required
argument.  :func:`solve_lp`, :func:`solve_rows` and
:func:`feasible_point_rows` are the rational entry points:
:func:`solve_rows` and :func:`feasible_point_rows` take rational rows, or
integer rows with ``scales=``, and convert rational rows once, with
:func:`scale_rows`, before handing integer rows and scales to every layer
below; each HiGHS call of ``"hybrid"`` builds its float image from those
rows.  The builders of the hot LPs emit integer rows
(:class:`repro.core.programs.IP3Builder`,
:func:`repro.rounding.lst.unrelated_rows`), so the exact kernel sees the
same integers either way.  Points, objective values and Farkas
certificates are always in raw-row units.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._fraction import to_fraction
from ..exceptions import SolverError
from .hybrid import HAVE_SCIPY, solve_standard_hybrid
from .model import LinearProgram, LPSolution, VarKey
from .revised import solve_standard

if HAVE_SCIPY:
    # Unused here; kept bound because perfbench/layers.py wraps this name.
    from .scipy_backend import solve_standard_float
else:  # pragma: no cover - scipy is present in CI images
    solve_standard_float = None  # type: ignore[assignment]

BACKENDS = ("exact", "hybrid")


def _resolve_backend(backend: str) -> str:
    """Validate *backend*; ``"hybrid"`` degrades to ``"exact"`` without scipy."""
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "hybrid" and not HAVE_SCIPY:
        return "exact"  # guarantees intact, only the float probe is lost
    return backend


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


def _warm_point(
    lp: LinearProgram, warm_values: Optional[Mapping[VarKey, Fraction]]
) -> Optional[List[Fraction]]:
    """A prior point as a dense structural vector (missing keys read as 0).

    Every warm key must name a variable of *lp*: a key the LP lacks means
    the caller is warm-starting from the wrong space, which raises
    :class:`~repro.exceptions.SolverError`.
    """
    if not warm_values:
        return None
    point = [Fraction(0)] * lp.num_variables
    found = False
    for key, value in warm_values.items():
        if not lp.has_variable(key):
            raise SolverError(f"warm key {key!r} is not a variable of the LP")
        value = to_fraction(value)
        if value != 0:
            point[lp.index_of(key)] = value
            found = True
    return point if found else None


def solve_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
    backend: str = "exact",
    warm_point: Optional[Sequence[Fraction]] = None,
    canonical: bool = True,
    scales: Optional[Sequence[int]] = None,
):
    """Solve raw standard rows (minimization) on *backend*.

    The backend dispatch behind :func:`solve_lp`, for callers that build
    their rows without a :class:`~repro.lp.model.LinearProgram` (the
    min-T LP of :func:`repro.core.programs.minimal_fractional_T`, the LST
    LP of :func:`repro.rounding.lst.lst_round`).  Returns the solver's
    :class:`~repro.lp.revised.SimplexResult`; the per-backend guarantees
    are those of the module docstring.  *warm_point* is a dense structural
    vector.  *canonical* picks the pricing and vertex contract, as in
    :func:`repro.lp.revised.solve_standard`.  With *scales* the rows are
    integer rows (see the module docstring); rational rows are scaled
    once, here.
    """
    if scales is None:
        coeff_rows, rhs, scales = scale_rows(coeff_rows, rhs)
    if _resolve_backend(backend) == "exact":
        return solve_standard(
            coeff_rows, senses, rhs, objective, scales,
            warm_point=warm_point, canonical=canonical,
        )
    return solve_standard_hybrid(
        coeff_rows, senses, rhs, objective, scales,
        warm_point=warm_point, canonical=canonical,
    )


def solve_lp(
    lp: LinearProgram,
    backend: str = "exact",
    warm_values: Optional[Mapping[VarKey, Fraction]] = None,
) -> LPSolution:
    """Solve *lp* (minimization) and map values back to variable keys.

    See the module docstring for the per-backend guarantees.  *warm_values*
    is an optional previously-feasible point used to warm-start the
    exact/hybrid backends; it never changes the result, only the pivot
    path.  The solve is canonical (see
    :func:`repro.lp.revised.solve_standard`): Dantzig pricing gives a
    deterministic vertex.
    """
    backend = _resolve_backend(backend)
    coeff_rows, senses, rhs, objective = lp.to_standard_rows()
    result = solve_rows(
        coeff_rows, senses, rhs, objective, backend=backend,
        warm_point=_warm_point(lp, warm_values),
    )
    if result.status != "optimal":
        return LPSolution(
            status=result.status, values={}, objective=None, stats=result.stats
        )
    values: Dict = {}
    for key in lp.variable_keys:
        values[key] = result.x[lp.index_of(key)]
    return LPSolution(
        status="optimal", values=values, objective=result.objective,
        stats=result.stats,
    )


def check_standard_rows(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    x: Sequence[Fraction],
) -> bool:
    """Exactly verify ``x ≥ 0`` against the rows (no tolerances).

    The raw-row counterpart of
    :meth:`~repro.lp.model.LinearProgram.check_values`; this is the gate
    that certifies float candidates — and re-certifies cached points in the
    incremental probe pipeline — without an exact solve.  A positive row
    scale changes no verdict, so the rows come without their scales:
    integer rows (see the module docstring) or rational rows alike.  The
    point is scaled by the lcm of its denominators, so integer rows sum in
    integers.
    """
    support = []
    for j, v in enumerate(x):
        if v:
            v = to_fraction(v)
            if v < 0:
                return False
            support.append((j, v))
    common = lcm(*{v.denominator for _j, v in support})
    x_int = [0] * len(x)
    for j, v in support:
        x_int[j] = v.numerator * (common // v.denominator)
    for row, sense, b in zip(coeff_rows, senses, rhs):
        lhs = 0
        for j, a in row.items():
            v = x_int[j]
            if v:
                lhs += a * v
        b *= common
        ok = (
            lhs <= b if sense == "<="
            else lhs >= b if sense == ">="
            else lhs == b
        )
        if not ok:
            return False
    return True


def feasible_point_rows(
    coeff_rows: Sequence[Dict[int, Fraction]],
    senses: Sequence[str],
    rhs: Sequence[Fraction],
    num_vars: int,
    backend: str = "hybrid",
    warm_point: Optional[Sequence[Fraction]] = None,
    scales: Optional[Sequence[int]] = None,
):
    """Certified feasibility probe on raw standard rows.

    Returns ``(point, farkas)``: exactly one of the two is non-``None``
    unless the program is infeasible without an available certificate
    (``(None, None)``).  The point is **exactly** feasible; the certificate
    is **exactly** verified (see :mod:`repro.lp.certificates`).  This is
    the primitive behind the incremental binary-search pipeline of
    :class:`repro.core.programs.IP3Builder`, which calls it with masked row
    views instead of materialized :class:`~repro.lp.model.LinearProgram`
    objects.

    *warm_point* is a dense structural vector that seeds the exact solve's
    crash basis (the float candidate replaces it when HiGHS returns one
    that fails the exact re-check).  Probe vertices are **not**
    canonicalized (feasibility verdicts are vertex-agnostic).  With
    *scales* the rows are integer rows (see the module docstring); rational
    rows are scaled once, here.
    """
    from .hybrid import _FLOAT_SIZE_CUTOFF, certify_infeasible, float_candidate

    use_float = (
        _resolve_backend(backend) == "hybrid"
        and num_vars * max(len(coeff_rows), 1) >= _FLOAT_SIZE_CUTOFF
    )
    if scales is None:
        coeff_rows, rhs, scales = scale_rows(coeff_rows, rhs)
    objective = [0] * num_vars
    if use_float:
        candidate = float_candidate(coeff_rows, senses, rhs, objective, scales)
        if candidate is not None and candidate.status == "optimal":
            if check_standard_rows(coeff_rows, senses, rhs, candidate.x):
                return list(candidate.x), None  # certified by the re-check
            warm_point = candidate.x  # uncertified: warm-start the repair
        elif candidate is not None and candidate.status == "infeasible":
            farkas = certify_infeasible(coeff_rows, senses, rhs, scales, num_vars)
            if farkas is not None:
                return None, farkas
    result = solve_standard(
        coeff_rows, senses, rhs, objective, scales,
        warm_point=warm_point, canonical=False,
    )
    if result.status != "optimal":
        return None, result.farkas
    return result.x, None

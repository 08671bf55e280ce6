"""Exact Farkas certificates of LP infeasibility, checkable in O(nnz).

A vector ``y`` (one entry per constraint row, in the caller's row order)
certifies that ``{x ≥ 0 : rows}`` is empty when

* ``y_i ≤ 0`` for every ``<=`` row and ``y_i ≥ 0`` for every ``>=`` row
  (equality rows are unrestricted),
* ``Σ_i y_i·a_{ij} ≤ 0`` for every column ``j``, and
* ``Σ_i y_i·b_i > 0``.

Proof: for any feasible ``x ≥ 0``, the sign conditions give
``y_i·(a_i·x) ≥ y_i·b_i`` row-wise, so ``yᵀA·x ≥ yᵀb > 0`` — but every
column sum of ``yᵀA`` is ``≤ 0`` and ``x ≥ 0`` force ``yᵀA·x ≤ 0``.

These certificates are the currency of the incremental probe pipeline: an
infeasible probe of a binary search hands its ``y`` to the next probe,
which re-checks it against the *new* rows in ``O(nnz)`` integer work — if
it still certifies, an entire exact solve is skipped (see
:meth:`repro.core.programs.IP3Builder`).  The exact simplex and the
HiGHS-dual path of :func:`repro.lp.hybrid.certify_infeasible` emit their
certificates in this one format.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence

from .._fraction import to_fraction


def farkas_certifies(
    coeff_rows: Sequence[Dict[int, int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    y: Sequence[Fraction],
    scales: Sequence[int],
) -> bool:
    """Exactly verify the certificate conditions above (``True`` = proof).

    The rows are integer rows with their *scales* (:mod:`repro.lp.solve`);
    *y* is in raw-row units.
    """
    if len(y) != len(coeff_rows):
        return False
    fy = [to_fraction(yi) for yi in y]
    for yi, sense in zip(fy, senses):
        if sense == "<=" and yi > 0:
            return False
        if sense == ">=" and yi < 0:
            return False
    # Integer row i is scales[i] times raw row i, so it takes the
    # multiplier y_i / scales[i].  Scale those by the (positive) lcm of
    # their denominators: every condition below is a sign test, so the
    # scaling changes nothing, and the sums run in integers.
    den = [yi.denominator * s for yi, s in zip(fy, scales)]
    common = lcm(*(d for yi, d in zip(fy, den) if yi))
    y_int = [
        yi.numerator * (common // d) if yi else 0 for yi, d in zip(fy, den)
    ]
    column_sums: Dict[int, int] = {}
    for yi, row in zip(y_int, coeff_rows):
        if not yi:
            continue
        for j, v in row.items():
            column_sums[j] = column_sums.get(j, 0) + yi * v
    if any(total > 0 for total in column_sums.values()):
        return False
    return sum(yi * b for yi, b in zip(y_int, rhs) if yi) > 0


def denormalize_farkas(
    y_std: Sequence[Fraction], raw_rhs: Sequence[Fraction]
) -> List[Fraction]:
    """Map a certificate on sign-normalized rows back to the raw rows.

    :func:`repro.lp.revised.standard_form` negates every row whose rhs is
    negative; a dual on the normalized system certifies the raw system with
    the corresponding entries negated back.  *raw_rhs* may be rational or
    integer-row right-hand sides: only their signs matter.
    """
    return [-yi if b < 0 else yi for yi, b in zip(y_std, raw_rhs)]

"""Integer rows and rational rows, each as the other.

:class:`repro.core.programs.IP3Builder` emits integer rows plus one scale
per row (the contract of :mod:`repro.lp.simplex`) and integer times over
its ``denominator``.  Tests that compare against keyed, rational programs
read them back through these helpers.  The exact kernel and its checks
take only integer rows with their scales; tests that write rational rows
by hand pass them through :func:`scaled`, :func:`int_rows` and
:func:`certifies`.
"""

from fractions import Fraction

from repro.lp.certificates import farkas_certifies
from repro.lp.simplex import scale_rows


def scaled(coeff_rows, senses, rhs, objective):
    """Rational rows as the kernel takes them:
    ``(rows, senses, rhs, objective, scales)``."""
    rows, rhs, scales = scale_rows(coeff_rows, rhs)
    return rows, senses, rhs, objective, scales


def int_rows(coeff_rows, senses, rhs):
    """Rational rows as ``(rows, senses, rhs, scales)``, the form of the
    row functions that take no objective."""
    rows, rhs, scales = scale_rows(coeff_rows, rhs)
    return rows, senses, rhs, scales


def certifies(coeff_rows, senses, rhs, y):
    """:func:`~repro.lp.certificates.farkas_certifies` on rational rows."""
    rows, rhs, scales = scale_rows(coeff_rows, rhs)
    return farkas_certifies(rows, senses, rhs, y, scales)


def rational(coeff_rows, rhs, scales):
    """Integer rows and right-hand sides as the raw rational ones."""
    return (
        [{j: Fraction(a, s) for j, a in row.items()} for row, s in zip(coeff_rows, scales)],
        [Fraction(b, s) for b, s in zip(rhs, scales)],
    )


def probe_rows(builder, T):
    """``builder.probe_rows(T)`` as ``(coeff_rows, senses, rhs, active)``."""
    rows, senses, rhs, scales, active = builder.probe_rows(T)
    rows, rhs = rational(rows, rhs, scales)
    return rows, senses, rhs, active


def min_T_rows(builder, r_anchor, t_low):
    """``builder.min_T_rows(...)`` as ``(coeff_rows, senses, rhs, objective,
    active)``, or ``None``."""
    program = builder.min_T_rows(r_anchor, t_low)
    if program is None:
        return None
    rows, senses, rhs, scales, objective, active = program
    rows, rhs = rational(rows, rhs, scales)
    return rows, senses, rhs, [Fraction(c) for c in objective], active


def time_of(builder, gi):
    """The processing time of the builder's global variable *gi*."""
    return Fraction(builder.var_p[gi], builder.denominator)

"""Integer rows and rational rows, each as the other.

:class:`repro.core.programs.IP3Builder` emits integer rows plus one scale
per row (the contract of :mod:`repro.lp.solve`) and integer times over
its ``denominator``.  Tests that compare against keyed, rational programs
read them back through these helpers.  The exact kernel and its checks
take only integer rows with their scales; tests that write rational rows
by hand pass them through :func:`scaled`, :func:`int_rows` and
:func:`certifies`.

The kernel tests also share their programs and their comparison here:
:func:`lst_rows` (a seeded LST LP), :func:`random_lp` (a Hypothesis
strategy of small fractional programs) and :func:`same_result` (two
solves that must be the same solve).
"""

from fractions import Fraction

import hypothesis.strategies as st

from repro._fraction import is_inf, to_fraction
from repro.core.programs import minimal_fractional_T
from repro.lp.certificates import farkas_certifies
from repro.lp.solve import scale_rows
from repro.rounding.lst import build_unrelated_lp
from repro.workloads import random_hierarchical, rng_from_seed


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


def lst_rows(n, m, seed, scale_T=Fraction(1)):
    """Rational standard rows of the LST LP of a seeded instance at
    ``scale_T·T*``."""
    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    T = minimal_fractional_T(inst, backend="exact") * scale_T
    p = {}
    for j in range(inst.n):
        p[j] = {}
        for i in sorted(inst.machines):
            value = inst.p(j, frozenset([i]))
            if not is_inf(value):
                p[j][i] = to_fraction(value)
    return build_unrelated_lp(p, T).to_standard_rows()


@st.composite
def random_lp(draw):
    """Rational rows ``(rows, senses, rhs, objective)``: up to 4 variables
    and 4 rows, fractional entries and right-hand sides of either sign."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    rows, senses, rhs = [], [], []
    for _ in range(r):
        row = {
            j: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            for j in range(n)
            if draw(st.booleans())
        }
        rows.append(row)
        senses.append(draw(st.sampled_from(["<=", ">=", "=="])))
        rhs.append(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
    objective = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)]
    return rows, senses, rhs, objective


def same_result(a, b):
    """Two kernel results are the same solve: status, point, objective,
    basis, pivot counts and Farkas certificate."""
    assert (a.status, a.x, a.objective, a.basis, a.pivots) == (
        b.status, b.x, b.objective, b.basis, b.pivots
    )
    assert a.stats.phase1_pivots == b.stats.phase1_pivots
    assert a.farkas == b.farkas

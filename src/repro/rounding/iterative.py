"""Lemma VI.2 — iterative relaxation rounding for assignment + packing LPs.

The lemma considers programs of the form

    min Σ c_q z_q
    s.t. Σ_{i:(i,j)∈R} z_ij = 1      ∀ j ∈ J      (assignment rows)
         Σ_q a_lq z_q ≤ b_l          l = 1..θ     (packing rows, a ≥ 0)
         0 ≤ z ≤ 1

and states: if the LP is feasible and every column satisfies
``Σ_l a_lq / b_l ≤ ρ``, an integral solution exists with no worse cost,
assignment rows satisfied *exactly*, and every packing row ≤ ``(1 + ρ)·b_l``.

We implement the natural iterative-relaxation realization:

1. solve the LP to a vertex (exact simplex — fractionality must be exact);
2. fix every integral variable (0 drops it, 1 assigns the job);
3. if fractional variables remain, *drop* a packing row whose **remaining
   fractional weight** ``F_l = Σ_{q fractional} a_lq`` satisfies
   ``F_l ≤ ρ·b_l + (b_l − W_l)`` with ``W_l`` the weight already fixed to 1
   (final usage ≤ ``W_l + F_l ≤ (1 + ρ)·b_l``; the textbook rule
   ``F_l ≤ ρ·b_l`` is the conservative special case ``W_l = b_l``), or —
   for Theorem VI.1's variant — a row with at most ``max_drop_vars``
   fractional variables (overshoot ≤ that many × the row's max coefficient);
4. repeat on the reduced LP.

The paper defers the existence argument for step 3 to the unavailable full
version; when neither rule fires we drop the row with the smallest
fractional-weight ratio and record it (``fallback_drops``).

**Completeness of the residual rule.**  When ``ρ`` is at least the true
column-sum bound :func:`column_rho`, the residual rule in fact *always*
fires, so the fallback is unreachable: at a vertex with fractional set
``Q``, open groups ``g`` and (independent) tight packing rows ``t`` one has
``|Q| ≤ g + t`` and ``Σ_{q∈Q} z_q = g``, hence

    Σ_l [F_l − (b_l − W_l)]/b_l = Σ_q (1 − z_q)·(Σ_l a_lq/b_l) ≤ ρ·t,

so not every row can have ``F_l > ρ·b_l + (b_l − W_l)``.  The fallback
therefore only triggers when the caller *declares* a ρ below the column
bound — e.g. applying a theorem's ρ formula to an instance outside its
hypotheses — and in that regime the (1+ρ) guarantee can genuinely break.

For that reason the result is **self-certifying**: after rounding, every
row's achieved usage is checked against the limit its drop certified
(``(1+ρ)·b`` for weight-rule and fallback drops, ``W + F`` at drop time for
the Theorem VI.1 variable-count rule, ``b`` for rows never dropped) and a
structured :class:`~repro.exceptions.RoundingCertificationError` carrying
the per-row violations is raised when any limit is exceeded — instead of
only reporting violations post-hoc.  Experiment E16 maps the resulting
phase diagram on adversarial odd-cycle families.

**Zero-bound packing rows** (``b_l = 0``) are legal, with the convention
that the row must be satisfied exactly: the LP forces every variable with a
positive coefficient on it to 0, fractional weight on it is infeasible, it
contributes nothing to :func:`column_rho`, and it is never dropped by the
fallback (its certified limit is 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .._fraction import to_fraction
from ..exceptions import InfeasibleError, RoundingCertificationError, RoundingError
from ..lp.model import LinearProgram
from ..lp.solve import solve_lp

VarKey = Hashable


@dataclass(frozen=True)
class PackingRow:
    """One packing constraint ``Σ a_q z_q ≤ bound``.

    Coefficients must be non-negative and the bound ≥ 0.  A zero bound is
    the "satisfied exactly by fixed variables" convention documented in the
    module docstring; a negative bound has no feasible packing reading.
    """

    name: str
    coeffs: Dict[VarKey, Fraction]
    bound: Fraction

    def __post_init__(self):
        coeffs = {q: to_fraction(a) for q, a in self.coeffs.items()}
        bound = to_fraction(self.bound)
        negative = [q for q, a in coeffs.items() if a < 0]
        if negative:
            raise RoundingError(
                f"packing row {self.name} has negative coefficients on "
                f"{negative!r}"
            )
        if bound < 0:
            raise RoundingError(
                f"packing row {self.name} has negative bound {bound}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bound", bound)

    def usage(self, values: Mapping[VarKey, Union[int, Fraction]]) -> Fraction:
        return sum(
            (a * to_fraction(values.get(q, 0)) for q, a in self.coeffs.items()),
            Fraction(0),
        )


@dataclass
class IterativeRoundingResult:
    values: Dict[VarKey, int]
    """Integral 0/1 values; exactly one 1 per assignment group."""

    row_usage: Dict[str, Fraction]
    """Final ``Σ a_q z̄_q`` per packing row."""

    row_bounds: Dict[str, Fraction]

    dropped_rows: List[str]
    fallback_drops: int
    iterations: int
    objective: Fraction

    certified_limits: Dict[str, Fraction] = field(default_factory=dict)
    """Per-row usage limit the drop rules certified (see module docstring)."""

    def violation_ratio(self, name: str) -> Fraction:
        bound = self.row_bounds[name]
        if bound == 0:
            return Fraction(0) if self.row_usage[name] == 0 else Fraction(10**9)
        return self.row_usage[name] / bound

    @property
    def max_violation_ratio(self) -> Fraction:
        ratios = [self.violation_ratio(name) for name in self.row_bounds]
        return max(ratios) if ratios else Fraction(0)

    def certification_violations(self) -> Dict[str, Tuple[Fraction, Fraction, Fraction]]:
        """Rows whose achieved usage exceeds their certified limit."""
        return {
            name: (self.row_usage[name], limit, self.row_bounds[name])
            for name, limit in self.certified_limits.items()
            if self.row_usage[name] > limit
        }

    def certify(self) -> "IterativeRoundingResult":
        """Raise :class:`RoundingCertificationError` on any violated limit."""
        violations = self.certification_violations()
        if violations:
            raise RoundingCertificationError(violations, result=self)
        return self


def column_rho(
    groups: Mapping[Hashable, Sequence[VarKey]],
    packing: Sequence[PackingRow],
) -> Fraction:
    """``max_q Σ_l a_lq / b_l`` — the lemma's column-sum parameter.

    Zero-bound rows are excluded from the sum: by convention they must be
    satisfied exactly (any variable with a positive coefficient on one is
    forced to 0 by the LP), so they carry no rounding slack to parameterize.
    """
    totals: Dict[VarKey, Fraction] = {}
    for row in packing:
        if row.bound < 0:
            raise RoundingError(f"packing row {row.name} has negative bound")
        if row.bound == 0:
            continue
        for q, a in row.coeffs.items():
            totals[q] = totals.get(q, Fraction(0)) + a / row.bound
    return max(totals.values(), default=Fraction(0))


def _residual(row: PackingRow, fixed: Mapping[VarKey, int]) -> Fraction:
    """``b − W``: the row bound minus the weight already fixed to 1.

    Evaluated twice per iteration *on purpose* — once before the LP solve
    (the constraint rhs) and once after this iteration's fixes (the drop
    rule's ``W``); conflating the two would overestimate the residual and
    make the drop rule unsound.
    """
    return row.bound - sum(
        (a for q, a in row.coeffs.items() if fixed.get(q) == 1), Fraction(0)
    )


def iterative_round(
    groups: Mapping[Hashable, Sequence[VarKey]],
    packing: Sequence[PackingRow],
    costs: Optional[Mapping[VarKey, Union[int, Fraction]]] = None,
    rho: Optional[Fraction] = None,
    max_drop_vars: Optional[int] = None,
    backend: str = "exact",
    certify: bool = True,
) -> IterativeRoundingResult:
    """Round an assignment+packing LP per Lemma VI.2.

    Parameters
    ----------
    groups:
        ``job -> candidate variable keys``; each group becomes one equality
        row ``Σ z = 1``.  Keys must be globally unique across groups.
    packing:
        The packing rows (non-negative coefficients, non-negative bounds).
    rho:
        Drop threshold for the fractional-weight rule; defaults to the
        column-sum bound :func:`column_rho` (the lemma's ρ).  Declaring a
        smaller ρ is allowed (it is how the fallback path is reached at
        all), but the (1+ρ) certification then really can fail.
    max_drop_vars:
        When set, additionally drop rows with at most this many remaining
        fractional variables (Theorem VI.1 uses 2, giving its 3×(bound)).
    certify:
        Verify the achieved usage of every row against its certified limit
        and raise :class:`RoundingCertificationError` on any excess
        (default).  Pass ``False`` to obtain the uncertified result.

    Each iteration's LP is warm-started from the previous iteration's point
    restricted to the still-free variables — that restriction stays
    feasible for the residual system (1-fixed contributions are subtracted
    from the bounds), so the crash basis typically skips phase 1 outright.
    The point is the only warm start: every iteration fixes a variable
    (removing its ``ub`` row) or drops a packing row, so the previous
    iteration's basis never has the next LP's row count.
    """
    all_keys: List[VarKey] = []
    owner: Dict[VarKey, Hashable] = {}
    for job, keys in groups.items():
        if not keys:
            raise InfeasibleError(f"assignment group {job!r} has no candidates")
        for q in keys:
            if q in owner:
                raise RoundingError(f"variable {q!r} appears in two groups")
            owner[q] = job
            all_keys.append(q)
    cost_map: Dict[VarKey, Fraction] = {
        q: to_fraction(costs[q]) for q in costs
    } if costs else {}
    if rho is None:
        rho = column_rho(groups, packing)

    fixed: Dict[VarKey, int] = {}
    assigned_jobs: Dict[Hashable, VarKey] = {}
    active_rows: List[PackingRow] = list(packing)
    dropped: List[str] = []
    drop_limits: Dict[str, Fraction] = {}
    fallback_drops = 0
    iterations = 0
    warm: Optional[Dict[VarKey, Fraction]] = None

    while True:
        iterations += 1
        free_keys = [q for q in all_keys if q not in fixed]
        open_jobs = [job for job in groups if job not in assigned_jobs]
        if not open_jobs:
            break

        lp = LinearProgram()
        for q in free_keys:
            # The explicit ub matters here even though the group rows imply
            # it: Lemma VI.2's drop rules are calibrated against vertices of
            # the box-constrained formulation.
            lp.add_variable(q, lb=0, ub=1)
        for job in open_jobs:
            candidates = [q for q in groups[job] if q not in fixed]
            if not candidates:
                raise RoundingError(
                    f"assignment group {job!r} lost all candidates"
                )  # pragma: no cover - impossible: zeros only set by the LP
            lp.add_constraint({q: 1 for q in candidates}, "==", 1)
        for row in active_rows:
            coeffs = {q: a for q, a in row.coeffs.items() if q not in fixed and lp.has_variable(q)}
            lp.add_constraint(coeffs, "<=", _residual(row, fixed), name=row.name)
        if cost_map:
            lp.set_objective({q: cost_map.get(q, Fraction(0)) for q in free_keys})
        solution = solve_lp(lp, backend=backend, warm_values=warm)
        if not solution.is_optimal:
            raise InfeasibleError(
                "iterative rounding LP became infeasible (input LP was "
                "infeasible to begin with)"
            )

        progress = False
        fractional: List[VarKey] = []
        for q in free_keys:
            value = solution.value(q)
            if value == 0:
                fixed[q] = 0
                progress = True
            elif value == 1:
                fixed[q] = 1
                job = owner[q]
                if job in assigned_jobs:
                    raise RoundingError(f"group {job!r} received two assignments")
                assigned_jobs[job] = q
                progress = True
            else:
                fractional.append(q)
        # Setting siblings of a 1-fixed variable to 0 keeps groups exact.
        for job, q_one in list(assigned_jobs.items()):
            for q in groups[job]:
                if q != q_one and q not in fixed:
                    fixed[q] = 0
                    if q in fractional:
                        fractional.remove(q)
                    progress = True

        # Next iteration's warm start: this vertex restricted to the keys
        # that are still free stays feasible for the residual system.
        warm = {q: v for q, v in solution.values.items() if v and q not in fixed}

        if not fractional:
            continue  # all remaining either fixed now or done next loop

        # Try to drop a packing row.  Sound rule: with F the remaining
        # fractional weight and W the weight already fixed to 1, the final
        # usage is at most W + F, so requiring F ≤ ρ·b + (b − W) keeps the
        # row within (1 + ρ)·b.  (The textbook rule F ≤ ρ·b is the special
        # case W = b; using the residual covers strictly more rows.)
        frac_set = set(fractional)
        best_row: Optional[PackingRow] = None
        best_limit: Optional[Fraction] = None
        for row in active_rows:
            frac_weight = sum(
                (a for q, a in row.coeffs.items() if q in frac_set), Fraction(0)
            )
            frac_count = sum(1 for q in row.coeffs if q in frac_set)
            if frac_count == 0:
                continue
            residual = _residual(row, fixed)
            if frac_weight <= rho * row.bound + residual:
                best_row = row
                best_limit = (1 + rho) * row.bound
                break
            if max_drop_vars is not None and frac_count <= max_drop_vars:
                # Theorem VI.1's rule certifies final usage ≤ W + F at drop
                # time (≤ b + max_drop_vars·max coefficient).
                best_row = row
                best_limit = max(
                    (1 + rho) * row.bound,
                    row.bound - residual + frac_weight,
                )
                break
        if best_row is not None:
            active_rows.remove(best_row)
            dropped.append(best_row.name)
            drop_limits[best_row.name] = best_limit
            progress = True
        elif not progress:
            # Fallback: the paper's full version guarantees a droppable row;
            # if our rules miss, drop the least-loaded row and record it.
            # Unreachable when rho ≥ column_rho (see module docstring), so
            # reaching it means rho was declared below the column bound; the
            # (1+ρ) limit recorded here is verified by the certification.
            def ratio(row: PackingRow) -> Fraction:
                w = sum((a for q, a in row.coeffs.items() if q in frac_set), Fraction(0))
                return w / row.bound

            candidates = [
                row
                for row in active_rows
                if row.bound > 0 and any(q in frac_set for q in row.coeffs)
            ]
            if not candidates:
                raise RoundingError(
                    "no droppable packing row constrains the fractional "
                    "variables, yet the LP vertex is fractional — degenerate "
                    "input (zero-bound rows are never dropped)"
                )
            best_row = min(candidates, key=ratio)
            active_rows.remove(best_row)
            dropped.append(best_row.name)
            drop_limits[best_row.name] = (1 + rho) * best_row.bound
            fallback_drops += 1

    values = {q: fixed.get(q, 0) for q in all_keys}
    row_usage = {row.name: row.usage(values) for row in packing}
    row_bounds = {row.name: row.bound for row in packing}
    # Rows never dropped were enforced by every LP, so their limit is b_l
    # itself; dropped rows carry the limit their drop rule certified.
    certified_limits = {
        row.name: drop_limits.get(row.name, row.bound) for row in packing
    }
    objective = sum(
        (cost_map.get(q, Fraction(0)) * v for q, v in values.items()), Fraction(0)
    )
    result = IterativeRoundingResult(
        values=values,
        row_usage=row_usage,
        row_bounds=row_bounds,
        dropped_rows=dropped,
        fallback_drops=fallback_drops,
        iterations=iterations,
        objective=objective,
        certified_limits=certified_limits,
    )
    return result.certify() if certify else result

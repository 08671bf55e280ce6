"""A small LP/ILP model builder with named variables.

The paper's programs (IP-1) … (IP-4) index variables by ``(α, j)`` pairs; a
dense matrix interface would force every call site to maintain its own
index maps.  :class:`LinearProgram` lets callers build rows against hashable
variable keys and converts to the dense/standard forms the solvers need.

All coefficients are stored as exact :class:`~fractions.Fraction` values so
the exact simplex can run unchanged; the hybrid backend's HiGHS leg converts
to floats on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from .._fraction import to_fraction
from ..exceptions import SolverError
from .stats import SolverStats

VarKey = Hashable
Sense = str  # "<=", ">=", "=="

_SENSES = ("<=", ">=", "==")


@dataclass
class Row:
    """One linear constraint ``Σ coeffs·x  sense  rhs``."""

    coeffs: Dict[int, Fraction]
    sense: Sense
    rhs: Fraction
    name: str = ""


class LinearProgram:
    """Minimization LP with named variables and explicit rows.

    Variables default to ``lb=0, ub=None`` (the natural domain for all
    programs in the paper); integrality flags are honoured by the
    branch-and-bound solver only.
    """

    def __init__(self):
        self._keys: List[VarKey] = []
        self._index: Dict[VarKey, int] = {}
        self._lb: List[Fraction] = []
        self._ub: List[Optional[Fraction]] = []
        self._integral: List[bool] = []
        self._rows: List[Row] = []
        self._objective: Dict[int, Fraction] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_variable(
        self,
        key: VarKey,
        lb: Union[int, Fraction] = 0,
        ub: Optional[Union[int, Fraction]] = None,
        integral: bool = False,
    ) -> VarKey:
        if key in self._index:
            raise SolverError(f"duplicate variable key {key!r}")
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self._lb.append(to_fraction(lb))
        self._ub.append(None if ub is None else to_fraction(ub))
        self._integral.append(integral)
        return key

    def has_variable(self, key: VarKey) -> bool:
        return key in self._index

    def _column(self, key: VarKey) -> int:
        """The column of variable *key*; an unknown key raises
        :class:`~repro.exceptions.SolverError`."""
        try:
            return self._index[key]
        except KeyError:
            raise SolverError(f"key {key!r} is not a variable of the LP") from None

    def add_constraint(
        self,
        coeffs: Mapping[VarKey, Union[int, Fraction]],
        sense: Sense,
        rhs: Union[int, Fraction],
        name: str = "",
    ) -> None:
        if sense not in _SENSES:
            raise SolverError(f"unknown constraint sense {sense!r}")
        row: Dict[int, Fraction] = {}
        for key, value in coeffs.items():
            coeff = to_fraction(value)
            if coeff != 0:
                row[self._column(key)] = coeff
        self._rows.append(Row(coeffs=row, sense=sense, rhs=to_fraction(rhs), name=name))

    def set_objective(self, coeffs: Mapping[VarKey, Union[int, Fraction]]) -> None:
        """Minimization objective; omit for pure feasibility problems."""
        self._objective = {
            self._column(key): to_fraction(value) for key, value in coeffs.items()
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._keys)

    @property
    def objective_coeffs(self) -> Dict[VarKey, Fraction]:
        """Objective coefficients keyed by variable key (zeros omitted)."""
        return {self._keys[i]: v for i, v in self._objective.items()}

    @property
    def variable_keys(self) -> Tuple[VarKey, ...]:
        return tuple(self._keys)

    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._rows)

    def lower_bound(self, key: VarKey) -> Fraction:
        return self._lb[self._index[key]]

    def upper_bound(self, key: VarKey) -> Optional[Fraction]:
        return self._ub[self._index[key]]

    def is_integral_var(self, key: VarKey) -> bool:
        return self._integral[self._index[key]]

    def index_of(self, key: VarKey) -> int:
        return self._index[key]

    # ------------------------------------------------------------------
    # Conversion for the solvers
    # ------------------------------------------------------------------

    def to_standard_rows(self) -> Tuple[
        List[Dict[int, Fraction]], List[Sense], List[Fraction], List[Fraction]
    ]:
        """Rows with variable bounds materialized as constraints.

        Returns ``(coeff_rows, senses, rhs, objective_vector)``; variable
        lower bounds must be 0 (all programs in the paper satisfy this) —
        non-zero lower bounds raise, finite upper bounds become ≤ rows.
        """
        for idx, lb in enumerate(self._lb):
            if lb != 0:
                raise SolverError(
                    f"variable {self._keys[idx]!r} has lb={lb}; the exact "
                    f"solver requires lb=0 (shift the variable instead)"
                )
        coeff_rows: List[Dict[int, Fraction]] = []
        senses: List[Sense] = []
        rhs: List[Fraction] = []
        for row in self._rows:
            coeff_rows.append(dict(row.coeffs))
            senses.append(row.sense)
            rhs.append(row.rhs)
        for idx, ub in enumerate(self._ub):
            if ub is not None:
                coeff_rows.append({idx: Fraction(1)})
                senses.append("<=")
                rhs.append(ub)
        zero = Fraction(0)
        objective = [self._objective.get(i, zero) for i in range(len(self._keys))]
        return coeff_rows, senses, rhs, objective

    # ------------------------------------------------------------------
    # Exact certification
    # ------------------------------------------------------------------

    def check_values(
        self, values: Mapping[VarKey, Union[int, Fraction]]
    ) -> List[str]:
        """Exactly verify a candidate point; return the violations found.

        Every variable bound and every constraint row is re-evaluated in
        rational arithmetic — no tolerances.  An empty list certifies that
        *values* (missing keys read as 0) is a feasible point of this
        program.  The exact oracle the tests hold every backend's points
        against.
        """
        x = [Fraction(0)] * len(self._keys)
        for key, value in values.items():
            idx = self._index.get(key)
            if idx is None:
                continue
            x[idx] = to_fraction(value)
        violations: List[str] = []
        for idx, key in enumerate(self._keys):
            if x[idx] < self._lb[idx]:
                violations.append(f"{key!r} = {x[idx]} < lb {self._lb[idx]}")
            ub = self._ub[idx]
            if ub is not None and x[idx] > ub:
                violations.append(f"{key!r} = {x[idx]} > ub {ub}")
        for pos, row in enumerate(self._rows):
            lhs = sum((v * x[i] for i, v in row.coeffs.items()), Fraction(0))
            ok = (
                lhs <= row.rhs if row.sense == "<="
                else lhs >= row.rhs if row.sense == ">="
                else lhs == row.rhs
            )
            if not ok:
                name = row.name or f"row[{pos}]"
                violations.append(f"{name}: {lhs} {row.sense} {row.rhs} violated")
        return violations


@dataclass
class LPSolution:
    """Solver-agnostic result: status, per-key values, objective, counters."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: Dict[VarKey, Fraction]
    objective: Optional[Fraction]
    #: Per-solve performance counters (``None`` when no exact solve ran).
    stats: Optional["SolverStats"] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, key: VarKey) -> Fraction:
        return self.values.get(key, Fraction(0))

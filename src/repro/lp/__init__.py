"""LP/ILP substrate: model builder, exact simplex, certified hybrid backend, B&B.

Every exact answer comes from one simplex,
:func:`~repro.lp.revised.solve_standard`: a revised two-phase simplex over
an exact factorized basis that returns rational basic solutions.  Its one
warm-start channel is a point: a prior solution whose support it factorizes
into the starting basis.

The basis is picked by structure: a pseudo-forest
(:class:`~repro.lp.forest.ForestBasis`) when every column has at most two
non-zeros, as in the LST LP; else a GUB basis
(:class:`~repro.lp.gub.GUBBasis`) when some rows have only ``+1`` entries,
as (IP-3)'s assignment rows do, which it keeps implicit; and
:class:`LUBasis` otherwise.  All three return the same integers after
every pivot, so the choice changes no pivot, vertex or certificate.
"""

from .basis import LUBasis
from .branch_and_bound import BnBResult, solve_binary_ilp
from .certificates import farkas_certifies
from .forest import ForestBasis
from .gub import GUBBasis
from .hybrid import HAVE_SCIPY, solve_standard_hybrid
from .model import LinearProgram, LPSolution, Row
from .revised import SimplexResult, solve_standard
from .solve import BACKENDS, feasible_point_rows, solve_lp
from .stats import SolverStats, collect_stats

if HAVE_SCIPY:
    from .scipy_backend import solve_standard_float
else:  # pragma: no cover - scipy is present in CI images
    solve_standard_float = None  # type: ignore[assignment]

__all__ = [
    "BACKENDS",
    "BnBResult",
    "ForestBasis",
    "GUBBasis",
    "LPSolution",
    "LUBasis",
    "LinearProgram",
    "Row",
    "SimplexResult",
    "SolverStats",
    "collect_stats",
    "farkas_certifies",
    "feasible_point_rows",
    "solve_binary_ilp",
    "solve_lp",
    "solve_standard",
    "solve_standard_float",
    "solve_standard_hybrid",
]

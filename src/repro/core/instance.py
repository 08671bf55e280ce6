"""Problem instances for hierarchical scheduling — Section II of the paper.

An instance bundles the job set ``J = {0,…,n-1}``, a laminar family ``A`` of
admissible machine sets and, for every job, a monotone processing-time
function ``P_j : A → Z₊ ∪ {∞}``.  ``∞`` (the module constant
:data:`repro.INF`) encodes "this job may not use this set" — exactly the
paper's "sufficiently large constant" in Example II.1.

Monotonicity (``α ⊆ β ⇒ P_j(α) ≤ P_j(β)``) is validated at construction: it
is the modelling assumption that makes migration overhead well defined and is
load-bearing in the proof of Lemma V.1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .._fraction import INF, fsum, is_inf, to_fraction
from ..exceptions import InvalidInstanceError, MonotonicityError
from .laminar import LaminarFamily, MachineSet

ProcTime = Union[int, Fraction, float]  # float only for the INF sentinel


def _normalize_time(value: ProcTime) -> Union[Fraction, float]:
    if is_inf(value):
        return INF
    frac = to_fraction(value)
    if frac < 0:
        raise InvalidInstanceError(f"processing times must be non-negative, got {frac}")
    return frac


class Instance:
    """A hierarchical scheduling instance ``(J, M, A, P)``.

    Parameters
    ----------
    family:
        The laminar family of admissible sets.
    processing:
        Either a mapping ``job -> {alpha: time}`` or a callable
        ``(job, alpha) -> time`` evaluated on ``jobs × family.sets``.
        Sets not mentioned for a job default to ``INF`` (not allowed).
    n:
        Number of jobs; required when *processing* is a callable, inferred
        from the mapping otherwise.
    validate:
        When ``True`` (default) monotonicity is checked; building a large
        randomized instance whose generator is monotone by construction may
        skip it for speed.
    """

    def __init__(
        self,
        family: LaminarFamily,
        processing: Union[Mapping[int, Mapping[Iterable[int], ProcTime]], Callable],
        n: Optional[int] = None,
        validate: bool = True,
    ):
        self._family = family
        table: Dict[int, Dict[MachineSet, Union[Fraction, float]]] = {}
        if callable(processing):
            if n is None:
                raise InvalidInstanceError("n is required when processing is callable")
            for j in range(n):
                row: Dict[MachineSet, Union[Fraction, float]] = {}
                for alpha in family.sets:
                    row[alpha] = _normalize_time(processing(j, alpha))
                table[j] = row
        else:
            jobs = sorted(processing.keys())
            if n is not None and n != len(jobs):
                raise InvalidInstanceError(
                    f"n={n} disagrees with processing table of size {len(jobs)}"
                )
            if jobs != list(range(len(jobs))):
                raise InvalidInstanceError("jobs must be numbered 0..n-1 without gaps")
            for j in jobs:
                row = {}
                for raw_alpha, value in processing[j].items():
                    alpha = frozenset(raw_alpha)
                    if alpha not in family:
                        raise InvalidInstanceError(
                            f"job {j}: set {sorted(alpha)} is not in the admissible family"
                        )
                    row[alpha] = _normalize_time(value)
                for alpha in family.sets:
                    row.setdefault(alpha, INF)
                table[j] = row
        self._p = table
        self._n = len(table)
        if self._n == 0:
            raise InvalidInstanceError("an instance must contain at least one job")
        if validate:
            self._check_monotonicity()

    # ------------------------------------------------------------------
    # Convenience constructors for the special cases of Section II
    # ------------------------------------------------------------------

    @classmethod
    def identical(cls, m: int, lengths: Sequence[ProcTime]) -> "Instance":
        """``P|pmtn|Cmax``: one admissible set M, job lengths as given."""
        family = LaminarFamily.global_only(m)
        root = frozenset(range(m))
        processing = {j: {root: lengths[j]} for j in range(len(lengths))}
        return cls(family, processing)

    @classmethod
    def unrelated(cls, p_matrix: Sequence[Sequence[ProcTime]]) -> "Instance":
        """``R||Cmax``: singleton masks, ``p_matrix[j][i]`` times."""
        n = len(p_matrix)
        if n == 0:
            raise InvalidInstanceError("empty processing matrix")
        m = len(p_matrix[0])
        family = LaminarFamily.singletons(m)
        processing = {
            j: {frozenset([i]): p_matrix[j][i] for i in range(m)} for j in range(n)
        }
        return cls(family, processing)

    @classmethod
    def semi_partitioned(
        cls,
        p_local: Sequence[Sequence[ProcTime]],
        p_global: Sequence[ProcTime],
    ) -> "Instance":
        """Section III: global mask M plus singletons.

        ``p_local[j][i]`` is the time of job *j* pinned to machine *i*;
        ``p_global[j]`` its time when migrated freely.
        """
        n = len(p_local)
        if n != len(p_global):
            raise InvalidInstanceError("p_local and p_global disagree on n")
        m = len(p_local[0])
        family = LaminarFamily.semi_partitioned(m)
        root = frozenset(range(m))
        processing: Dict[int, Dict[FrozenSet[int], ProcTime]] = {}
        for j in range(n):
            row: Dict[FrozenSet[int], ProcTime] = {root: p_global[j]}
            for i in range(m):
                row[frozenset([i])] = p_local[j][i]
            processing[j] = row
        return cls(family, processing)

    @classmethod
    def clustered(
        cls,
        cluster_size: int,
        p_local: Sequence[Sequence[ProcTime]],
        p_cluster: Sequence[Sequence[ProcTime]],
        p_global: Sequence[ProcTime],
    ) -> "Instance":
        """Section II clustered scheduling with ``m = k·q`` machines.

        ``p_cluster[j][c]`` is the time of job *j* confined to cluster *c*.
        """
        n = len(p_local)
        m = len(p_local[0])
        family = LaminarFamily.clustered(m, cluster_size)
        root = frozenset(range(m))
        processing: Dict[int, Dict[FrozenSet[int], ProcTime]] = {}
        num_clusters = m // cluster_size
        for j in range(n):
            row: Dict[FrozenSet[int], ProcTime] = {root: p_global[j]}
            for c in range(num_clusters):
                cluster = frozenset(range(c * cluster_size, (c + 1) * cluster_size))
                if cluster != root and len(cluster) > 1:
                    row[cluster] = p_cluster[j][c]
            for i in range(m):
                single = frozenset([i])
                if single in family:
                    row[single] = p_local[j][i]
            processing[j] = row
        return cls(family, processing)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_monotonicity(self) -> None:
        family = self._family
        for alpha in family.sets:
            parent = family.parent(alpha)
            if parent is None:
                continue
            for j in range(self._n):
                pa = self._p[j][alpha]
                pb = self._p[j][parent]
                # INF ≤ INF is fine; finite ≤ INF is fine; INF ≤ finite is not.
                if is_inf(pa) and not is_inf(pb):
                    raise MonotonicityError(
                        f"job {j}: P({sorted(alpha)})=∞ exceeds "
                        f"P({sorted(parent)})={pb}"
                    )
                if not is_inf(pa) and not is_inf(pb) and pa > pb:
                    raise MonotonicityError(
                        f"job {j}: P({sorted(alpha)})={pa} exceeds "
                        f"P({sorted(parent)})={pb}"
                    )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def family(self) -> LaminarFamily:
        return self._family

    @property
    def n(self) -> int:
        """Number of jobs."""
        return self._n

    @property
    def m(self) -> int:
        """Number of machines."""
        return self._family.m

    @property
    def jobs(self) -> range:
        return range(self._n)

    @property
    def machines(self) -> FrozenSet[int]:
        return self._family.machines

    def p(self, job: int, alpha: Iterable[int]) -> Union[Fraction, float]:
        """Processing time ``P_j(α)`` (``INF`` when the pair is forbidden)."""
        return self._p[job][frozenset(alpha)]

    def allows(self, job: int, alpha: Iterable[int]) -> bool:
        """Whether job *job* may be assigned to set *alpha* at all."""
        return not is_inf(self._p[job][frozenset(alpha)])

    def allowed_sets(self, job: int) -> Tuple[MachineSet, ...]:
        """Admissible sets with finite processing time for *job*."""
        return tuple(a for a in self._family.sets if not is_inf(self._p[job][a]))

    def effective_p(self, job: int, machine_subset: Iterable[int]) -> Union[Fraction, float]:
        """Processing time when run on an arbitrary machine subset.

        Per Section II: the time of the inclusion-minimal admissible set
        containing the subset, or ``INF`` when no admissible set contains it.
        """
        alpha = self._family.minimal_containing(machine_subset)
        if alpha is None:
            return INF
        return self._p[job][alpha]

    # ------------------------------------------------------------------
    # Derived instances (Section V constructions)
    # ------------------------------------------------------------------

    def with_singletons(self) -> "Instance":
        """Extend the family with all singletons (Section V, w.l.o.g. step).

        The processing time of job *j* on a new singleton ``{i}`` is its time
        on the minimal admissible set containing *i* (``INF`` if none), which
        preserves monotonicity and the optimal makespan.
        """
        if self._family.has_all_singletons:
            return self
        new_family = self._family.with_singletons()
        processing: Dict[int, Dict[FrozenSet[int], ProcTime]] = {}
        for j in range(self._n):
            row: Dict[FrozenSet[int], ProcTime] = dict(self._p[j])
            for i in sorted(self._family.machines):
                single = frozenset([i])
                if single not in row:
                    containing = self._family.minimal_containing([i])
                    row[single] = INF if containing is None else self._p[j][containing]
            processing[j] = row
        return Instance(new_family, processing, validate=False)

    def unrelated_collapse(self) -> "Instance":
        """The instance ``Iu`` of Section V / the Section II 8-approximation.

        ``p'_ij = min over admissible α ∋ i of P_j(α)`` — migration is
        forbidden but each machine gets the cheapest mask that includes it.
        """
        m_sorted = sorted(self._family.machines)
        matrix: List[List[ProcTime]] = []
        for j in range(self._n):
            row: List[ProcTime] = []
            for i in m_sorted:
                best: Union[Fraction, float] = INF
                for alpha in self._family.chain(i):
                    value = self._p[j][alpha]
                    if not is_inf(value) and (is_inf(best) or value < best):
                        best = value
                row.append(best)
            matrix.append(row)
        return Instance.unrelated(matrix)

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------

    def min_p(self, job: int) -> Union[Fraction, float]:
        """Cheapest processing time of *job* over all admissible sets."""
        values = [self._p[job][a] for a in self._family.sets if not is_inf(self._p[job][a])]
        return min(values) if values else INF

    def trivial_bounds(self) -> Tuple[Fraction, Fraction]:
        """A (lower, upper) makespan bracket for binary search.

        Lower: max over jobs of their cheapest time, and total cheapest
        volume divided by m.  Upper: sum of cheapest times (serial schedule
        on one chain of sets is always feasible).

        The lower value also bounds the LP relaxation's ``T*`` of (IP-3):
        each job needs one pair with ``p ≤ T``, and summing the root sets'
        load rows (disjoint, at most ``m`` machines) with the assignment
        rows gives ``Σ_j min p ≤ m·T``.
        """
        mins: List[Fraction] = []
        for j in range(self._n):
            v = self.min_p(j)
            if is_inf(v):
                raise InvalidInstanceError(f"job {j} has no admissible set")
            mins.append(to_fraction(v))
        lower = max(max(mins), fsum(mins) / self.m)
        upper = fsum(mins)
        return lower, max(upper, lower)

    def __repr__(self) -> str:
        return (
            f"Instance(n={self._n}, m={self.m}, |A|={len(self._family)}, "
            f"levels={self._family.num_levels})"
        )

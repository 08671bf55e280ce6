"""Laminar (hierarchical) families of machine sets — Section II of the paper.

A family ``A ⊆ 2^M`` is *laminar* when any two members are nested or
disjoint.  The paper restricts the hierarchical scheduling problem to laminar
instances; this module provides the validated data structure together with
the structural queries used by Algorithms 2 and 3 (children/parents, the
bottom-up and top-down visit orders, levels, heights) and by Section V
(completion with singletons, minimal containing sets).

Machines are identified by integers ``0 .. m-1``; admissible sets are
``frozenset`` values.  All derived structure is precomputed once at
construction, so queries are O(1)/O(size of answer).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..exceptions import InvalidFamilyError

MachineSet = FrozenSet[int]


def _normalize_sets(sets: Iterable[Iterable[int]]) -> Tuple[MachineSet, ...]:
    normalized: List[MachineSet] = []
    seen = set()
    for raw in sets:
        fs = frozenset(raw)
        if not fs:
            raise InvalidFamilyError("admissible sets must be non-empty")
        if fs in seen:
            raise InvalidFamilyError(f"duplicate admissible set {sorted(fs)}")
        for machine in fs:
            if not isinstance(machine, int) or isinstance(machine, bool):
                raise InvalidFamilyError(
                    f"machine identifiers must be ints, got {machine!r}"
                )
        seen.add(fs)
        normalized.append(fs)
    if not normalized:
        raise InvalidFamilyError("the admissible family must contain at least one set")
    # Deterministic canonical order: decreasing size, then lexicographic.
    normalized.sort(key=lambda s: (-len(s), sorted(s)))
    return tuple(normalized)


class LaminarFamily:
    """A validated laminar family of admissible machine sets.

    Parameters
    ----------
    machines:
        Iterable of machine identifiers (``0 .. m-1`` by convention; any
        distinct ints are accepted).
    sets:
        Iterable of admissible machine sets.  Each must be a non-empty subset
        of *machines*; the collection must be pairwise nested-or-disjoint.

    Raises
    ------
    InvalidFamilyError
        If the family is empty, contains duplicates/empty sets, references
        unknown machines, or violates laminarity.
    """

    def __init__(self, machines: Iterable[int], sets: Iterable[Iterable[int]]):
        self._machines: MachineSet = frozenset(machines)
        if not self._machines:
            raise InvalidFamilyError("the machine set must be non-empty")
        self._sets = _normalize_sets(sets)
        universe = self._machines
        for alpha in self._sets:
            if not alpha <= universe:
                raise InvalidFamilyError(
                    f"admissible set {sorted(alpha)} contains unknown machines "
                    f"{sorted(alpha - universe)}"
                )
        self._check_laminarity()
        self._build_structure()

    # ------------------------------------------------------------------
    # Construction helpers (canonical families from Section II)
    # ------------------------------------------------------------------

    @classmethod
    def global_only(cls, m: int) -> "LaminarFamily":
        """``A = {M}`` — identical parallel machines with free migration."""
        machines = range(m)
        return cls(machines, [frozenset(machines)])

    @classmethod
    def singletons(cls, m: int) -> "LaminarFamily":
        """``A = {{0},…,{m-1}}`` — unrelated machines, no migration."""
        return cls(range(m), [frozenset([i]) for i in range(m)])

    @classmethod
    def semi_partitioned(cls, m: int) -> "LaminarFamily":
        """``A = {M} ∪ singletons`` — Section III's two-level family.

        For ``m = 1`` the root coincides with the lone singleton and the
        family degenerates to a single set.
        """
        machines = range(m)
        sets = {frozenset(machines)}
        sets.update(frozenset([i]) for i in range(m))
        return cls(machines, sets)

    @classmethod
    def clustered(cls, m: int, cluster_size: int) -> "LaminarFamily":
        """``A = {M} ∪ clusters of q machines ∪ singletons`` (Section II).

        Requires ``m`` to be a multiple of ``cluster_size``.
        """
        if cluster_size <= 0:
            raise InvalidFamilyError("cluster_size must be positive")
        if m % cluster_size != 0:
            raise InvalidFamilyError(
                f"m={m} is not a multiple of cluster_size={cluster_size}"
            )
        machines = range(m)
        sets: List[FrozenSet[int]] = [frozenset(machines)]
        for start in range(0, m, cluster_size):
            sets.append(frozenset(range(start, start + cluster_size)))
        sets.extend(frozenset([i]) for i in range(m))
        # A cluster of size m or 1 would duplicate existing sets; dedupe.
        unique = []
        seen = set()
        for s in sets:
            if s not in seen:
                seen.add(s)
                unique.append(s)
        return cls(machines, unique)

    @classmethod
    def from_nested(cls, tree) -> "LaminarFamily":
        """Build a family from nested lists of machine ids.

        ``from_nested([[0, 1], [2, 3]])`` creates the root ``{0,1,2,3}``, the
        two clusters and all four singletons; arbitrary nesting depth is
        supported.  Leaves are ints (machines).
        """
        sets: List[FrozenSet[int]] = []

        def walk(node) -> FrozenSet[int]:
            if isinstance(node, int):
                leaf = frozenset([node])
                if leaf not in sets:
                    sets.append(leaf)
                return leaf
            members: set = set()
            for child in node:
                members |= walk(child)
            fs = frozenset(members)
            if fs not in sets:
                sets.append(fs)
            return fs

        root = walk(tree)
        return cls(root, sets)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_laminarity(self) -> None:
        sets = self._sets
        for i in range(len(sets)):
            for k in range(i + 1, len(sets)):
                a, b = sets[i], sets[k]
                if a & b and not (a <= b or b <= a):
                    raise InvalidFamilyError(
                        f"sets {sorted(a)} and {sorted(b)} overlap without nesting"
                    )

    def _build_structure(self) -> None:
        sets = self._sets  # sorted by decreasing size
        parent: Dict[MachineSet, Optional[MachineSet]] = {}
        children: Dict[MachineSet, List[MachineSet]] = {s: [] for s in sets}
        # Because of the canonical order, the parent of s is the *last*
        # strict superset seen before s that is minimal; scan candidates.
        for idx, s in enumerate(sets):
            best: Optional[MachineSet] = None
            for t in sets[:idx]:
                if s < t and (best is None or t < best):
                    best = t
            parent[s] = best
            if best is not None:
                children[best].append(s)
        for lst in children.values():
            lst.sort(key=lambda s: (min(s), sorted(s)))
        self._parent = parent
        self._children = {s: tuple(c) for s, c in children.items()}
        # Level per the paper: number of sets β ⊇ α (including α itself).
        level: Dict[MachineSet, int] = {}
        for s in sets:  # parents are processed before children
            p = parent[s]
            level[s] = 1 if p is None else level[p] + 1
        self._level = level
        # Height: shortest distance to a leaf of the forest (Model 2).
        height: Dict[MachineSet, int] = {}
        for s in reversed(sets):  # children before parents
            kids = self._children[s]
            height[s] = 0 if not kids else 1 + min(height[k] for k in kids)
        self._height = height
        # Per-machine chain of sets containing it, smallest first.
        chains: Dict[int, List[MachineSet]] = {i: [] for i in self._machines}
        for s in reversed(sets):  # increasing size
            for i in s:
                chains[i].append(s)
        self._chains = {i: tuple(c) for i, c in chains.items()}
        self._set_index = {s: i for i, s in enumerate(sets)}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def machines(self) -> MachineSet:
        """The full machine set ``M``."""
        return self._machines

    @property
    def m(self) -> int:
        """Number of machines."""
        return len(self._machines)

    @property
    def sets(self) -> Tuple[MachineSet, ...]:
        """All admissible sets in canonical (top-down) order."""
        return self._sets

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[MachineSet]:
        return iter(self._sets)

    def __contains__(self, alpha: Iterable[int]) -> bool:
        return frozenset(alpha) in self._set_index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaminarFamily):
            return NotImplemented
        return self._machines == other._machines and set(self._sets) == set(other._sets)

    def __hash__(self) -> int:
        return hash((self._machines, self._sets))

    def __repr__(self) -> str:
        listed = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in self._sets)
        return f"LaminarFamily(m={self.m}, sets=[{listed}])"

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def parent(self, alpha: Iterable[int]) -> Optional[MachineSet]:
        """The inclusion-minimal strict superset of *alpha* in the family."""
        return self._parent[frozenset(alpha)]

    def children(self, alpha: Iterable[int]) -> Tuple[MachineSet, ...]:
        """The inclusion-maximal strict subsets of *alpha* in the family."""
        return self._children[frozenset(alpha)]

    @property
    def roots(self) -> Tuple[MachineSet, ...]:
        """Sets with no strict superset in the family."""
        return tuple(s for s in self._sets if self._parent[s] is None)

    @property
    def leaves(self) -> Tuple[MachineSet, ...]:
        """Sets with no strict subset in the family."""
        return tuple(s for s in self._sets if not self._children[s])

    def level(self, alpha: Iterable[int]) -> int:
        """Number of admissible sets containing *alpha* (incl. itself)."""
        return self._level[frozenset(alpha)]

    @property
    def num_levels(self) -> int:
        """The level of the instance: maximum level among all sets."""
        return max(self._level.values())

    def height(self, alpha: Iterable[int]) -> int:
        """Shortest distance to a leaf of the forest (0 for leaves)."""
        return self._height[frozenset(alpha)]

    def ancestors(self, alpha: Iterable[int]) -> Tuple[MachineSet, ...]:
        """Strict supersets of *alpha*, smallest first."""
        result = []
        cur = self._parent[frozenset(alpha)]
        while cur is not None:
            result.append(cur)
            cur = self._parent[cur]
        return tuple(result)

    def descendants(self, alpha: Iterable[int]) -> Tuple[MachineSet, ...]:
        """Strict subsets of *alpha* in the family, in top-down order."""
        alpha = frozenset(alpha)
        out: List[MachineSet] = []
        stack = list(self._children[alpha])
        while stack:
            s = stack.pop(0)
            out.append(s)
            stack.extend(self._children[s])
        return tuple(out)

    def subsets_of(self, alpha: Iterable[int]) -> Tuple[MachineSet, ...]:
        """All family sets ``β ⊆ α`` including *alpha* itself (for (2b))."""
        alpha = frozenset(alpha)
        return (alpha,) + self.descendants(alpha)

    def chain(self, machine: int) -> Tuple[MachineSet, ...]:
        """All family sets containing *machine*, smallest first."""
        return self._chains[machine]

    def child_containing(self, alpha: Iterable[int], machine: int) -> Optional[MachineSet]:
        """The maximal strict subset ``β ⊂ α`` with ``machine ∈ β``.

        This is the set selected at line 8 of Algorithm 2; in a laminar
        family it is unique (the child of *alpha* containing the machine) or
        absent.
        """
        alpha = frozenset(alpha)
        for child in self._children[alpha]:
            if machine in child:
                return child
        return None

    def minimal_containing(self, subset: Iterable[int]) -> Optional[MachineSet]:
        """The inclusion-minimal family set containing *subset*, if any.

        Per Section II, a job run on machines ``M'`` pays the processing time
        of the minimal admissible set that contains ``M'``.
        """
        target = frozenset(subset)
        best: Optional[MachineSet] = None
        for s in self._sets:
            if target <= s and (best is None or s < best):
                best = s
        return best

    def trapped_demand(
        self,
        contributions: Iterable[Tuple[Optional[MachineSet], Fraction]],
        zero: Union[int, Fraction] = Fraction(0),
    ) -> Dict[MachineSet, Fraction]:
        """``D(α) = Σ w`` over the ``(trap, w)`` pairs with ``trap ⊆ α``, per set.

        Each weight is booked on its trap set, then accumulated bottom-up,
        so ``D(α)`` sums the whole subtree below ``α``: the per-level
        demand-bound accumulation over the laminar forest.  A ``None`` trap
        (no single family set contains the job's options) counts nowhere.
        Every sum starts at *zero*, so integer weights with ``zero=0`` give
        integer demands.
        """
        demand: Dict[MachineSet, Fraction] = {alpha: zero for alpha in self._sets}
        for trap, weight in contributions:
            if trap is not None:
                demand[trap] += weight
        for alpha in reversed(self._sets):  # children before parents
            parent = self._parent[alpha]
            if parent is not None:
                demand[parent] += demand[alpha]
        return demand

    # ------------------------------------------------------------------
    # Visit orders for Algorithms 2 and 3
    # ------------------------------------------------------------------

    def bottom_up(self) -> Tuple[MachineSet, ...]:
        """Sets ordered so every strict subset precedes its supersets."""
        return tuple(reversed(self._sets))

    def top_down(self) -> Tuple[MachineSet, ...]:
        """Sets ordered so every strict superset precedes its subsets."""
        return self._sets

    # ------------------------------------------------------------------
    # Derived families
    # ------------------------------------------------------------------

    def with_singletons(self) -> "LaminarFamily":
        """The family extended with every singleton ``{i}`` (Section V)."""
        sets = list(self._sets)
        present = set(self._sets)
        for i in sorted(self._machines):
            single = frozenset([i])
            if single not in present:
                sets.append(single)
        return LaminarFamily(self._machines, sets)

    @property
    def has_all_singletons(self) -> bool:
        """Whether every machine appears as a singleton set."""
        return all(frozenset([i]) in self._set_index for i in self._machines)

    @property
    def is_tree(self) -> bool:
        """Whether the forest is a single tree rooted at the full set M."""
        roots = self.roots
        return len(roots) == 1 and roots[0] == self._machines

    @property
    def is_uniform_tree(self) -> bool:
        """Tree with all leaves at the same level (Model 2's assumption)."""
        if not self.is_tree:
            return False
        leaf_levels = {self._level[s] for s in self.leaves}
        return len(leaf_levels) == 1

    def uncovered(self, alpha: Iterable[int]) -> MachineSet:
        """Machines of *alpha* not covered by any child set."""
        alpha = frozenset(alpha)
        covered: set = set()
        for child in self._children[alpha]:
            covered |= child
        return alpha - frozenset(covered)


def is_laminar(sets: Sequence[Iterable[int]]) -> bool:
    """Check laminarity of a raw collection without building a family."""
    fs = [frozenset(s) for s in sets]
    for i in range(len(fs)):
        for k in range(i + 1, len(fs)):
            a, b = fs[i], fs[k]
            if a & b and not (a <= b or b <= a):
                return False
    return True

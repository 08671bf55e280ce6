"""Random workload generators with monotone mask-dependent processing times.

All generators take a :class:`numpy.random.Generator` so every experiment is
reproducible from a seed, and build times **bottom-up** so monotonicity holds
by construction:

    P_j({i})   = base singleton time (unrelated-style, with optional
                 per-job machine affinity),
    P_j(α)     = max over children β of P_j(β)  +  overhead_j(α),

with non-negative overhead increments.  The increment is where the migration
cost story lives: :func:`instance_from_topology` draws it from the topology's
cost model via :func:`repro.simulation.costs.mask_overhead_budget`, i.e. a
wider mask pays exactly the worst-case migration budget of its domain.

Per-job *flexibility* interpolates between migration-tolerant jobs (flat
profiles — bigger masks cost nothing extra, so hierarchy purely helps load
balancing, as in Example II.1's job 3) and pinned specialists (cheap on one
machine, expensive elsewhere — Example II.1's jobs 1 and 2).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._fraction import INF, to_fraction
from ..core.assignment import Assignment, min_T_for_assignment
from ..core.instance import Instance
from ..core.laminar import LaminarFamily, MachineSet
from ..exceptions import InvalidInstanceError
from ..simulation.costs import CostModel, mask_overhead_budget
from ..simulation.topology import Topology


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-standard way to get a reproducible generator."""
    return np.random.default_rng(seed)


def derive_seed(root_seed: int, *components: Union[int, str]) -> int:
    """A stable per-task seed from a root seed and a path of components.

    The sweep runner (:mod:`repro.runner`) shards one sweep into many
    ``(experiment, params, replicate)`` tasks; each task's seed is derived
    here so that results are a pure function of *what* the task is — never
    of which worker ran it or in what order.  That is the property that
    makes ``--jobs N`` output bit-identical to serial runs.

    Implementation: SHA-256 over the root seed and the stringified
    components, folded to a non-negative 63-bit integer (valid NumPy
    ``default_rng`` seed).  Changing any component decorrelates the stream.
    """
    parts = [str(int(root_seed))] + [str(c) for c in components]
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def random_laminar_family(
    rng: np.random.Generator,
    m: int,
    split_probability: float = 0.7,
    max_children: int = 3,
    include_singletons: bool = True,
) -> LaminarFamily:
    """A random tree-shaped laminar family over *m* machines.

    Recursively partitions the machine set: each block of size ≥ 2 splits
    into 2…*max_children* parts with the given probability.  Singletons are
    appended when requested (they are w.l.o.g. for Section V anyway).
    """
    if m < 1:
        raise InvalidInstanceError("m must be ≥ 1")
    sets: List[frozenset] = [frozenset(range(m))]

    def split(block: Sequence[int]) -> None:
        if len(block) < 2 or rng.random() > split_probability:
            return
        parts = int(rng.integers(2, min(max_children, len(block)) + 1))
        shuffled = list(block)
        rng.shuffle(shuffled)
        cuts = sorted(rng.choice(range(1, len(block)), size=parts - 1, replace=False))
        pieces = []
        prev = 0
        for cut in list(cuts) + [len(block)]:
            pieces.append(shuffled[prev:cut])
            prev = cut
        for piece in pieces:
            if len(piece) >= 2:
                sets.append(frozenset(piece))
                split(piece)

    split(list(range(m)))
    if include_singletons:
        for i in range(m):
            sets.append(frozenset([i]))
    return LaminarFamily(range(m), set(sets))


def _base_singleton_times(
    rng: np.random.Generator,
    n: int,
    m: int,
    base_range: Tuple[int, int],
    specialist_fraction: float,
    specialist_penalty: int,
) -> List[List[int]]:
    """Integer singleton times; specialists are cheap on one machine only."""
    lo, hi = base_range
    if not 1 <= lo <= hi:
        raise InvalidInstanceError(f"bad base range {base_range}")
    times: List[List[int]] = []
    for j in range(n):
        base = int(rng.integers(lo, hi + 1))
        if rng.random() < specialist_fraction:
            home = int(rng.integers(0, m))
            row = [base * specialist_penalty] * m
            row[home] = base
        else:
            jitter = rng.integers(0, max(1, base // 4) + 1, size=m)
            row = [base + int(v) for v in jitter]
        times.append(row)
    return times


def monotone_instance(
    rng: np.random.Generator,
    family: LaminarFamily,
    n: int,
    base_range: Tuple[int, int] = (1, 20),
    overhead_range: Tuple[int, int] = (0, 3),
    flexible_fraction: float = 0.5,
    specialist_fraction: float = 0.25,
    specialist_penalty: int = 8,
) -> Instance:
    """A random instance on *family* with bottom-up monotone times.

    ``flexible_fraction`` of the jobs get zero overhead increments (flat
    profiles up their chain); the rest pay a random per-level increment from
    *overhead_range* — migration-averse jobs.
    """
    if not family.has_all_singletons:
        family = family.with_singletons()
    m = family.m
    machine_list = sorted(family.machines)
    machine_pos = {i: k for k, i in enumerate(machine_list)}
    singleton_times = _base_singleton_times(
        rng, n, m, base_range, specialist_fraction, specialist_penalty
    )
    flexible = [rng.random() < flexible_fraction for _ in range(n)]
    processing: Dict[int, Dict[frozenset, int]] = {j: {} for j in range(n)}
    for alpha in family.bottom_up():
        for j in range(n):
            if len(alpha) == 1:
                (i,) = tuple(alpha)
                processing[j][alpha] = singleton_times[j][machine_pos[i]]
            else:
                below = max(
                    processing[j][beta] for beta in family.children(alpha)
                )
                uncovered = family.uncovered(alpha)
                if uncovered:  # pragma: no cover - singletons guarantee cover
                    below = max(
                        [below]
                        + [singleton_times[j][machine_pos[i]] for i in uncovered]
                    )
                if flexible[j]:
                    increment = 0
                else:
                    increment = int(rng.integers(overhead_range[0], overhead_range[1] + 1))
                processing[j][alpha] = below + increment
    return Instance(family, processing)


def random_semi_partitioned(
    rng: np.random.Generator,
    n: int,
    m: int,
    **kwargs,
) -> Instance:
    """A random instance on the two-level family ``{M} ∪ singletons``."""
    return monotone_instance(rng, LaminarFamily.semi_partitioned(m), n, **kwargs)


def random_hierarchical(
    rng: np.random.Generator,
    n: int,
    m: int,
    split_probability: float = 0.7,
    **kwargs,
) -> Instance:
    """A random instance on a random tree family over *m* machines."""
    family = random_laminar_family(rng, m, split_probability=split_probability)
    return monotone_instance(rng, family, n, **kwargs)


def instance_from_topology(
    rng: np.random.Generator,
    topology: Topology,
    cost_model: CostModel,
    n: int,
    base_range: Tuple[int, int] = (2, 30),
    flexible_fraction: float = 0.5,
    specialist_fraction: float = 0.25,
    specialist_penalty: int = 8,
) -> Tuple[Instance, Dict[int, int]]:
    """An instance whose mask overheads are *exactly* the migration budgets.

    Returns ``(instance, base_work)`` where ``base_work[j]`` is the pure
    computation content.  ``P_j(α) = base-profile + ceil(budget(α))`` with
    ``budget`` from :func:`mask_overhead_budget`, so
    :func:`repro.simulation.engine.check_overhead_budgets` holds by
    construction for any schedule whose per-job transitions respect
    Proposition III.2's per-mask counts.
    """
    family = topology.family
    m = family.m
    machine_list = sorted(family.machines)
    machine_pos = {i: k for k, i in enumerate(machine_list)}
    singleton_times = _base_singleton_times(
        rng, n, m, base_range, specialist_fraction, specialist_penalty
    )
    flexible = [rng.random() < flexible_fraction for _ in range(n)]
    base_work: Dict[int, int] = {}
    processing: Dict[int, Dict[frozenset, Union[int, Fraction]]] = {
        j: {} for j in range(n)
    }
    for j in range(n):
        base_work[j] = min(singleton_times[j])
    for alpha in family.bottom_up():
        budget = mask_overhead_budget(topology, cost_model, alpha)
        for j in range(n):
            if len(alpha) == 1:
                (i,) = tuple(alpha)
                processing[j][alpha] = singleton_times[j][machine_pos[i]]
            else:
                below = max(processing[j][beta] for beta in family.children(alpha))
                scale = Fraction(1, 4) if flexible[j] else Fraction(1)
                processing[j][alpha] = to_fraction(below) + scale * budget
    return Instance(family, processing), base_work


def random_feasible_pair(
    rng: np.random.Generator,
    instance: Instance,
    slack_numerator: int = 0,
    slack_denominator: int = 10,
) -> Tuple[Assignment, Fraction]:
    """A uniformly random assignment plus a horizon that makes it feasible.

    Every job picks an admissible set with finite time uniformly at random;
    ``T`` is the assignment's exact minimum (Theorem IV.3), optionally
    inflated by ``1 + slack_numerator/slack_denominator`` to exercise
    schedules with idle time.  This is the workhorse of the scheduler
    property tests: any returned pair satisfies (IP-2) by construction.
    """
    masks: Dict[int, MachineSet] = {}
    for j in range(instance.n):
        choices = instance.allowed_sets(j)
        if not choices:
            raise InvalidInstanceError(f"job {j} has no admissible set")
        masks[j] = choices[int(rng.integers(0, len(choices)))]
    assignment = Assignment(masks)
    T = min_T_for_assignment(instance, assignment)
    if slack_numerator:
        T = T * (1 + Fraction(slack_numerator, slack_denominator))
    return assignment, T


def utilization_workload(
    rng: np.random.Generator,
    family: LaminarFamily,
    utilization: float,
    reference_T: int,
    overhead_range: Tuple[int, int] = (0, 2),
    flexible_fraction: float = 0.5,
    specialist_fraction: float = 0.25,
    specialist_penalty: int = 6,
    min_job: Optional[int] = None,
    max_job: Optional[int] = None,
) -> Instance:
    """An instance with total cheapest volume ≈ ``utilization · m · T_ref``.

    The workhorse of the schedulability study (experiment E15): jobs are
    drawn until the target volume is reached, job sizes between ``T_ref/8``
    and ``T_ref/2`` by default (the coarse-grain regime where scheduler
    class matters), with the usual specialist/flexible mix.
    """
    if not 0 < utilization <= 1.2:
        raise InvalidInstanceError(f"utilization {utilization} out of range")
    m = family.m
    budget = int(round(utilization * m * reference_T))
    lo = min_job if min_job is not None else max(1, reference_T // 8)
    hi = max_job if max_job is not None else max(lo, reference_T // 2)
    sizes: List[int] = []
    remaining = budget
    while remaining > 0:
        size = int(rng.integers(lo, hi + 1))
        size = min(size, remaining) if remaining >= lo else remaining
        sizes.append(max(1, size))
        remaining -= sizes[-1]

    if not family.has_all_singletons:
        family = family.with_singletons()
    machine_list = sorted(family.machines)
    machine_pos = {i: k for k, i in enumerate(machine_list)}
    n = len(sizes)
    flexible = [rng.random() < flexible_fraction for _ in range(n)]
    processing: Dict[int, Dict[frozenset, int]] = {j: {} for j in range(n)}
    singleton_times: List[List[int]] = []
    for j, base in enumerate(sizes):
        if rng.random() < specialist_fraction:
            home = int(rng.integers(0, m))
            row = [min(base * specialist_penalty, base + reference_T)] * m
            row[home] = base
        else:
            row = [base] * m
        singleton_times.append(row)
    for alpha in family.bottom_up():
        for j in range(n):
            if len(alpha) == 1:
                (i,) = tuple(alpha)
                processing[j][alpha] = singleton_times[j][machine_pos[i]]
            else:
                below = max(processing[j][beta] for beta in family.children(alpha))
                increment = 0 if flexible[j] else int(
                    rng.integers(overhead_range[0], overhead_range[1] + 1)
                )
                processing[j][alpha] = below + increment
    return Instance(family, processing)

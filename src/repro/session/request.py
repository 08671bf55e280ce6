"""Canonical solve requests — the addressing half of the session layer.

A :class:`SolveRequest` is a hashable, canonical description of *what is
being solved*: ``(algorithm, instance, params)``.  Its content key (plus the
code fingerprint) addresses one slot in the :class:`~repro.session.cache.
SolveCache`; two requests built from equal instances and equal params — in
any process, any order, any ``--jobs`` — produce the same key, which is the
property batch analysis services in the pycpa tradition build their
memoization on.

The instance signature serializes the full mathematical content of an
:class:`~repro.core.instance.Instance` — machine set, laminar family, and
the exact processing-time table (Fractions tagged, ``INF`` preserved) — via
:mod:`repro.session.canon`, so two structurally equal instances hash equal
even when constructed through different code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from .._fraction import is_inf
from ..core.instance import Instance
from .canon import canonical_json, code_fingerprint, content_key

#: Bucket-name prefix of every session entry.  A store directory can hold
#: sweep experiment buckets and session buckets side by side; sweep reports
#: tell them apart by this prefix.
SESSION_BUCKET_PREFIX = "solve-"


def instance_signature(instance: Instance) -> Dict[str, Any]:
    """The canonical JSON-ready description of *instance*.

    Sets are emitted as sorted machine lists in a deterministic (size,
    lexicographic) order; each job's processing row lists one entry per
    family set in that same order, with ``INF`` encoded as ``null`` (a pair
    the job may not use) and finite times as exact cells.
    """
    sets: List[List[int]] = sorted(
        (sorted(alpha) for alpha in instance.family.sets),
        key=lambda s: (len(s), s),
    )
    processing = []
    for j in range(instance.n):
        row = []
        for machines in sets:
            p = instance.p(j, frozenset(machines))
            row.append(None if is_inf(p) else p)
        processing.append(row)
    return {
        "machines": sorted(instance.machines),
        "family": sets,
        "processing": processing,
    }


@dataclass(frozen=True)
class SolveRequest:
    """One canonical, content-addressable unit of solver work.

    ``algorithm`` names the entry point (``"minimal_fractional_T"``,
    ``"two_approximation"``, ``"template"``, …); ``params`` holds every
    input that changes the answer — including the backend, so
    results solved under different solver configurations occupy distinct
    cache slots and each reproduces its own bytes exactly.
    """

    algorithm: str
    instance: Instance
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def bucket(self) -> str:
        """Cache bucket name — namespaced so ``repro report`` never
        mistakes session entries for sweep experiment results."""
        return SESSION_BUCKET_PREFIX + self.algorithm

    def canonical(self) -> Dict[str, Any]:
        """The canonical JSON-ready form (before hashing)."""
        return {
            "algorithm": self.algorithm,
            "instance": instance_signature(self.instance),
            "params": dict(self.params),
        }

    def key(self, fingerprint: Optional[str] = None) -> str:
        """Content key of this request under *fingerprint* (default: the
        current :func:`~repro.session.canon.code_fingerprint`)."""
        return content_key(
            self.bucket,
            canonical_json(self.canonical()),
            fingerprint or code_fingerprint(),
        )

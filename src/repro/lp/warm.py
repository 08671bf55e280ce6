"""WarmState: the cross-solve basis artifact of the exact LP stack.

PR 4 made consecutive solves share *points* and Farkas certificates; the
expensive artifact — the factorized basis — still died inside each solve.
:class:`WarmState` is that artifact made first-class: the final
:class:`~repro.lp.basis.LUBasis`, the basic set (as stable *labels*, not
raw column indices) and the optimal vertex, packaged so it can travel
between binary-search probes, the min-T re-solve, memory-model probes and
iterative-rounding iterations.

Labels
------
Basis membership is recorded per basis position as ``(kind, payload)``:

``("x", i)``
    structural variable — *payload* is the column index in the producing
    LP's variable space (or an arbitrary hashable key after
    :meth:`relabel`, e.g. an ``LinearProgram`` variable key),
``("s", r)``
    the slack of row *r*,
``("a", r)``
    the artificial of row *r* (only basic at level zero in an optimal
    basis — redundant rows).

A consumer resolves labels against *its* standard form; any label that
does not resolve marks the state **stale** and the solver falls back to
the point-based warm start (and from there to a cold start).  Slack and
artificial labels are positional — after row masking/reordering they may
point at different rows — but that is harmless: the resolved basis is
either singular/infeasible (rejected exactly) or a *legal* feasible basis,
and phase-2 correctness never depends on which feasible basis starts it.

Verbatim ``W`` reuse
--------------------
Reinstalling the carried ``W`` without refactorizing is only sound when
the consumer's basis columns are **identical** (same coefficients, same
row scaling) to the producer's — feasibility checks alone cannot validate
``W`` as the inverse of the new columns.  The ``token`` field carries an
opaque structure witness chosen by the producer's caller (e.g. the
``_ProbeSession`` instance whose masked templates guarantee identical
columns); :mod:`repro.lp.revised` installs ``W`` verbatim only when the
consumer presents an equal token *and* the row scales match, and otherwise
refactorizes the labelled columns directly (``O(m³)``, self-validating).

Process locality
----------------
A ``WarmState`` is ephemera: it aliases live kernel state and must never
be serialized into session-cache payloads or sweep stores (cached results
stay byte-compatible with stores written before this class existed).
Pickling therefore raises ``TypeError``, and
:mod:`repro.session.canon` rejects it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .basis import LUBasis

#: Basis-position label: ("x", payload) | ("s", row) | ("a", row).
Label = Tuple[str, object]


class WarmState:
    """Carried solver state (see module docstring).

    ``labels``
        one label per basis position (length ``m``).
    ``m`` / ``n``
        row / structural-variable counts of the producing standard form.
    ``scales``
        the per-row integer scaling the producer applied (lcm of row and
        rhs denominators); verbatim ``W`` reuse requires equality.
    ``lub``
        the factorized basis, or ``None`` when only labels/point are
        carried (e.g. states built by hand); a consumer then factorizes the
        labelled columns itself.
    ``token``
        opaque structure witness for verbatim reuse (compared with ``==``).
    ``point``
        sparse optimal vertex ``{structural payload: Fraction}`` (nonzeros
        only) — doubles as the point-based warm start when the basis is
        stale.
    """

    __slots__ = ("labels", "m", "n", "scales", "lub", "token", "point")

    def __init__(
        self,
        labels: Sequence[Label],
        m: int,
        n: int,
        scales: Tuple[int, ...],
        lub: Optional[LUBasis] = None,
        token: object = None,
        point: Optional[Dict[object, Fraction]] = None,
    ):
        self.labels = tuple(labels)
        self.m = m
        self.n = n
        self.scales = tuple(scales)
        self.lub = lub
        self.token = token
        self.point = dict(point) if point else {}

    # -- process locality ------------------------------------------------

    def __reduce__(self):
        raise TypeError(
            "WarmState is process-local solver ephemera and must never be "
            "pickled or serialized into cache payloads"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WarmState(m={self.m}, n={self.n}, "
            f"basic={[l for l in self.labels]!r}, "
            f"lub={'yes' if self.lub is not None else 'no'})"
        )

    # -- relabeling ------------------------------------------------------

    def relabel(
        self, mapper: Callable[[object], object], new_n: Optional[int] = None
    ) -> Optional["WarmState"]:
        """Map every structural payload through *mapper*; ``None`` = stale.

        *mapper* returns the new payload for an old structural payload, or
        ``None`` when the variable does not exist in the target space.  A
        **basic** structural that does not map makes the whole state stale
        (the basis cannot be resolved), so ``None`` is returned; unmapped
        *point* entries are merely dropped (they are warm-start hints, and
        the caller's ``_warm_point`` accounting covers diagnostics).

        Slack/artificial labels pass through unchanged — their row indices
        are positional and re-resolved by the consumer.  ``token`` is
        dropped: a relabelled state no longer witnesses column identity.
        """
        labels: list = []
        for kind, payload in self.labels:
            if kind != "x":
                labels.append((kind, payload))
                continue
            mapped = mapper(payload)
            if mapped is None:
                return None
            labels.append(("x", mapped))
        point: Dict[object, Fraction] = {}
        for payload, value in self.point.items():
            mapped = mapper(payload)
            if mapped is not None:
                point[mapped] = value
        return WarmState(
            labels,
            self.m,
            self.n if new_n is None else new_n,
            self.scales,
            lub=self.lub,
            token=None,
            point=point,
        )

    def relabel_dict(
        self, mapping: Dict[object, object], new_n: Optional[int] = None
    ) -> Optional["WarmState"]:
        """:meth:`relabel` through a plain dict (missing keys = stale)."""
        return self.relabel(mapping.get, new_n=new_n)

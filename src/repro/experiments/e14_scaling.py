"""E14 — runtime scaling of the Theorem V.2 pipeline.

The paper claims polynomial time; this experiment records wall-clock of the
full 2-approximation (binary search + LP + rounding + scheduling) across
instance sizes and both LP backends (``exact`` and ``hybrid``), so
regressions in the solver stack are visible.  (pytest-benchmark provides the
statistically careful timing; the table here reports single-run times for
orientation.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from ..analysis import Table
from ..obs.trace import suspended
from ..session import Session
from ..workloads import random_hierarchical, rng_from_seed


@dataclass
class E14Row:
    n: int
    m: int
    backend: str
    seconds: float
    ratio_vs_lp: float


@dataclass
class E14Result:
    rows: List[E14Row]
    table: Table


def run(
    shapes=((6, 3), (10, 4), (16, 6), (24, 8)),
    backends=("exact", "hybrid"),
    seed: int = 140,
) -> E14Result:
    """Time the full 2-approximation across sizes and LP backends."""
    rows: List[E14Row] = []
    for n, m in shapes:
        for backend in backends:
            # cache=False: a timing experiment must measure the cold solve —
            # a warm cache hit would report the store's read latency instead.
            session = Session(backend=backend, cache=False)
            rng = rng_from_seed(seed)  # same instances per backend
            inst = random_hierarchical(rng, n=n, m=m)
            # suspended(): the timed region must not pay span bookkeeping —
            # E14 stays trace-off by design even under `--trace`.
            with suspended():
                start = time.perf_counter()
                result = session.two_approximation(inst)
                elapsed = time.perf_counter() - start
            rows.append(
                E14Row(
                    n=n,
                    m=m,
                    backend=backend,
                    seconds=elapsed,
                    ratio_vs_lp=float(result.ratio_vs_lp),
                )
            )
    table = Table(
        "E14 — 2-approximation runtime scaling",
        ["n", "m", "backend", "seconds", "ratio vs T*"],
    )
    for r in rows:
        table.add_row(r.n, r.m, r.backend, r.seconds, r.ratio_vs_lp)
    return E14Result(rows=rows, table=table)

from ..runner.registry import ExperimentSpec, register

#: ``seconds`` is wall-clock — masked in the sweep store (the executor
#: records its own per-task timing in the index), keeping payloads
#: bit-reproducible across ``--jobs`` settings and machines.
SPEC = register(ExperimentSpec(
    id="e14",
    run=run,
    cli_params=dict(shapes=((6, 3), (10, 4))),
    space=dict(shapes=(((6, 3),), ((10, 4),))),
    volatile_columns=("seconds",),
))

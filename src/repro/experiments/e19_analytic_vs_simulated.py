"""E19 — analytic bounds vs exact truth: the phase diagram of decidability.

The RTA engine (:mod:`repro.rta`) answers schedulability in polynomial time
with three-valued verdicts; the exact branch-and-bound
(:func:`repro.baselines.restrictions.exact_schedulable_within`) answers it
completely.  This experiment sweeps utilization × scheduler class ×
topology and measures **where the analytic bounds decide** — the
tightness phase diagram:

* at low utilization the constructive side (FFD / semi-federated packing)
  finds a witness almost always → SCHEDULABLE everywhere;
* past utilization 1 the demand bounds refute almost always →
  UNSCHEDULABLE everywhere;
* the interesting band is the boundary, where greedy packing fails but no
  necessary bound is violated → UNKNOWN, the honest gap the exact solve
  (or simulation) still has to cover.

Soundness is *enforced*, not measured: every decided verdict is compared
against the exact solve and any disagreement raises
:class:`~repro.exceptions.AnalyticSoundnessError` — a sweep that completes
is a machine-checked soundness proof over its whole grid, which is how CI
pins the acceptance criterion.

Reproducibility: the workload of trial *t* is derived from
``(seed, "e19", topology, u, t)`` — independent of the scheduler-class
axis — so every class judges the *same* workloads and a sweep task
covering a subset of classes produces rows byte-identical to the serial
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import Table
from ..baselines.restrictions import SCHEDULER_CLASSES, exact_schedulable_within
from ..exceptions import AnalyticSoundnessError
from ..rta import SCHEDULABLE, UNKNOWN, UNSCHEDULABLE, analytic_schedulable
from ..workloads import derive_seed, rng_from_seed
from ..workloads.families import make_topology
from ..workloads.generators import utilization_workload


@dataclass
class E19Row:
    topology: str
    scheduler_class: str
    utilization: float
    trials: int
    exact_schedulable: int
    """Trials the exact solve accepts — the ground truth."""

    analytic_schedulable: int
    analytic_unschedulable: int
    unknown: int
    decided: Fraction
    """``(SCHEDULABLE + UNSCHEDULABLE) / trials`` — bound tightness."""


@dataclass
class E19Result:
    rows: List[E19Row]
    table: Table

    def row(
        self, topology: str, scheduler_class: str, utilization: float
    ) -> Optional[E19Row]:
        for r in self.rows:
            if (
                r.topology == topology
                and r.scheduler_class == scheduler_class
                and abs(r.utilization - utilization) < 1e-12
            ):
                return r
        return None

    @property
    def unknown_total(self) -> int:
        return sum(r.unknown for r in self.rows)

    @property
    def sound(self) -> bool:
        """Always ``True`` for a result that exists: disagreement raises."""
        return True


def run(
    utilizations: Sequence[float] = (0.5, 0.8, 0.95),
    scheduler_classes: Sequence[str] = SCHEDULER_CLASSES,
    topologies: Sequence[str] = ("flat4",),
    T_ref: int = 20,
    trials: int = 3,
    seed: int = 190,
) -> E19Result:
    """Analytic verdict vs exact truth over the sweep grid.

    Raises :class:`AnalyticSoundnessError` on the first decided verdict
    that disagrees with the exact solve.
    """
    counts: Dict[Tuple[str, str, float], Dict[str, int]] = {}
    for topo_name in topologies:
        topology = make_topology(topo_name)
        for u in utilizations:
            for trial in range(trials):
                # Workload seed excludes the class axis: every class (and
                # every class-subset sweep task) judges identical draws.
                trial_seed = derive_seed(seed, "e19", topo_name, str(u), trial)
                inst = utilization_workload(
                    rng_from_seed(trial_seed), topology.family, u, T_ref
                )
                for cls in scheduler_classes:
                    verdict = analytic_schedulable(inst, cls, T_ref)
                    truth = exact_schedulable_within(inst, cls, T_ref)
                    if verdict.status == SCHEDULABLE and not truth:
                        raise AnalyticSoundnessError(
                            f"analytic SCHEDULABLE but exact refutes: "
                            f"{topo_name}/{cls}/u={u}/trial={trial} "
                            f"({verdict.reason})"
                        )
                    if verdict.status == UNSCHEDULABLE and truth:
                        raise AnalyticSoundnessError(
                            f"analytic UNSCHEDULABLE but exact witnesses: "
                            f"{topo_name}/{cls}/u={u}/trial={trial} "
                            f"({verdict.reason})"
                        )
                    c = counts.setdefault(
                        (topo_name, cls, float(u)),
                        {"exact": 0, "s": 0, "u": 0, "unk": 0},
                    )
                    c["exact"] += 1 if truth else 0
                    c["s"] += 1 if verdict.status == SCHEDULABLE else 0
                    c["u"] += 1 if verdict.status == UNSCHEDULABLE else 0
                    c["unk"] += 1 if verdict.status == UNKNOWN else 0

    rows: List[E19Row] = []
    for topo_name in topologies:
        for cls in scheduler_classes:
            for u in utilizations:
                c = counts[(topo_name, cls, float(u))]
                rows.append(
                    E19Row(
                        topology=topo_name,
                        scheduler_class=cls,
                        utilization=float(u),
                        trials=trials,
                        exact_schedulable=c["exact"],
                        analytic_schedulable=c["s"],
                        analytic_unschedulable=c["u"],
                        unknown=c["unk"],
                        decided=Fraction(c["s"] + c["u"], trials),
                    )
                )
    table = Table(
        f"E19 — analytic verdicts vs exact truth (T_ref={T_ref}, "
        f"soundness-checked on every trial)",
        [
            "topology", "class", "utilization", "trials", "exact yes",
            "SCHED", "UNSCHED", "UNKNOWN", "decided",
        ],
    )
    for r in rows:
        table.add_row(
            r.topology, r.scheduler_class, r.utilization, r.trials,
            r.exact_schedulable, r.analytic_schedulable,
            r.analytic_unschedulable, r.unknown, r.decided,
        )
    return E19Result(rows=rows, table=table)


from ..runner.registry import ExperimentSpec, register

#: Sweep surface: (class group) × (topology) tasks; the utilization axis
#: accumulates inside each task.  Workload seeds are class-independent, so
#: the sharded rows equal the serial ones byte-for-byte.
SPEC = register(ExperimentSpec(
    id="e19",
    run=run,
    cli_params=dict(
        utilizations=(0.6, 0.95),
        scheduler_classes=("global", "partitioned", "hierarchical"),
        topologies=("flat4",),
        trials=2,
    ),
    space=dict(
        utilizations=((0.5, 0.8, 0.95),),
        scheduler_classes=(
            ("global", "partitioned"),
            ("semi", "clustered", "hierarchical"),
        ),
        topologies=(("flat4",), ("clustered4x2",)),
        T_ref=(20,),
        trials=(3,),
    ),
))

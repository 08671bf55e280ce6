"""E18 — online arrivals: admission-driven execution of the template schedules.

The paper's algorithms build one wrap-around template per planning window;
the semi-partitioned literature it draws on (Bastoni–Brandenburg–Anderson
for the evaluation discipline, the sporadic task model for the arrival
side) asks the *online* question: when job instances actually arrive —
synchronously, in bursts, with release jitter, sporadically — how do
response times, deadline misses and migration overhead behave as the
workload's utilization grows?

Per (topology, arrival family, utilization) this experiment

1. draws a volume-controlled workload (the E15 generator) and builds the
   hierarchical wrap-around template for the fixed planning window
   ``T_ref`` (the E15 witness machinery: ``find_assignment_within`` +
   Algorithms 2+3) — at high utilization the template genuinely wraps
   past ``T`` and migrates inside non-singleton masks,
2. generates the family's arrival stream over ``windows`` windows with
   period ``T = T_ref`` and implicit deadlines scaled by
   ``deadline_factor``,
3. runs the admission layer (:func:`repro.simulation.admission.admit`) and
   reports exact miss ratios, response times normalized by ``T``, leftover
   backlog and distance-priced migration overhead.

The emergent phase diagram: at low utilization templates rarely wrap, so
implicit deadlines hold; as utilization → 1 more jobs wrap past ``T`` and
complete in the next window — response ``> T`` — so the miss ratio climbs
exactly where offline schedulability (E15) still says "fits".  Offsets,
jitter and sporadic slack add the waiting-time term on top.  A
``deadline_factor`` of 2 absorbs the wrap (the constructions never need
more than one extra window), which the sweep exposes as a miss cliff
moving, not vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from ..analysis import Table
from ..exceptions import SolverError
from ..schedule.validator import check_releases
from ..session import Session
from ..simulation.admission import admit, witness_within
from ..simulation.costs import CostModel
from ..workloads import derive_seed, rng_from_seed
from ..workloads.families import make_arrivals, make_topology
from ..workloads.generators import utilization_workload

Num = Union[int, float, Fraction]


@dataclass
class E18Row:
    topology: str
    family: str
    utilization: float
    trials: int
    infeasible: int
    """Trials whose workload has no hierarchical witness within ``T_ref``
    (no template to admit into — offline inadmissibility)."""

    solver_errors: int
    """Trials the exact witness search abandoned (node limit) — reported
    separately, never miscounted as offline inadmissibility."""

    admitted: int
    misses: int
    miss_ratio: Optional[Fraction]
    mean_response_over_T: Optional[Fraction]
    max_response_over_T: Optional[Fraction]
    pending: int
    """Instances still queued when the simulation horizon ended."""

    max_backlog: int
    priced_overhead: Fraction
    """Total distance-priced migration overhead across admitted instances."""

    schedulable_trials: int
    """Trials with zero misses and zero leftover backlog."""


@dataclass
class E18Result:
    rows: List[E18Row]
    table: Table

    def row(self, topology: str, family: str, utilization: float) -> Optional[E18Row]:
        for r in self.rows:
            if (
                r.topology == topology
                and r.family == family
                and abs(r.utilization - utilization) < 1e-12
            ):
                return r
        return None


def run(
    utilizations: Sequence[float] = (0.5, 0.8, 0.95),
    arrival_families: Sequence[str] = ("synchronous", "jittered"),
    topologies: Sequence[str] = ("flat4",),
    windows: int = 4,
    T_ref: int = 12,
    trials: int = 2,
    deadline_factor: Num = 1,
    seed: int = 180,
    prefilter: bool = False,
) -> E18Result:
    """Sweep utilization × arrival family × topology through admission.

    Every trial's template is the hierarchical wrap-around schedule of a
    fresh volume-controlled workload for the fixed window ``T_ref``;
    release feasibility of the materialized timeline is re-checked exactly
    on every trial (a violation would be a bug, so it raises rather than
    being tabulated).

    With *prefilter* the analytic RTA engine screens each workload before
    the exact witness search (:func:`repro.simulation.admission.
    witness_within`): rows are provably identical either way — the
    pre-filter only rejects workloads the search would also reject — so
    the flag trades nothing but wall-clock (pinned by the test suite).
    """
    if windows < 2:
        raise ValueError("need ≥ 2 windows for a meaningful admission run")
    deadline_factor = Fraction(deadline_factor)
    if deadline_factor <= 0:
        raise ValueError("deadline_factor must be positive")
    cost_model = CostModel.numa_like()
    session = Session()  # templates cache across repeat runs with --cache
    rows: List[E18Row] = []
    for topo_name in topologies:
        topology = make_topology(topo_name)
        for family_name in arrival_families:
            for u in utilizations:
                admitted = misses = pending = backlog = 0
                schedulable_trials = infeasible = solver_errors = 0
                response_sum = Fraction(0)
                response_max: Optional[Fraction] = None
                overhead = Fraction(0)
                done_trials = 0
                for trial in range(trials):
                    trial_seed = derive_seed(
                        seed, "e18", topo_name, family_name, str(u), trial
                    )
                    rng = rng_from_seed(trial_seed)
                    instance = utilization_workload(
                        rng, topology.family, u, T_ref
                    )
                    ext = instance.with_singletons()
                    try:
                        witness = witness_within(
                            ext, T_ref, prefilter=prefilter
                        )
                    except SolverError:
                        # "The search gave up" is not "infeasible": count
                        # it separately so overload curves stay honest.
                        solver_errors += 1
                        continue
                    if witness is None:
                        infeasible += 1
                        continue
                    template = session.template(ext, witness, T_ref)
                    T = template.T
                    model = make_arrivals(
                        family_name, trial_seed, instance.n, T
                    )
                    if deadline_factor != 1:
                        # Scale implicit deadlines uniformly: rebuild each
                        # arrival with the stretched relative deadline.
                        stream = [
                            type(a)(
                                job=a.job,
                                index=a.index,
                                release=a.release,
                                deadline=a.release
                                + deadline_factor * (a.deadline - a.release),
                            )
                            for a in model.arrivals_until(windows * T)
                        ]
                    else:
                        stream = model.arrivals_until(windows * T)
                    result = admit(
                        template, stream, windows,
                        topology=topology, cost_model=cost_model,
                    )
                    violations = check_releases(
                        result.schedule, result.releases()
                    )
                    if violations:  # pragma: no cover - would be a bug
                        raise AssertionError(
                            f"admission broke release feasibility: {violations[0]}"
                        )
                    done_trials += 1
                    admitted += len(result.admitted)
                    misses += result.miss_count
                    pending += len(result.pending)
                    backlog = max(backlog, result.max_backlog)
                    if result.schedulable:
                        schedulable_trials += 1
                    for inst in result.admitted:
                        scaled = inst.response_time / T
                        response_sum += scaled
                        if response_max is None or scaled > response_max:
                            response_max = scaled
                        overhead += inst.priced_overhead
                rows.append(
                    E18Row(
                        topology=topo_name,
                        family=family_name,
                        utilization=float(u),
                        trials=done_trials,
                        infeasible=infeasible,
                        solver_errors=solver_errors,
                        admitted=admitted,
                        misses=misses,
                        miss_ratio=(
                            Fraction(misses, admitted) if admitted else None
                        ),
                        mean_response_over_T=(
                            response_sum / admitted if admitted else None
                        ),
                        max_response_over_T=response_max,
                        pending=pending,
                        max_backlog=backlog,
                        priced_overhead=overhead,
                        schedulable_trials=schedulable_trials,
                    )
                )
    table = Table(
        "E18 — online arrivals: miss ratio / response under admission",
        [
            "topology", "family", "utilization", "infeasible",
            "solver errors", "admitted", "misses", "miss ratio",
            "mean resp/T", "max resp/T", "pending", "backlog",
            "priced overhead", "schedulable",
        ],
    )
    for r in rows:
        table.add_row(
            r.topology, r.family, r.utilization, r.infeasible,
            r.solver_errors, r.admitted, r.misses, r.miss_ratio,
            r.mean_response_over_T, r.max_response_over_T, r.pending,
            r.max_backlog, r.priced_overhead,
            f"{r.schedulable_trials}/{r.trials}",
        )
    return E18Result(rows=rows, table=table)


from ..runner.registry import ExperimentSpec, register

#: One sweep task per (arrival-family group, topology); the utilization axis
#: accumulates inside each task, so `repro sweep e18 --jobs 2` splits the
#: zoo across workers and `repro report` reassembles the phase diagram.
SPEC = register(ExperimentSpec(
    id="e18",
    run=run,
    cli_params=dict(
        utilizations=(0.6, 0.95),
        arrival_families=("synchronous", "jittered"),
        topologies=("flat4",),
        trials=1,
    ),
    space=dict(
        utilizations=((0.5, 0.8, 0.95),),
        arrival_families=(
            ("synchronous", "jittered"),
            ("bursty", "harmonic"),
            ("sporadic",),
        ),
        topologies=(("flat4",), ("clustered4x2",)),
        windows=(4,),
        trials=(2,),
    ),
))

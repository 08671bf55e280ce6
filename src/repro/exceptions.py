"""Typed exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors (``TypeError``,
``KeyError`` and friends are never wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidFamilyError(ReproError):
    """The admissible-set family is not a valid laminar family."""


class MonotonicityError(ReproError):
    """Processing times violate the monotonicity requirement of the model.

    The paper requires ``α ⊆ β  ⇒  P_j(α) ≤ P_j(β)`` for all admissible sets:
    running a job on a larger machine set can only add (migration) overhead.
    """


class InvalidInstanceError(ReproError):
    """The problem instance is structurally malformed."""


class InvalidAssignmentError(ReproError):
    """An assignment violates the ILP constraints it is checked against."""


class InfeasibleError(ReproError):
    """The requested (sub)problem admits no feasible solution."""


class InvalidScheduleError(ReproError):
    """A schedule violates the validity conditions of Section II."""


class ScheduleValidationError(InvalidScheduleError):
    """Structured form of a failed validation.

    Raised by :meth:`repro.schedule.validator.ValidationReport.raise_if_invalid`
    with the full violation list attached, so callers can inspect *which*
    job/piece/time broke *which* condition instead of parsing a message.
    ``violations`` holds the :class:`~repro.schedule.validator.ScheduleViolation`
    dataclasses; each has structured ``job``/``machine``/``start``/``end``/
    ``limit`` fields next to its rendered ``detail``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        msgs = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid schedule: {msgs}")

    def __reduce__(self):
        # Keep the structure across pickling (sweep workers raise through a
        # process pool) — the default reduce would re-init with the message.
        return (self.__class__, (self.violations,))


class SolverError(ReproError):
    """An LP/ILP solver failed or returned an unusable status."""


class AnalyticSoundnessError(ReproError):
    """An analytic verdict disagreed with the exact solve (or produced an
    unverifiable witness).

    The RTA engine's decided verdicts are supposed to be sound by
    construction — SCHEDULABLE comes with a capacity-verified assignment,
    UNSCHEDULABLE with a violated necessary bound — so any disagreement is
    a bug in the bounds, never a statistical fluctuation.  Experiment E19
    raises this instead of tabulating the disagreement, which is what lets
    CI enforce soundness by simply running the sweep.
    """


class PivotLimitError(SolverError):
    """The simplex exceeded its pivot budget.

    Structured so callers (and retry logic) can see *where* the budget went
    instead of parsing a message: ``budget`` is the configured cap,
    ``pivots`` the count reached, ``phase`` which simplex phase was running
    (``1`` or ``2``).  With the anti-cycling Bland rule active the budget
    can only be exhausted by a genuinely enormous program or a bug, never
    by cycling.
    """

    def __init__(self, budget: int, pivots: int, phase: int):
        self.budget = budget
        self.pivots = pivots
        self.phase = phase
        super().__init__(
            f"simplex exceeded the pivot budget in phase {phase}: "
            f"{pivots} pivots > budget {budget}"
        )

    def __reduce__(self):
        # Mirror RoundingCertificationError: keep the structure across
        # pickling (sweep workers raise through a process pool).
        return (self.__class__, (self.budget, self.pivots, self.phase))


class TaskBudgetError(ReproError):
    """A sweep task exceeded one of its :class:`~repro.runner.budget.TaskBudget`
    limits.

    Structured so the retry/ledger machinery can act on *which* budget went
    — ``kind`` is ``"wall"`` (driver-enforced deadline), ``"pivots"``
    (simplex pivot budget, converted from :class:`PivotLimitError`) or
    ``"memory"`` (in-worker tracemalloc guard); ``limit`` is the configured
    budget and ``observed`` what the task reached, both in the kind's
    natural unit (seconds / pivots / MiB).
    """

    KINDS = ("wall", "pivots", "memory")

    def __init__(self, kind: str, limit, observed, detail: str = ""):
        if kind not in self.KINDS:
            raise ValueError(f"unknown budget kind {kind!r}")
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.detail = detail
        unit = {"wall": "s", "pivots": " pivots", "memory": "MiB"}[kind]
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"task exceeded its {kind} budget: "
            f"{observed}{unit} > {limit}{unit}{suffix}"
        )

    def __reduce__(self):
        # Keep the structure across pickling (sweep workers raise through a
        # process pool) — the default reduce would re-init with the message.
        return (self.__class__, (self.kind, self.limit, self.observed, self.detail))


class WorkerCrashError(ReproError):
    """A sweep worker process died mid-task (SIGKILL, OOM, segfault).

    Synthesized by the driver when the process pool breaks: the worker
    itself left no exception behind, so this is what the failure ledger
    records for the task(s) charged with the crash.
    """


class RoundingError(ReproError):
    """A rounding procedure could not establish its guarantee."""


class RoundingCertificationError(RoundingError):
    """An integral rounding violated its certified per-row usage limits.

    Raised by :func:`repro.rounding.iterative.iterative_round` when the
    achieved usage of some packing row exceeds the limit the drop rules
    certified for it (``(1+ρ)·b`` for weight-rule and fallback drops).
    ``violations`` maps each offending row name to
    ``(achieved usage, certified limit, original bound)``; ``result`` holds
    the uncertified :class:`~repro.rounding.iterative.IterativeRoundingResult`
    for inspection.
    """

    def __init__(self, violations, result=None):
        self.violations = dict(violations)
        self.result = result
        listed = ", ".join(
            f"{name}: usage {usage} > limit {limit} (b={bound})"
            for name, (usage, limit, bound) in sorted(self.violations.items())
        )
        super().__init__(
            f"rounding violated certified row limits — {listed}"
        )

    def __reduce__(self):
        # args holds the rendered message, so the default reduce would
        # re-call __init__(message) on unpickle and lose the structure —
        # and a sweep worker raising this across the process pool would
        # surface a bogus ValueError instead of the violations.
        return (self.__class__, (self.violations, self.result))

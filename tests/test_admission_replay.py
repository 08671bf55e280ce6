"""The near-linear admission replay: bisect timeline inserts, the one-pass
per-job grouping, and the per-batch shared window replay.

Each part is pinned against the slower code it replaced: a linear-scan
timeline, per-job ``job_segments`` scans, and per-stream ``admit`` calls.
"""

import copy
import functools
import random
from fractions import Fraction

import pytest

from repro.core.hierarchical import schedule_hierarchical
from repro.exceptions import InvalidScheduleError, SolverError
from repro.schedule.schedule import Schedule
from repro.schedule.segments import MachineTimeline, Segment
from repro.schedule.serialize import schedule_to_dict
from repro.simulation.admission import WindowReplay, admit, admit_batch, witness_within
from repro.simulation.costs import CostModel
from repro.workloads import derive_seed, rng_from_seed
from repro.workloads.families import ARRIVAL_FAMILIES, make_arrivals, make_topology
from repro.workloads.generators import utilization_workload


class _LinearTimeline:
    """Reference timeline: scan every segment for an overlap, then re-sort."""

    def __init__(self, machine):
        self.machine = machine
        self.segments = []

    def add(self, segment):
        for existing in self.segments:
            if existing.overlaps(segment):
                raise InvalidScheduleError(
                    f"machine {self.machine}: segment {segment} overlaps {existing}"
                )
        self.segments.append(segment)
        self.segments.sort()


def _outcome(timeline, segment):
    try:
        timeline.add(segment)
    except InvalidScheduleError as exc:
        return str(exc)
    return None


def _replay(inserts):
    """Insert into both timelines; assert same outcome and order each step."""
    fast, slow = MachineTimeline(3), _LinearTimeline(3)
    outcomes = []
    for seg in inserts:
        got, want = _outcome(fast, seg), _outcome(slow, seg)
        assert got == want
        assert list(fast.segments) == slow.segments
        outcomes.append(got)
    return outcomes


class TestBisectTimeline:
    def test_back_to_back_accepted_on_both_sides(self):
        outcomes = _replay(
            [Segment(2, 4, 0), Segment(4, 5, 1), Segment(1, 2, 2), Segment(0, 1, 3)]
        )
        assert outcomes == [None] * 4

    @pytest.mark.parametrize(
        "segment, blocker",
        [
            (Segment(3, 5, 9), Segment(2, 4, 0)),  # predecessor only
            (Segment(5, 7, 9), Segment(6, 8, 1)),  # successor only
            (Segment(3, 7, 9), Segment(2, 4, 0)),  # both: predecessor named
            (Segment(6, 7, 9), Segment(6, 8, 1)),  # same start as existing
            (Segment(1, 9, 9), Segment(2, 4, 0)),  # contains both existing
            (Segment(Fraction(5, 2), 3, 9), Segment(2, 4, 0)),  # contained
        ],
    )
    def test_overlap_names_first_blocker(self, segment, blocker):
        outcomes = _replay([Segment(2, 4, 0), Segment(6, 8, 1), segment])
        assert outcomes == [
            None, None, f"machine 3: segment {segment} overlaps {blocker}"
        ]

    def test_overlap_message_text(self):
        tl = MachineTimeline(3)
        tl.add(Segment(2, 4, 0))
        with pytest.raises(InvalidScheduleError) as exc:
            tl.add(Segment(3, 5, 9))
        assert str(exc.value) == (
            "machine 3: segment Segment(start=Fraction(3, 1), "
            "end=Fraction(5, 1), job=9) overlaps "
            "Segment(start=Fraction(2, 1), end=Fraction(4, 1), job=0)"
        )
        assert list(tl.segments) == [Segment(2, 4, 0)]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_fraction_inserts_match_linear_scan(self, seed):
        rng = random.Random(seed)
        inserts = []
        for job in range(60):
            start = Fraction(rng.randrange(0, 48), rng.choice((1, 2, 3, 4)))
            length = Fraction(rng.randrange(1, 12), rng.choice((1, 2, 4)))
            inserts.append(Segment(start, start + length, job))
        outcomes = _replay(inserts)
        # The draw mixes accepted and rejected inserts.
        assert None in outcomes and any(o is not None for o in outcomes)


def _e18_template(seed, topology_name, u, T_ref=12):
    """A seeded E18-style template, or None when the witness search finds
    none within a small node budget."""
    topology = make_topology(topology_name)
    ext = utilization_workload(
        rng_from_seed(seed), topology.family, u, T_ref
    ).with_singletons()
    try:
        witness = witness_within(ext, T_ref, node_limit=5_000)
    except SolverError:
        return None, None
    if witness is None:
        return None, None
    return ext, schedule_hierarchical(ext, witness, T_ref)


@functools.lru_cache(maxsize=None)
def _e18_templates(count, topology_name="flat4", u=0.95):
    found = []
    for trial in range(64):
        seed = derive_seed(180, "replay", topology_name, str(u), trial)
        ext, template = _e18_template(seed, topology_name, u)
        if template is not None:
            found.append((seed, ext, template))
        if len(found) == count:
            return tuple(found)
    raise AssertionError("too few seeded templates")


class TestSegmentsByJob:
    @pytest.mark.parametrize("u", [0.5, 0.95])
    def test_matches_job_segments_on_hierarchical_schedules(self, u):
        for _seed, _ext, template in _e18_templates(3, u=u):
            by_job = template.segments_by_job()
            assert set(by_job) == set(template.jobs())
            for job in template.jobs():
                assert by_job[job] == template.job_segments(job)

    def test_orders_by_time_across_machines(self):
        s = Schedule([0, 1, 2], 10)
        s.add_segment(0, 7, 6, 8)
        s.add_segment(2, 7, 0, 2)
        s.add_segment(1, 7, 3, 4)
        s.add_segment(1, 4, 0, 3)
        s.add_segment(0, 4, 3, 5)
        by_job = s.segments_by_job()
        assert [m for m, _seg in by_job[7]] == [2, 1, 0]
        assert [m for m, _seg in by_job[4]] == [1, 0]
        for job in s.jobs():
            assert by_job[job] == s.job_segments(job)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_job_segments_on_random_schedules(self, seed):
        rng = random.Random(seed)
        s = Schedule(range(4), 40)
        for _ in range(80):
            start = Fraction(rng.randrange(0, 120), 4)
            end = start + Fraction(rng.randrange(1, 12), 2)
            if end > 40:
                continue
            try:
                s.add_segment(rng.randrange(4), rng.randrange(6), start, end)
            except InvalidScheduleError:
                pass
        by_job = s.segments_by_job()
        assert set(by_job) == set(s.jobs())
        for job in s.jobs():
            assert by_job[job] == s.job_segments(job)

    def test_empty_schedule_has_no_groups(self):
        assert Schedule([0, 1], 4).segments_by_job() == {}


def _machine_segments(schedule):
    return {m: tuple(schedule.timeline(m).segments) for m in schedule.machines}


class TestSharedReplay:
    WINDOWS = 4

    @pytest.mark.parametrize("with_topology", [False, True])
    @pytest.mark.parametrize("u", [0.8, 0.95])
    def test_batch_equals_per_stream_admit(self, with_topology, u):
        topology = make_topology("clustered4x2") if with_topology else None
        cost_model = CostModel.numa_like() if with_topology else None
        for seed, ext, template in _e18_templates(
            2, topology_name="clustered4x2", u=u
        ):
            streams = [
                make_arrivals(family, seed, ext.n, template.T).arrivals_until(
                    self.WINDOWS * template.T
                )
                for family in sorted(ARRIVAL_FAMILIES)
            ]
            batch = admit_batch(
                template, streams, self.WINDOWS,
                topology=topology, cost_model=cost_model,
            )
            singles = [
                admit(
                    template, stream, self.WINDOWS,
                    topology=topology, cost_model=cost_model,
                )
                for stream in streams
            ]
            assert len(batch) == len(singles) == len(streams)
            for got, want in zip(batch, singles):
                assert got.admitted == want.admitted
                assert got.pending == want.pending
                assert got.unreleased == want.unreleased
                assert got.max_backlog == want.max_backlog
                assert _machine_segments(got.schedule) == _machine_segments(
                    want.schedule
                )
                assert schedule_to_dict(got.schedule) == schedule_to_dict(
                    want.schedule
                )

    def test_slots_are_shared_and_unchanged_by_streams(self):
        seed, ext, template = _e18_templates(1, u=0.95)[0]
        replay = WindowReplay(template)
        keys = [(job, w) for job in range(ext.n + 1) for w in range(self.WINDOWS)]
        before = {key: replay.slot(*key) for key in keys}
        frozen = copy.deepcopy(before)
        streams = [
            make_arrivals(family, seed, ext.n, template.T).arrivals_until(
                self.WINDOWS * template.T
            )
            for family in sorted(ARRIVAL_FAMILIES)
        ]
        first = [replay.admit(s, self.WINDOWS) for s in streams]
        again = [replay.admit(s, self.WINDOWS) for s in reversed(streams)]
        for key in keys:
            assert replay.slot(*key) is before[key]
            assert before[key] == frozen[key]
            assert isinstance(before[key].pieces, tuple)
        for got, want in zip(reversed(again), first):
            assert got.admitted == want.admitted
            assert _machine_segments(got.schedule) == _machine_segments(
                want.schedule
            )

    def test_slot_accounting_matches_placed_pieces(self):
        from repro.schedule.metrics import job_transitions, priced_job_migration_cost

        topology = make_topology("clustered4x2")
        cost_model = CostModel.numa_like()
        migrated = 0
        for seed, ext, template in _e18_templates(
            3, topology_name="clustered4x2", u=0.95
        ):
            stream = make_arrivals(
                "synchronous", seed, ext.n, template.T
            ).arrivals_until(self.WINDOWS * template.T)
            result = admit(
                template, stream, self.WINDOWS,
                topology=topology, cost_model=cost_model,
            )
            for inst in result.admitted:
                iid = inst.instance_id
                pieces = result.schedule.job_segments(iid)
                if not pieces:
                    assert inst.start == inst.completion
                    assert inst.completion == inst.window * template.T
                    continue
                assert inst.start == min(s.start for _m, s in pieces)
                assert inst.completion == max(s.end for _m, s in pieces)
                assert inst.migrations == job_transitions(
                    result.schedule, iid
                ).migrations
                assert inst.priced_overhead == priced_job_migration_cost(
                    result.schedule, iid, topology, cost_model
                )
                migrated += inst.migrations
        assert migrated > 0

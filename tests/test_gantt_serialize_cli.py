"""Tests for the Gantt renderer, exact serialization and the CLI."""

from fractions import Fraction

import pytest

from repro import Assignment, Schedule
from repro.analysis.gantt import job_label, render_gantt
from repro.cli import main as cli_main
from repro.exceptions import InvalidScheduleError
from repro.schedule.serialize import (
    assignment_from_dict,
    assignment_to_dict,
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)


class TestGantt:
    def test_labels_cycle(self):
        assert job_label(0) == "0"
        assert job_label(10) == "a"
        assert job_label(36) == "A"
        assert job_label(62) == "0"

    def test_render_contains_jobs_and_idle(self):
        s = Schedule([0, 1], 4)
        s.add_segment(0, 0, 0, 2)
        s.add_segment(1, 1, 2, 4)
        out = render_gantt(s, width=8)
        lines = out.splitlines()
        assert lines[0].startswith("m0")
        assert "0" in lines[0] and "." in lines[0]
        assert "1" in lines[1]

    def test_render_empty(self):
        s = Schedule([0], 0)
        assert "empty" in render_gantt(s)

    def test_tiny_segment_still_visible(self):
        s = Schedule([0], 100)
        s.add_segment(0, 7, 0, Fraction(1, 10))
        out = render_gantt(s, width=20)
        assert "7" in out

    def test_fractional_boundaries(self):
        s = Schedule([0], Fraction(7, 2))
        s.add_segment(0, 0, Fraction(1, 3), Fraction(7, 2))
        out = render_gantt(s, width=21)
        assert "0" in out


class TestSerialize:
    def _sample(self):
        s = Schedule([0, 1], Fraction(5, 2))
        s.add_segment(0, 0, 0, Fraction(3, 2))
        s.add_segment(1, 0, Fraction(3, 2), Fraction(5, 2))
        s.add_segment(1, 1, 0, 1)
        return s

    def test_roundtrip_dict(self):
        s = self._sample()
        restored = schedule_from_dict(schedule_to_dict(s))
        assert restored.T == s.T
        assert restored.machines == s.machines
        for m in s.machines:
            assert restored.timeline(m).segments == s.timeline(m).segments

    def test_roundtrip_json_exact_fractions(self):
        s = self._sample()
        text = schedule_to_json(s)
        restored = schedule_from_json(text)
        assert restored.job_segments(0) == s.job_segments(0)
        assert "3/2" in text  # fractions stored exactly, not as floats

    def test_malformed_document_raises(self):
        with pytest.raises(InvalidScheduleError):
            schedule_from_dict({"T": "1/1"})

    def test_overlap_rejected_on_load(self):
        data = {
            "T": "4/1",
            "machines": [0],
            "segments": [
                {"machine": 0, "job": 0, "start": "0/1", "end": "2/1"},
                {"machine": 0, "job": 1, "start": "1/1", "end": "3/1"},
            ],
        }
        with pytest.raises(InvalidScheduleError):
            schedule_from_dict(data)

    def test_assignment_roundtrip(self):
        a = Assignment({0: {0}, 1: {0, 1}})
        restored = assignment_from_dict(assignment_to_dict(a))
        assert restored == a


class TestCLI:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_solve_demo_ii1(self, capsys):
        assert cli_main(["solve", "--demo", "ii1"]) == 0
        out = capsys.readouterr().out
        assert "exact optimum: 2" in out
        assert "2-approximation" in out

    def test_solve_unknown_demo(self, capsys):
        assert cli_main(["solve", "--demo", "nope"]) == 2

    @pytest.mark.parametrize("command", ["solve", "experiments"])
    def test_retired_backend_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--backend", "scipy"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_experiments_subset(self, capsys):
        assert cli_main(["experiments", "e01"]) == 0
        assert "E01" in capsys.readouterr().out

    def test_experiments_unknown(self, capsys):
        assert cli_main(["experiments", "e99"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().out

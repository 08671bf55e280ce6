"""Golden contract files: the printed results, pinned byte for byte.

The exact `T*`, makespans, verdicts and tables are this repository's
contract.  ``tests/golden/`` holds what the CLI prints for the experiment
set and the three demos, one file per LP backend (the backends may pick
different optimal vertices, so E07/E09/E10 makespans differ between
them), plus the SHA-256 of each payload file of a small fixed sweep.
Every test regenerates its output in-process and compares it with the
committed file.

Regenerating a golden file is a contract change: it lands with its
reason in CHANGES.md.  To regenerate, run

    PYTHONPATH=src python tests/test_golden_contract.py
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from typing import Dict, List

import pytest

from repro.cli import main
from repro.runner import sweep as sweep_module
from repro.session import SolveCache

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

EXPERIMENTS = ["e01", "e05", "e06", "e07", "e08", "e09", "e10", "e11", "e12", "e13"]
DEMOS = ["ii1", "v1", "smp"]
BACKENDS = ["hybrid", "exact"]

#: The fixed sweep whose payloads are digested: E07 and E09 carry
#: makespans, E14 carries masked timings, and two replicates exercise the
#: derived seeds.
SWEEP_IDS = ["e07", "e09", "e14"]
SWEEP_SEEDS = 2
#: Stands in for the code fingerprint, which changes with every source
#: edit; payloads and task keys are otherwise functions of the results.
SWEEP_FINGERPRINT = "0" * 64
SWEEP_DIGEST_FILE = "sweep_payloads.sha256"


def _commands(backend: str) -> List[List[str]]:
    return [["experiments", *EXPERIMENTS, "--backend", backend]] + [
        ["solve", "--demo", demo, "--backend", backend] for demo in DEMOS
    ]


def render_backend(backend: str) -> str:
    """Every command's printed output under *backend*, each after a
    ``$ repro ...`` header line."""
    parts = []
    for argv in _commands(backend):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise AssertionError(f"repro {' '.join(argv)} exited {code}")
        parts.append(f"$ repro {' '.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def sweep_digests(monkeypatch=None) -> str:
    """``<sha256>  <file>`` for each payload file of the fixed sweep."""
    with tempfile.TemporaryDirectory() as root:
        if monkeypatch is not None:
            monkeypatch.setattr(sweep_module, "code_fingerprint", lambda: SWEEP_FINGERPRINT)
        else:
            sweep_module.code_fingerprint = lambda: SWEEP_FINGERPRINT
        with SolveCache(root) as cache:
            stats = sweep_module.run_sweep(
                SWEEP_IDS, cache, jobs=1, seeds=SWEEP_SEEDS, echo=lambda _line: None
            )
        if stats.failed:
            raise AssertionError(f"fixed sweep had {stats.failed} failed task(s)")
        payloads = os.path.join(root, "payloads")
        lines = []
        for name in sorted(os.listdir(payloads)):
            with open(os.path.join(payloads, name), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
    return "".join(lines)


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("backend", BACKENDS)
def test_printed_results_match_golden(backend):
    assert render_backend(backend) == _golden(f"{backend}.txt")


def test_sweep_payloads_match_golden(monkeypatch):
    assert sweep_digests(monkeypatch) == _golden(SWEEP_DIGEST_FILE)


def _regenerate() -> Dict[str, str]:
    files = {f"{backend}.txt": render_backend(backend) for backend in BACKENDS}
    files[SWEEP_DIGEST_FILE] = sweep_digests()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return files


if __name__ == "__main__":
    for name in _regenerate():
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}", file=sys.stderr)

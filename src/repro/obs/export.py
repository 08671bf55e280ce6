"""Span serialization: streaming JSONL sink and Chrome-trace export.

Two output formats, one span model:

* **JSONL** (:class:`JsonlSpanSink`, :func:`write_spans_jsonl`) — one
  canonical-JSON span per line, the format the store tooling and ad-hoc
  ``jq`` analysis consume.  The sink streams: each span is written (and
  flushed) the moment it finishes, so a crashed run still leaves every
  completed span on disk.
* **Chrome ``trace_event``** (:func:`chrome_trace`,
  :func:`write_chrome_trace`) — the ``chrome://tracing`` / Perfetto format:
  one ``"X"`` (complete) event per span with microsecond ``ts``/``dur``,
  plus ``"M"`` metadata events naming each process track.  Span nesting is
  reconstructed by the viewer from containment on the same ``(pid, tid)``
  track, which our single-stack-per-process model guarantees.

:func:`validate_chrome_trace` checks the structural contract of the
exported payload (the CI sweep-smoke leg runs it on a freshly emitted
trace); it returns a list of human-readable problems, empty when the file
is well-formed.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from .trace import Span

#: Synthetic thread id used for every span of a process: the span stack is
#: per-process, so one track per pid is the faithful rendering.
_TID = 1


def span_line(span: Span) -> str:
    """One span as its canonical JSONL line (no trailing newline)."""
    from ..session.canon import canonical_json

    return canonical_json(span.to_json())


class JsonlSpanSink:
    """Streaming JSONL span writer — plug into :class:`~repro.obs.trace.
    Tracer` as its ``sink`` (or call directly with finished spans)."""

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def __call__(self, span: Span) -> None:
        self._fh.write(span_line(span) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_spans_jsonl(path: str, spans: Sequence[Span]) -> None:
    """Write *spans* to *path*, one canonical JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(span_line(span) + "\n")


def _span_args(span: Span) -> Dict[str, Any]:
    """Chrome-event ``args``: attributes plus any non-zero counters."""
    args: Dict[str, Any] = {
        k: v if isinstance(v, (bool, int, float, str)) or v is None else str(v)
        for k, v in span.attrs.items()
    }
    for name, value in span.stats.to_json().items():
        if value:
            args[name] = value
    return args


def chrome_trace(
    spans: Sequence[Span], label: Optional[str] = None
) -> Dict[str, Any]:
    """The spans as a Chrome ``trace_event`` payload (JSON-ready dict).

    Timestamps are rebased to the earliest span start so ``ts`` stays small
    enough for the viewer's float microseconds to remain exact in practice.
    """
    events: List[Dict[str, Any]] = []
    pids = sorted({span.pid for span in spans})
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": _TID,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    t0 = min((span.start_ns for span in spans), default=0)
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - t0) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": span.pid,
                "tid": _TID,
                "args": _span_args(span),
            }
        )
    payload: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if label:
        payload["otherData"] = {"label": label}
    return payload


def write_chrome_trace(
    path: str, spans: Sequence[Span], label: Optional[str] = None
) -> None:
    """Export *spans* to *path* in Chrome ``trace_event`` format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, label=label), fh, indent=1)
        fh.write("\n")


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural problems of a ``trace_event`` payload (empty = valid).

    Checks the subset of the spec our exporter promises: the JSON-object
    container with a ``traceEvents`` list; every event a dict with string
    ``name``, known ``ph``, integer ``pid``/``tid``; ``"X"`` events with
    non-negative numeric ``ts``/``dur``.  The CI trace-smoke leg fails on
    any returned problem.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload lacks a 'traceEvents' list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing/empty 'name'")
        ph = event.get("ph")
        if ph not in ("X", "B", "E", "i", "M", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: '{key}' must be an integer")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: '{key}' must be a non-negative number"
                    )
            if not isinstance(event.get("args", {}), dict):
                problems.append(f"{where}: 'args' must be an object")
    return problems

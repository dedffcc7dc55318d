"""Exporters for :mod:`repro.obs`: JSONL, Chrome trace_event, telemetry.

Three artifacts per traced run, written into one run subdirectory:

* ``events.jsonl`` — one JSON object per line: a ``meta`` header, every
  span (``type: "span"``), then the final metric values (``counter`` /
  ``gauge``).  This is the machine-readable log
  ``tools/trace_report.py`` consumes.
* ``trace.json`` — Chrome/Perfetto ``trace_event`` JSON (``ph: "X"``
  complete events, microsecond timestamps relative to the run start,
  one track per process), loadable in ``ui.perfetto.dev`` or
  ``chrome://tracing``.
* ``telemetry.json`` — the :class:`RunTelemetry` summary.

Everything here takes plain :class:`~repro.obs.ObsBuffer` data; nothing
imports the collector state, so the module is also usable to re-render
buffers captured elsewhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import ObsBuffer, SpanEvent

__all__ = [
    "RunTelemetry",
    "telemetry_from_buffer",
    "export_run",
    "write_events_jsonl",
    "write_trace_event",
    "read_events_jsonl",
]

_NS_PER_S = 1_000_000_000.0


@dataclass
class RunTelemetry:
    """Human/JSON summary of one run's spans and metrics."""

    run: str
    mode: str
    #: span name -> {count, wall_s, cpu_s}
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        root = self.spans.get(f"run.{self.run}")
        return root["wall_s"] if root else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "mode": self.mode,
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
        }

    def to_text(self) -> str:
        """Aligned per-span/per-metric breakdown (the engine-report style)."""
        lines = [f"run={self.run} mode={self.mode} "
                 f"wall={self.wall_seconds:.3f}s"]
        if self.spans:
            lines.append("spans:")
            width = max(len(name) for name in self.spans)
            for name in sorted(self.spans):
                entry = self.spans[name]
                lines.append(
                    f"  {name:<{width}}  n={int(entry['count']):<7} "
                    f"wall={entry['wall_s']:9.3f}s cpu={entry['cpu_s']:9.3f}s"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]:g}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]:g}")
        return "\n".join(lines)


def telemetry_from_buffer(
    run: str, mode: str, buffer: ObsBuffer
) -> RunTelemetry:
    """Fold a drained run buffer into its :class:`RunTelemetry` summary."""
    spans = {
        name: {
            "count": n,
            "wall_s": wall / _NS_PER_S,
            "cpu_s": cpu / _NS_PER_S,
        }
        for name, (n, wall, cpu) in buffer.agg.items()
    }
    return RunTelemetry(
        run=run,
        mode=mode,
        spans=spans,
        counters=dict(buffer.counters),
        gauges=dict(buffer.gauges),
    )


def _span_line(ev: SpanEvent) -> Dict[str, Any]:
    return {
        "type": "span",
        "name": ev.name,
        "ts": ev.ts,
        "dur": ev.dur,
        "cpu": ev.cpu,
        "pid": ev.pid,
        "id": ev.id,
        "parent": ev.parent,
        "attrs": ev.attrs,
    }


def write_events_jsonl(
    path: str, buffer: ObsBuffer, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Write the run's event log: meta header, spans, final metrics."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {"type": "meta"}
        header.update(meta or {})
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for ev in buffer.events:
            handle.write(json.dumps(_span_line(ev), sort_keys=True, default=str))
            handle.write("\n")
        for name in sorted(buffer.counters):
            handle.write(json.dumps(
                {"type": "counter", "name": name,
                 "value": buffer.counters[name]}, sort_keys=True))
            handle.write("\n")
        for name in sorted(buffer.gauges):
            handle.write(json.dumps(
                {"type": "gauge", "name": name,
                 "value": buffer.gauges[name]}, sort_keys=True))
            handle.write("\n")


def read_events_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse an ``events.jsonl`` file back into its line dicts."""
    lines: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                lines.append(json.loads(raw))
    return lines


def write_trace_event(path: str, buffer: ObsBuffer) -> None:
    """Write a Chrome/Perfetto ``trace_event`` JSON file.

    Spans become ``ph: "X"`` complete events with microsecond timestamps
    relative to the earliest span; each recording process keeps its own
    ``pid`` so worker activity renders as parallel tracks.
    """
    events = buffer.events
    t0 = min((ev.ts for ev in events), default=0)
    trace: List[Dict[str, Any]] = []
    own_pid = os.getpid()
    for pid in sorted({ev.pid for ev in events}):
        label = "coordinator" if pid == own_pid else f"worker-{pid}"
        trace.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    for ev in events:
        args = {k: (v if isinstance(v, (int, float, bool, str)) else str(v))
                for k, v in ev.attrs.items()}
        args["span_id"] = ev.id
        if ev.parent is not None:
            args["parent_id"] = ev.parent
        trace.append({
            "ph": "X",
            "name": ev.name,
            "cat": ev.name.split(".", 1)[0],
            "ts": (ev.ts - t0) / 1000.0,
            "dur": ev.dur / 1000.0,
            "pid": ev.pid,
            "tid": 0,
            "args": args,
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)


def export_run(
    run_dir: str, buffer: ObsBuffer, telemetry: RunTelemetry
) -> None:
    """Write the run's three artifacts into ``run_dir`` (created)."""
    os.makedirs(run_dir, exist_ok=True)
    write_events_jsonl(
        os.path.join(run_dir, "events.jsonl"),
        buffer,
        meta={"run": telemetry.run, "mode": telemetry.mode},
    )
    write_trace_event(os.path.join(run_dir, "trace.json"), buffer)
    with open(os.path.join(run_dir, "telemetry.json"), "w",
              encoding="utf-8") as handle:
        json.dump(telemetry.to_json(), handle, indent=2, sort_keys=True)

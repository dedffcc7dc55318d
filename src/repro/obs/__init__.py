"""repro.obs — structured tracing, metrics, and run telemetry.

An always-available, near-zero-cost-when-off observability layer for the
engine → evalkit → sim stack:

* **Spans** — hierarchical timed regions (run → stage → chunk → problem
  → candidate) with wall/CPU time and typed attributes.  ``span()``
  returns a context manager; when the mode is ``off`` it is a shared
  no-op object, so instrumentation sites cost one branch plus a kwargs
  dict.
* **Metrics** — a process-wide registry of counters and gauges
  (``count`` / ``gauge``).  Metrics are always recorded (they are dict
  updates at episode granularity, never in per-cycle loops), so e.g.
  :func:`repro.sim.cache.stats` works even with tracing off.
* **Process-pool correctness** — recording goes to the top of a *frame
  stack*.  :func:`repro.engine.executor.apply_stages` pushes a fresh
  frame per chunk and ships the drained :class:`ObsBuffer` home inside
  each ``ChunkResult``; the coordinator merges buffers **in submission
  order** (:func:`merge_buffer`), re-parenting worker root spans under
  its active span, so a :class:`~repro.engine.ParallelExecutor` trace is
  as complete as a serial one.
* **Exporters** — a JSONL event log, a Chrome/Perfetto ``trace_event``
  file, and a human :class:`~repro.obs.export.RunTelemetry` summary
  attached to :class:`~repro.evalkit.RunResult`.  ``tools/trace_report.py``
  renders per-stage/per-metric breakdowns and the slowest problems from
  a trace directory.

Control surface: the ``REPRO_OBS`` environment variable selects the mode
(``off`` — default — | ``summary`` | ``trace``) and ``REPRO_OBS_DIR``
the export root (default ``repro_obs``); :func:`configure` overrides
both at runtime.  Runs wrap themselves in :func:`run_capture`, which
scopes a frame, builds the telemetry summary, and (in ``trace`` mode)
writes ``events.jsonl`` / ``trace.json`` / ``telemetry.json`` into a
per-run subdirectory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "MODE_OFF",
    "MODE_SUMMARY",
    "MODE_TRACE",
    "SpanEvent",
    "ObsBuffer",
    "configure",
    "ensure_mode",
    "mode",
    "enabled",
    "obs_dir",
    "span",
    "event",
    "count",
    "gauge",
    "counters",
    "counter_value",
    "push_frame",
    "pop_frame",
    "merge_buffer",
    "run_capture",
    "RunCapture",
    "snapshot",
    "reset",
]

MODE_OFF = "off"
MODE_SUMMARY = "summary"
MODE_TRACE = "trace"
_MODES = (MODE_OFF, MODE_SUMMARY, MODE_TRACE)

_ENV_MODE = "REPRO_OBS"
_ENV_DIR = "REPRO_OBS_DIR"
_DEFAULT_DIR = "repro_obs"


def _mode_from_env() -> str:
    value = os.environ.get(_ENV_MODE, MODE_OFF).strip().lower()
    return value if value in _MODES else MODE_OFF


#: 0 = off, 1 = summary (aggregates only), 2 = trace (full event log)
_mode: int = _MODES.index(_mode_from_env())
_dir: Optional[str] = os.environ.get(_ENV_DIR) or None


@dataclass
class SpanEvent:
    """One closed span, as recorded (worker-local ids, epoch-ns clock)."""

    name: str
    ts: int  # epoch ns at span start (comparable across processes)
    dur: int  # wall ns
    cpu: int  # process CPU ns
    pid: int
    id: int
    parent: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)


class _Frame:
    """One collector frame: events, span aggregates, and metrics."""

    __slots__ = ("events", "agg", "counters", "gauges", "stack", "next_id")

    def __init__(self) -> None:
        self.events: List[SpanEvent] = []
        #: span name -> [count, wall_ns, cpu_ns]
        self.agg: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: ids of currently open spans (trace mode parenting)
        self.stack: List[int] = []
        self.next_id = 1

    def empty(self) -> bool:
        return not (self.events or self.agg or self.counters or self.gauges)


@dataclass
class ObsBuffer:
    """A drained frame, picklable, as shipped home with a ChunkResult."""

    events: List[SpanEvent] = field(default_factory=list)
    agg: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.events or self.agg or self.counters or self.gauges)


_frames: List[_Frame] = [_Frame()]


# -- configuration -----------------------------------------------------------


def configure(
    mode: Optional[str] = None, directory: Optional[str] = None
) -> Tuple[str, Optional[str]]:
    """Set mode and/or export directory; returns the previous pair.

    ``mode`` must be ``"off"``, ``"summary"``, or ``"trace"``; ``None``
    leaves the current value.  ``directory=""`` resets the export root
    to the ``REPRO_OBS_DIR``/default resolution.
    """
    global _mode, _dir
    previous = (_MODES[_mode], _dir)
    if mode is not None:
        if mode not in _MODES:
            raise ValueError(f"unknown obs mode {mode!r}; pick one of {_MODES}")
        _mode = _MODES.index(mode)
    if directory is not None:
        _dir = directory or None
    return previous


def ensure_mode(mode: str) -> None:
    """Adopt ``mode`` if it differs (pool workers, per dispatched chunk)."""
    global _mode
    if mode in _MODES:
        _mode = _MODES.index(mode)


def mode() -> str:
    """The active mode string (``off`` | ``summary`` | ``trace``)."""
    return _MODES[_mode]


def enabled() -> bool:
    """True when spans are being recorded (mode is not ``off``)."""
    return _mode != 0


def obs_dir() -> str:
    """The export root for trace-mode runs."""
    return _dir or os.environ.get(_ENV_DIR) or _DEFAULT_DIR


def reset() -> None:
    """Drop every frame and all recorded state (tests and fresh tools)."""
    global _frames
    _frames = [_Frame()]


# -- spans -------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing span for the off path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span; closing records into the top frame."""

    __slots__ = ("name", "attrs", "_id", "_t0", "_w0", "_c0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes before the span closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        frame = _frames[-1]
        if _mode == 2:
            self._id = frame.next_id
            frame.next_id += 1
            frame.stack.append(self._id)
        else:
            self._id = 0
        self._t0 = time.time_ns()
        self._c0 = time.process_time_ns()
        self._w0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = time.perf_counter_ns() - self._w0
        cpu = time.process_time_ns() - self._c0
        frame = _frames[-1]
        entry = frame.agg.get(self.name)
        if entry is None:
            frame.agg[self.name] = [1, wall, cpu]
        else:
            entry[0] += 1
            entry[1] += wall
            entry[2] += cpu
        if _mode == 2:
            stack = frame.stack
            if stack and stack[-1] == self._id:
                stack.pop()
            frame.events.append(
                SpanEvent(
                    name=self.name,
                    ts=self._t0,
                    dur=wall,
                    cpu=cpu,
                    pid=os.getpid(),
                    id=self._id,
                    parent=stack[-1] if stack else None,
                    attrs=self.attrs,
                )
            )


def span(name: str, **attrs):
    """A context manager timing one region; no-op when the mode is off."""
    if _mode == 0:
        return _NOOP_SPAN
    return _Span(name, attrs)


def event(name: str, **attrs) -> None:
    """Record a point event (a zero-duration span); no-op when off."""
    if _mode == 0:
        return
    frame = _frames[-1]
    entry = frame.agg.get(name)
    if entry is None:
        frame.agg[name] = [1, 0, 0]
    else:
        entry[0] += 1
    if _mode == 2:
        span_id = frame.next_id
        frame.next_id += 1
        frame.events.append(
            SpanEvent(
                name=name,
                ts=time.time_ns(),
                dur=0,
                cpu=0,
                pid=os.getpid(),
                id=span_id,
                parent=frame.stack[-1] if frame.stack else None,
                attrs=attrs,
            )
        )


# -- metrics -----------------------------------------------------------------


def count(name: str, n: float = 1) -> None:
    """Increment counter ``name`` by ``n`` (always recorded)."""
    counters = _frames[-1].counters
    counters[name] = counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins on merge)."""
    _frames[-1].gauges[name] = value


def counter_value(name: str) -> float:
    """Current value of one counter, summed across the frame stack."""
    return sum(frame.counters.get(name, 0) for frame in _frames)


def counters(prefix: str = "") -> Dict[str, float]:
    """Counters (filtered by ``prefix``) summed across the frame stack."""
    merged: Dict[str, float] = {}
    for frame in _frames:
        for name, value in frame.counters.items():
            if name.startswith(prefix):
                merged[name] = merged.get(name, 0) + value
    return merged


# -- frame capture and merge (process-pool plumbing) -------------------------


def push_frame() -> None:
    """Start capturing into a fresh frame (executor chunk / run scope)."""
    _frames.append(_Frame())


def pop_frame() -> Optional[ObsBuffer]:
    """Drain the top frame into a picklable buffer (None when empty)."""
    frame = _frames.pop()
    if not _frames:  # never leave the stack without a root
        _frames.append(_Frame())
    if frame.empty():
        return None
    return ObsBuffer(
        events=frame.events,
        agg=frame.agg,
        counters=frame.counters,
        gauges=frame.gauges,
    )


def merge_buffer(buffer: Optional[ObsBuffer]) -> None:
    """Fold a drained buffer into the current frame.

    Called by the coordinator once per chunk, in submission order, and by
    :class:`RunCapture` when a run frame closes.  Span ids are remapped
    into the receiving frame's id space and parentless spans are adopted
    by the currently active span, so worker sub-trees nest under the
    coordinator span that dispatched them.
    """
    if buffer is None:
        return
    frame = _frames[-1]
    if buffer.events:
        base = frame.next_id
        top = frame.stack[-1] if frame.stack else None
        max_id = 0
        for ev in buffer.events:
            if ev.id > max_id:
                max_id = ev.id
            ev.id += base
            ev.parent = top if ev.parent is None else ev.parent + base
            frame.events.append(ev)
        frame.next_id = base + max_id + 1
    for name, (n, wall, cpu) in buffer.agg.items():
        entry = frame.agg.get(name)
        if entry is None:
            frame.agg[name] = [n, wall, cpu]
        else:
            entry[0] += n
            entry[1] += wall
            entry[2] += cpu
    for name, value in buffer.counters.items():
        frame.counters[name] = frame.counters.get(name, 0) + value
    frame.gauges.update(buffer.gauges)


def snapshot() -> ObsBuffer:
    """A copy of everything recorded so far, merged across the stack."""
    merged = ObsBuffer()
    for frame in _frames:
        merge = ObsBuffer(
            events=list(frame.events),
            agg={k: list(v) for k, v in frame.agg.items()},
            counters=dict(frame.counters),
            gauges=dict(frame.gauges),
        )
        for name, (n, wall, cpu) in merge.agg.items():
            entry = merged.agg.get(name)
            if entry is None:
                merged.agg[name] = [n, wall, cpu]
            else:
                entry[0] += n
                entry[1] += wall
                entry[2] += cpu
        merged.events.extend(merge.events)
        for name, value in merge.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        merged.gauges.update(merge.gauges)
    return merged


# -- run capture -------------------------------------------------------------

#: per-process run counter, for unique export subdirectory names
_run_seq = 0


class RunCapture:
    """Scopes one run: frame + root span + telemetry + trace export.

    After ``__exit__``, :attr:`telemetry` holds the run's
    :class:`~repro.obs.export.RunTelemetry` and (in trace mode)
    :attr:`export_dir` the directory the event log was written to.  The
    run's events and metrics are then folded into the enclosing frame,
    so nested runs and process-lifetime metrics stay visible.
    """

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs
        self.telemetry = None
        self.export_dir: Optional[str] = None
        self._span = None

    def __enter__(self) -> "RunCapture":
        push_frame()
        self._span = span(f"run.{self.name}", **self.attrs)
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        global _run_seq
        self._span.__exit__(*exc_info)
        buffer = pop_frame() or ObsBuffer()
        from repro.obs import export as _export

        self.telemetry = _export.telemetry_from_buffer(
            self.name, mode(), buffer
        )
        if _mode == 2:
            _run_seq += 1
            run_dir = os.path.join(
                obs_dir(), f"{self.name}-{os.getpid()}-{_run_seq:03d}"
            )
            try:
                _export.export_run(run_dir, buffer, self.telemetry)
                self.export_dir = run_dir
            except OSError:
                self.export_dir = None  # unwritable dir: telemetry survives
        merge_buffer(buffer)


def run_capture(name: str, **attrs) -> RunCapture:
    """Context manager wrapping one top-level run (plan, curation, ...)."""
    return RunCapture(name, **attrs)

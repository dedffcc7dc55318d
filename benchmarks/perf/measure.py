"""One measured round of one workload, and the metrics made from rounds.

A *round* is one process: timed set-up repetitions, the reference
(loaded, or computed inline when the seed has no committed file), then
timed iterations until ``seconds`` have passed.  ``e2e_metrics`` turns
the raw per-unit samples of one or more rounds into the end-to-end
metrics ``BENCHMARK.json`` declares.  The timing instruments live here
too: the calibration ``spin``, the ``UnitClock`` a workload laps, and the
``Trace`` of the benchmark's own spans.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import re
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import estimator
import reference
from workloads import Workload, run_step

#: set-up is repeated at least twice, then on until this much time is
#: spent on it (a 4 s set-up runs twice, a 10 ms one 61 times: fifteen
#: fitted inside one 150 ms burst of the host, and a round then read
#: 8.1 ms where five others read 6.3-6.5)
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 61
SETUP_BUDGET_S = 3.0


_SPIN_LANES = np.arange(60_000, dtype=np.uint64)
_SPIN_OUT = (np.empty_like(_SPIN_LANES), np.empty_like(_SPIN_LANES))
_SPIN_MUL, _SPIN_ADD, _SPIN_MOD = np.uint64(3), np.uint64(1), np.uint64((1 << 61) - 1)
_SPIN_TEXT = "assign y = a + b; // x\n" * 200
_SPIN_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")


def spin() -> float:
    """The calibration spin: fixed work, its wall seconds.

    A mix of what the workloads are made of — interpreter bytecode,
    numpy passes over a buffer larger than L1, hashing, a regex scan —
    because a slow phase of the host does not slow them equally (measured
    on ``curate_stream``: spread of the estimate 3.9 % calibrated by the
    bytecode part alone, 2.8 % by the mix, 14 % raw).
    """
    start = time.perf_counter()
    x = 0
    for i in range(30_000):
        x = (x * 31 + i) & 0xFFFF
    # Each pass reads one buffer and writes another, a working set
    # past L2, as ``lanes = lanes * 3 + 1`` would — but into buffers made
    # once.  A temporary this size comes from the top of the heap or
    # from a hole in it depending on what the workload has freed, and
    # the page faults of the first case made the spin 10 % slower during
    # a process's first ``curate_stream`` iteration than during later ones.
    src = _SPIN_LANES
    for index in range(6):
        dst = _SPIN_OUT[index % 2]
        np.multiply(src, _SPIN_MUL, out=dst)
        np.add(dst, _SPIN_ADD, out=dst)
        np.remainder(dst, _SPIN_MOD, out=dst)
        src = dst
    for _ in range(20):
        hashlib.blake2b(_SPIN_TEXT.encode("utf-8"), digest_size=8).digest()
    _SPIN_TOKEN.findall(_SPIN_TEXT)
    return time.perf_counter() - start


class UnitClock:
    """Times consecutive units, each followed by a calibration spin;
    optionally mirrors the units as trace spans."""

    def __init__(self, trace: Optional["Trace"] = None) -> None:
        self.seconds: List[float] = []
        self.spins: List[float] = []
        self._trace = trace
        self._spin = spin if trace is None else trace.spin
        self._t0 = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self, unit_id) -> None:
        """Close the running unit, spin, start the next one."""
        now = time.perf_counter()
        self.seconds.append(now - self._t0)
        if self._trace is not None:
            self._trace.add("unit", self._t0, now, unit=unit_id)
        self.spins.append(self._spin())
        self._t0 = time.perf_counter()


class Trace:
    """In-memory spans of the benchmark's own making, written at exit.

    Calibration spins are recorded beside the spans, so a span's time
    can be read in the calibrated seconds the end-to-end metrics use
    (see ``estimator``): its wall time over the median of the
    ``2 * SPIN_RADIUS + 1`` spins nearest to it in time.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: (start time, wall seconds) of every spin, in time order
        self.spins: List[Tuple[float, float]] = []
        self._open: List[int] = []
        self._next = 0

    def add(self, name: str, start: float, end: float, unit=None) -> None:
        """Record a finished span as a child of the open one."""
        self._next += 1
        self._record(self._next - 1, name, start, end, unit)

    def _record(self, span_id, name, start, end, unit) -> None:
        self.spans.append({
            "id": span_id,
            "parent": self._open[-1] if self._open else None,
            "name": name, "unit": unit, "start": start, "end": end,
        })

    @contextmanager
    def span(self, name: str, unit=None) -> Iterator[None]:
        span_id = self._next
        self._next += 1
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._record(span_id, name, start, end, unit)

    def spin(self) -> float:
        """Run one calibration spin now and record it."""
        start = time.perf_counter()
        took = spin()
        self.spins.append((start, took))
        return took

    def calibrated_s(self, span: dict) -> float:
        if not self.spins:
            return span["end"] - span["start"]
        middle = (span["start"] + span["end"]) / 2
        at = bisect.bisect_left(self.spins, (middle, 0.0))
        width = 2 * estimator.SPIN_RADIUS + 1
        near = sorted(
            self.spins[max(0, at - width):at + width],
            key=lambda s: abs(s[0] - middle),
        )[:width]
        return (
            (span["end"] - span["start"]) * estimator.SPIN_REF_S
            / statistics.median(took for _, took in near)
        )

    def unit_minima(self, name: str) -> Dict[object, float]:
        """Fastest calibrated span of ``name`` per unit id."""
        best: Dict[object, float] = {}
        for span in self.spans:
            if span["name"] == name:
                took = self.calibrated_s(span)
                unit = span["unit"]
                if unit not in best or took < best[unit]:
                    best[unit] = took
        return best

    def quiet_s(self, name: str) -> float:
        """Sum over unit ids of the fastest span of that name and unit
        (the estimator of the end-to-end runs, applied to a layer)."""
        return sum(self.unit_minima(name).values())

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                handle.write(json.dumps(span) + "\n")
            for start, took in self.spins:
                handle.write(json.dumps(
                    {"name": "spin", "start": start, "end": start + took}
                ) + "\n")


def time_setup(
    workload: Workload, min_reps: int, trace: Optional[Trace] = None
) -> List[dict]:
    """Run the named set-up steps ``min_reps`` times or more (a cheap
    set-up repeats until ``SETUP_BUDGET_S`` is spent), a spin after each
    step (and at each yield of a step that yields); the last
    repetition's state is the one the iterations use."""
    take_spin = spin if trace is None else trace.spin
    reps: List[dict] = []
    spent = 0.0
    while len(reps) < min_reps or (
        min_reps > 1 and spent < SETUP_BUDGET_S and len(reps) < SETUP_MAX_REPS
    ):
        rep: dict = {"steps": [], "step_s": [], "spin_s": []}
        for name, step in workload.setup_steps() + [
            ("expected_load", lambda: _load_expected(workload))
        ]:
            for part, (start, end) in enumerate(run_step(step)):
                rep["steps"].append(name)
                rep["step_s"].append(end - start)
                if trace is not None:
                    trace.add(f"setup.{name}", start, end, unit=part)
                rep["spin_s"].append(take_spin())
        reps.append(rep)
        spent += sum(rep["step_s"])
    return reps


def _load_expected(workload: Workload) -> None:
    workload.expected = reference.load_expected(
        workload.expected_dir,
        workload.inputs.seed,
        workload.sizes,
        reference.section_of(workload.name),
    )


def ensure_reference(workload: Workload) -> float:
    """Seconds spent computing the reference inline (0 when committed)."""
    if workload.expected is not None:
        return 0.0
    start = time.perf_counter()
    workload.expected = reference.compute_reference(workload)
    return time.perf_counter() - start


def iteration(workload: Workload, trace: Optional[Trace] = None):
    """One pass over the units: ``(samples, attempted, failed)`` with
    ``samples = {"unit_s": [...], "spin_s": [...]}``.

    A unit that raises fails every item of the iteration: the runner
    reports it, it does not crash on it.
    """
    clock = UnitClock(trace)
    gc.collect()
    try:
        attempted, failed = workload.iterate(clock)
    except Exception as exc:  # the benchmark must keep counting
        print(f"unit raised: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        items = workload.items_per_iteration()
        return None, items, items
    return {"unit_s": clock.seconds, "spin_s": clock.spins}, attempted, failed


def run_round(workload: Workload, seconds: float, setup_reps: int) -> dict:
    """Everything one process measures, raw (see the module docstring)."""
    reps = time_setup(workload, setup_reps)
    reference_s = ensure_reference(workload)
    # Set-up leaves a large, long-lived heap (the world, two models);
    # without this every full collection during the units walks it, and
    # unit times then depend on how much set-up happened to allocate.
    gc.collect()
    gc.freeze()
    samples: List[dict] = []
    attempted = failed = 0
    begun = time.perf_counter()
    # No separate warm-up pass: the estimator takes each unit's fastest
    # sample, which the cold first iteration never is.
    while True:
        row, tried, bad = iteration(workload)
        attempted += tried
        failed += bad
        if row is not None:
            samples.append(row)
        if time.perf_counter() - begun >= seconds:
            break
    return {
        "workload": workload.name,
        "seed": workload.inputs.seed,
        "items": workload.items_per_iteration(),
        "setup_reps": reps,
        "reference_s": reference_s,
        "iterations": samples,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def calibrated_rows(iterations: List[dict]) -> List[List[float]]:
    return [
        estimator.calibrate(row["unit_s"], row["spin_s"]) for row in iterations
    ]


def setup_s(reps: List[dict]) -> float:
    """Median over repetitions of the calibrated set-up total."""
    return estimator.setup_median_s(
        [rep["step_s"] for rep in reps], [rep["spin_s"] for rep in reps]
    )


def e2e_metrics(rounds: List[dict]) -> Dict[str, float]:
    """The declared end-to-end metrics from one or more raw rounds, the
    timings in calibrated seconds (see ``estimator``)."""
    iterations = [row for r in rounds for row in r["iterations"]]
    if not iterations:
        raise RuntimeError("no timed iteration completed")
    minima = estimator.unit_minima(calibrated_rows(iterations))
    return {
        "setup_s": setup_s([rep for r in rounds for rep in r["setup_reps"]]),
        "items_per_s": rounds[0]["items"] / sum(minima),
        "unit_ms_p50": estimator.percentile(minima, 50) * 1e3,
        "unit_ms_p90": estimator.percentile(minima, 90) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def failed_frac(rounds: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in rounds)
    return sum(r["failed"] for r in rounds) / attempted


def info_lines(rounds: List[dict]) -> List[Tuple[str, float, str]]:
    """Ungated numbers printed beside the metrics: the estimator's own
    total, and the same things in raw wall seconds."""
    iterations = [row for r in rounds for row in r["iterations"]]
    raw = [row["unit_s"] for row in iterations]
    spins = [s for row in iterations for s in row["spin_s"]]
    return [
        ("quiet_wall_s", estimator.quiet_wall_s(calibrated_rows(iterations)), "s"),
        ("raw.quiet_wall_s", estimator.quiet_wall_s(raw), "s"),
        ("raw.median_wall_s", estimator.median_wall_s(raw), "s"),
        ("raw.first_iter_s", sum(rounds[0]["iterations"][0]["unit_s"]), "s"),
        ("raw.setup_s", statistics.median(
            sum(rep["step_s"]) for r in rounds for rep in r["setup_reps"]
        ), "s"),
        ("unit_samples", float(len(raw) * len(raw[0])), "count"),
        ("reference_s", max(r["reference_s"] for r in rounds), "s"),
        ("host.calib_ms_min", min(spins) * 1e3, "ms"),
        ("host.calib_ms_median", statistics.median(spins) * 1e3, "ms"),
        ("failed_frac", failed_frac(rounds), "frac"),
    ]

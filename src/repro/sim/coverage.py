"""Toggle/level coverage instrumentation for any simulator backend.

Stimulus depth used to be an unmeasured constant: a candidate "passed" if
it survived ``stimulus_cycles`` random vectors, with no way to tell
whether those vectors ever exercised the design.  This module makes
stimulus a *measured* quantity.  A :class:`CoverageTracker` observes a
simulator's flat signal state once per cycle and accumulates, per signal
bit, four coverage points:

* **level-0 / level-1** — the bit has been observed at 0 / at 1;
* **rose / fell** — the bit has been observed transitioning 0→1 / 1→0
  between two consecutive observations (toggle coverage).

The tracker is backend-agnostic by construction: it reads values through
``sim.peek`` (scalar backends) or ``sim.peek_lanes`` (lane-parallel
simulators, where a point covered in *any* lane counts), so the interp
and compiled backends report identical coverage for identical stimulus
— enforced by ``tests/test_cegis.py``.

Saturation — :meth:`CoverageTracker.saturated` — is the signal consumers
act on: once ``window`` consecutive observations add no new coverage
point, further identical-distribution stimulus is overwhelmingly
repeating already-exercised behaviour.  :mod:`repro.vereval.cegis` uses
the saturation cycle two ways: measure-only (report how deep stimulus
*needed* to be) and, under ``REPRO_SIM_COVERAGE_STIMULUS=1``, truncating
golden-stimulus recording at saturation so every later candidate check
pays only the measured depth.

Counters (:mod:`repro.obs`): ``sim.coverage.observes``,
``sim.coverage.new_points``, ``sim.coverage.saturated_runs``,
``sim.coverage.cycles_saved``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.sim.elaborate import Design

__all__ = [
    "CoverageTracker",
    "POINTS_PER_BIT",
]

#: level-0, level-1, rose, fell — the four coverage points per signal bit
POINTS_PER_BIT = 4


class CoverageTracker:
    """Per-bit level + toggle coverage over one design's signal set.

    ``signals`` restricts coverage to the named signals (default: every
    flat signal of the design); ``exclude`` drops names from that set —
    harness callers exclude the clock and reset, whose post-tick values
    are protocol constants, not design behaviour.  Memories are not
    covered (their state is exercised through the read/write port
    signals, which are).

    Drive it with one :meth:`observe_sim` per observation point —
    typically once after reset (the level baseline; transitions need a
    previous value) and once per stimulus cycle after the tick.

    >>> from repro.sim import Simulator, elaborate
    >>> from repro.verilog import parse_source
    >>> design = elaborate(parse_source(
    ...     "module inv(input a, output y); assign y = ~a; endmodule"),
    ...     "inv")
    >>> sim = Simulator(design)
    >>> cov = CoverageTracker(design)
    >>> cov.observe_sim(sim)              # baseline levels: a=0, y=1
    2
    >>> sim.poke("a", 1)
    >>> cov.observe_sim(sim)              # a rose + y fell + new levels
    4
    >>> sim.poke("a", 0)
    >>> cov.observe_sim(sim)              # a fell + y rose: all covered
    2
    >>> cov.covered_points, cov.total_points, cov.fraction()
    (8, 8, 1.0)
    """

    __slots__ = (
        "names", "widths", "_full", "seen0", "seen1", "rose", "fell",
        "_prev", "cycles", "last_new_cycle", "covered_points",
        "total_points",
    )

    def __init__(
        self,
        design: Design,
        signals: Optional[Iterable[str]] = None,
        exclude: Iterable[str] = (),
    ) -> None:
        dropped = {name for name in exclude if name}
        if signals is None:
            names = [n for n in design.signals if n not in dropped]
        else:
            names = [n for n in signals if n not in dropped]
            unknown = [n for n in names if n not in design.signals]
            if unknown:
                raise ValueError(f"unknown coverage signals: {unknown}")
        self.names: Tuple[str, ...] = tuple(names)
        self.widths: Tuple[int, ...] = tuple(
            design.signals[n].width for n in self.names
        )
        self._full: Tuple[int, ...] = tuple(
            (1 << w) - 1 for w in self.widths
        )
        zero = [0] * len(self.names)
        self.seen0: List[int] = list(zero)
        self.seen1: List[int] = list(zero)
        self.rose: List[int] = list(zero)
        self.fell: List[int] = list(zero)
        #: one previous-value list per lane, grown lazily on first observe
        self._prev: Optional[List[List[int]]] = None
        #: observations so far (1-based cycle counter)
        self.cycles = 0
        #: last observation that covered a new point; 0 = none yet
        self.last_new_cycle = 0
        self.covered_points = 0
        self.total_points = POINTS_PER_BIT * sum(self.widths)

    # -- observation ---------------------------------------------------------

    def observe_sim(self, sim) -> int:
        """Observe the simulator's current signal state; new-point count.

        Scalar backends read through ``peek``; lane-parallel simulators
        (``n_lanes > 1``) read per-lane columns through ``peek_lanes``,
        and each lane advances its own transition history.
        """
        if getattr(sim, "n_lanes", 1) > 1:
            peek_lanes = sim.peek_lanes
            return self.observe(
                [[int(v) for v in peek_lanes(name)] for name in self.names]
            )
        peek = sim.peek
        return self.observe([[int(peek(name))] for name in self.names])

    def observe_values(self, values: Mapping[str, int]) -> int:
        """Observe one name-keyed scalar snapshot (testing convenience)."""
        return self.observe([[int(values[name])] for name in self.names])

    def observe(self, columns: Sequence[Sequence[int]]) -> int:
        """Observe one value column per signal (``columns[i][lane]``).

        Returns the number of coverage points newly covered by this
        observation, across all lanes.
        """
        self.cycles += 1
        prev = self._prev
        if prev is None:
            n_lanes = len(columns[0]) if columns else 1
            prev = self._prev = [
                [0] * len(self.names) for _ in range(n_lanes)
            ]
            first = True
        else:
            first = False
        new_bits = 0
        seen0, seen1 = self.seen0, self.seen1
        rose, fell = self.rose, self.fell
        full = self._full
        for lane, lane_prev in enumerate(prev):
            for i, column in enumerate(columns):
                value = column[lane]
                mask = full[i]
                fresh = (value & ~seen1[i])
                if fresh:
                    seen1[i] |= fresh
                    new_bits += fresh.bit_count()
                fresh = (~value & mask & ~seen0[i])
                if fresh:
                    seen0[i] |= fresh
                    new_bits += fresh.bit_count()
                if not first:
                    before = lane_prev[i]
                    fresh = (~before & value & ~rose[i])
                    if fresh:
                        rose[i] |= fresh
                        new_bits += fresh.bit_count()
                    fresh = (before & ~value & mask & ~fell[i])
                    if fresh:
                        fell[i] |= fresh
                        new_bits += fresh.bit_count()
                lane_prev[i] = value
        obs.count("sim.coverage.observes")
        if new_bits:
            self.covered_points += new_bits
            self.last_new_cycle = self.cycles
            obs.count("sim.coverage.new_points", new_bits)
        return new_bits

    # -- reporting -----------------------------------------------------------

    def fraction(self) -> float:
        """Covered fraction of all points (1.0 for a point-free design)."""
        if not self.total_points:
            return 1.0
        return self.covered_points / self.total_points

    def saturated(self, window: int) -> bool:
        """True once ``window`` consecutive observations added nothing.

        Requires at least one observation; a tracker that has covered
        nothing at all still saturates (a design whose signals never
        move is fully measured by any window of observations).
        """
        if self.cycles == 0:
            return False
        return (self.cycles - self.last_new_cycle) >= window

    @property
    def saturation_cycle(self) -> int:
        """The (1-based) observation that covered the last new point."""
        return self.last_new_cycle

    def summary(self) -> Dict[str, float]:
        """Plain-dict coverage report (what benches persist)."""
        return {
            "total_points": self.total_points,
            "covered_points": self.covered_points,
            "fraction": self.fraction(),
            "cycles": self.cycles,
            "saturation_cycle": self.last_new_cycle,
        }

    def uncovered(self) -> Dict[str, Dict[str, int]]:
        """Per-signal masks of the points still uncovered (debugging)."""
        report: Dict[str, Dict[str, int]] = {}
        for i, name in enumerate(self.names):
            mask = self._full[i]
            missing = {
                "level0": mask & ~self.seen0[i],
                "level1": mask & ~self.seen1[i],
                "rose": mask & ~self.rose[i],
                "fell": mask & ~self.fell[i],
            }
            if any(missing.values()):
                report[name] = missing
        return report

"""Timing estimators shared by ``run.py`` and ``diff.py``.

Interference on the bench hosts is one-sided (a unit is only ever made
slower) and comes in phases: the whole host runs 20-30 % slower for
anything from a second to a minute, then recovers.  Two defences:

* every timed region is followed by a fixed pure-Python *spin*, and the
  region's time is divided by the median of the five nearest spins
  (:func:`calibrate`), which turns wall seconds into *calibrated
  seconds* — what the region takes on a host where the spin takes
  ``SPIN_REF_S``.  A phase slows the region and its spins alike, so it
  cancels; code that got slower does not, because the spin is the
  benchmark's own and never changes;
* the estimate of a workload's time is the *sum over units of the
  fastest calibrated sample of that unit*: a unit is counted slow only
  if every iteration of every round caught it badly.

Medians and raw wall seconds are reported beside the estimate for
information; nothing is gated on them.

Everything here is a pure function of lists of floats, so the harness
test can exercise it on synthetic timings.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence


#: what the spin takes on the quiet reference host: the scale of
#: calibrated seconds (on such a host they equal wall seconds)
SPIN_REF_S = 0.0026
#: spins on each side of a region that join its calibration median
SPIN_RADIUS = 2


def calibrate(
    seconds: Sequence[float], spins: Sequence[float]
) -> List[float]:
    """Wall seconds of consecutive regions -> calibrated seconds.

    ``spins[i]`` is the spin that ran right after region ``i``.  The
    median over neighbours keeps one descheduled spin from deflating
    its region.
    """
    if len(seconds) != len(spins):
        raise ValueError("one spin per timed region")
    out = []
    for index, took in enumerate(seconds):
        near = spins[max(0, index - SPIN_RADIUS):index + SPIN_RADIUS + 1]
        out.append(took * SPIN_REF_S / statistics.median(near))
    return out


def unit_minima(iterations: Sequence[Sequence[float]]) -> List[float]:
    """Per-unit minimum over iterations (each a list of unit seconds)."""
    if not iterations:
        raise ValueError("no timed iterations")
    width = len(iterations[0])
    if any(len(row) != width for row in iterations):
        raise ValueError("iterations disagree on the number of units")
    return [min(row[i] for row in iterations) for i in range(width)]


def quiet_wall_s(iterations: Sequence[Sequence[float]]) -> float:
    """Sum over units of the fastest sample of each unit."""
    return sum(unit_minima(iterations))


def median_wall_s(iterations: Sequence[Sequence[float]]) -> float:
    """Median whole-iteration wall (informational, never gated)."""
    return statistics.median(sum(row) for row in iterations)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def setup_median_s(
    step_s: Sequence[Sequence[float]], spin_s: Sequence[Sequence[float]]
) -> float:
    """Set-up time: median over repetitions of the repetition's
    calibrated steps, summed.

    The median, not the sum of step minima: a set-up of a few ms has
    steps as short as the spin, and the fastest calibrated sample of a
    step is then the one whose spin happened to be slowest (measured on
    ``check_cold``, 9 ms of set-up: six rounds of the same code read
    3.4-5.6 ms by the sum of step minima, 5.8-6.0 ms by this).
    """
    if not step_s or len(step_s) != len(spin_s):
        raise ValueError("one list of spins per set-up repetition")
    return statistics.median(
        sum(calibrate(steps, spins)) for steps, spins in zip(step_s, spin_s)
    )


def relative_spread(values: Sequence[float]) -> float:
    """(max - min) / median of a metric's per-round values; 0 for one."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0

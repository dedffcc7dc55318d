"""Verdict bookkeeping for the combinational all-vectors check.

``repro.vereval.harness._check_all_vectors_batch`` settles a stateless
combinational candidate once with one stimulus vector per lane;
:class:`RetireEngine` turns the resulting output matrix into the verdict
the scalar per-cycle loop would have produced.  It owns:

* **expectation packing** (:func:`expected_matrix`) — the golden trace
  becomes a ``[cycles, outputs]`` ``int64`` matrix;
* **stimulus packing** (:func:`lane_vector`) — one input's values over
  all vectors as an ``int64`` lane column (the checker packs both once
  per golden bundle, ``_GoldenRef.lanes``, not once per candidate);
* **comparison + verdict derivation**
  (:meth:`RetireEngine.retire_all_vectors`) — the lane axis is the cycle
  axis, so the scalar loop's bookkeeping (first mismatching cycle, first
  mismatching output in golden name order, expected/actual values) is an
  ``argmax`` over the mismatch matrix.

Pure bookkeeping over arrays the simulator produces; the settle work
itself stays in :mod:`repro.sim.batch`.  Everything here is ``int64``:
a golden output wider than 63 bits implies, through the checker's
interface gate, a candidate that does not lane-lower, and
``batch_design`` runs before an engine is built — such candidates take
the scalar replay.

Counters (:mod:`repro.obs`): ``retire.allvec_checks``,
``retire.allvec_mismatch``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs

__all__ = [
    "RetireEngine",
    "expected_matrix",
    "lane_vector",
]


def expected_matrix(
    trace: Sequence[Tuple[int, ...]], n_outputs: int
) -> np.ndarray:
    """Golden trace as a ``[cycles, n_outputs]`` int64 comparison matrix
    (empty for an empty trace).  A value past the int64 range raises
    ``OverflowError``: such a golden has no lane-lowerable candidate.
    """
    if not trace:
        return np.zeros((0, n_outputs), dtype=np.int64)
    return np.array(trace, dtype=np.int64)


def lane_vector(values: Sequence[int]) -> np.ndarray:
    """One per-lane stimulus column, packed into int64 like every poke."""
    return np.fromiter(values, dtype=np.int64, count=len(values))


class RetireEngine:
    """Compare→verdict bookkeeping for one all-vectors check.

    Construct one engine per check from the golden's output name order
    and its prebuilt ``[cycles, outputs]`` :func:`expected_matrix` (the
    checker builds that once per golden bundle and shares it read-only;
    the engine never writes it), then call
    :meth:`retire_all_vectors` once with the full
    ``[n_lanes, n_outputs]`` output matrix of a stateless combinational
    design (lane = stimulus vector) and receive the single
    scalar-identical verdict.

    ``result_type`` defaults to
    :class:`repro.sim.testbench.EquivalenceResult`, imported on first use
    so this module stays free of circular imports; any verdict dataclass
    with the same field names works.
    """

    __slots__ = ("names", "expected", "n_lanes", "_result_type")

    def __init__(
        self,
        output_names: Sequence[str],
        expected: np.ndarray,
        n_lanes: int,
        result_type: Optional[type] = None,
    ) -> None:
        if result_type is None:
            from repro.sim.testbench import EquivalenceResult
            result_type = EquivalenceResult
        self.names: Tuple[str, ...] = tuple(output_names)
        self.expected = expected
        self.n_lanes = n_lanes
        self._result_type = result_type

    def retire_all_vectors(self, actual: np.ndarray):
        """Verdict for one combinational design checked lane-per-vector.

        ``actual`` is the ``[n_lanes, n_outputs]`` settled output matrix
        (lane *l* carries stimulus vector *l*, so the lane axis **is**
        the cycle axis).  Reproduces the scalar per-cycle loop's verdict
        exactly: first mismatching cycle, then first mismatching output
        in golden name order.
        """
        obs.count("retire.allvec_checks")
        mismatched = self.expected != actual
        if not mismatched.any():
            return self._result_type(
                equivalent=True, cycles_run=self.n_lanes
            )
        obs.count("retire.allvec_mismatch")
        cycle = int(np.argmax(mismatched.any(axis=1)))
        out_index = int(np.argmax(mismatched[cycle]))
        return self._result_type(
            equivalent=False,
            cycles_run=cycle + 1,
            first_mismatch_cycle=cycle,
            mismatched_output=self.names[out_index],
            expected=int(self.expected[cycle, out_index]),
            actual=int(actual[cycle, out_index]),
        )

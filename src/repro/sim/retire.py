"""Verdict bookkeeping for the combinational all-vectors check.

``repro.vereval.harness._check_all_vectors_batch`` settles a stateless
combinational candidate once with one stimulus vector per lane;
:class:`RetireEngine` turns the resulting output matrix into the verdict
the scalar per-cycle loop would have produced.  It owns:

* **expectation packing** (:func:`expected_matrix`) — the golden trace
  becomes a ``[cycles, outputs]`` matrix, ``int64`` when every value fits
  a lane word and exact-object (arbitrary-precision python ints) when any
  golden output exceeds 63 bits, so wide-datapath problems compare
  exactly instead of overflowing;
* **stimulus packing** (:func:`lane_vector`) — one input's values over
  all vectors as a lane column of the matching dtype;
* **comparison + verdict derivation**
  (:meth:`RetireEngine.retire_all_vectors`) — the lane axis is the cycle
  axis, so the scalar loop's bookkeeping (first mismatching cycle, first
  mismatching output in golden name order, expected/actual values) is an
  ``argmax`` over the mismatch matrix.

Pure bookkeeping over arrays the simulator produces; the settle work
itself stays in :mod:`repro.sim.batch`.  The engine is dtype-blind:
``int64`` and spill (object) lane arrays compare through the same numpy
elementwise paths.

Counters (:mod:`repro.obs`): ``retire.allvec_checks``,
``retire.allvec_mismatch``, ``retire.wide_expected``.
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
    """Golden trace as a ``[cycles, n_outputs]`` comparison matrix.

    ``int64`` when every golden value fits a lane word; exact-object
    (python ints) when any output exceeds the int64 range, so >63-bit
    datapaths compare exactly instead of raising ``OverflowError``.
    Returns an empty int64 matrix for an empty trace.
    """
    if not trace:
        return np.zeros((0, n_outputs), dtype=np.int64)
    try:
        return np.array(trace, dtype=np.int64)
    except OverflowError:
        obs.count("retire.wide_expected")
        wide = np.empty((len(trace), n_outputs), dtype=object)
        for row, values in enumerate(trace):
            wide[row, :] = values
        return wide


def lane_vector(values: Sequence[int], wide: bool) -> np.ndarray:
    """One per-lane stimulus column, dtype-matched to the lane backend.

    ``wide`` selects exact-object storage (spill lanes, >63-bit values);
    otherwise the column packs into int64 like every narrow poke.
    """
    if wide:
        arr = np.empty(len(values), dtype=object)
        arr[:] = list(values)
        return arr
    return np.fromiter(values, dtype=np.int64, count=len(values))


class RetireEngine:
    """Compare→verdict bookkeeping for one all-vectors check.

    Construct one engine per golden reference (output name order and
    trace are frozen at construction), then call
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
        trace: Sequence[Tuple[int, ...]],
        n_lanes: int,
        result_type: Optional[type] = None,
    ) -> None:
        if result_type is None:
            from repro.sim.testbench import EquivalenceResult
            result_type = EquivalenceResult
        self.names: Tuple[str, ...] = tuple(output_names)
        self.expected = expected_matrix(trace, len(self.names))
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

"""One lane retirement engine for every batched checking mode.

Before this module existed the harness carried two hand-rolled copies of
the same retirement logic: the combinational all-vectors fast path
(``repro.vereval.harness._check_all_vectors_batch``) and the sequential
lockstep group runner (``_run_lockstep_group``) each built their own
golden-expectation matrix, compared lane outputs, derived the scalar
first-mismatch bookkeeping, and decided which lanes to retire or replay.
Both now compile into :class:`RetireEngine`, which owns the one
implementation of:

* **expectation packing** — the golden trace becomes a
  ``[cycles, outputs]`` matrix, ``int64`` when every value fits a lane
  word and exact-object (arbitrary-precision python ints) when any
  golden output exceeds 63 bits, so wide-datapath problems compare
  exactly instead of overflowing;
* **lane comparison + verdict derivation** — the scalar loop's exact
  bookkeeping (first mismatching cycle, first mismatching output in
  golden name order, expected/actual values) reproduced over whole lane
  matrices.  The two modes differ only in what a lane *is*:

  ========== ======================= ================================
  mode       lane axis               verdict shape
  ========== ======================= ================================
  all-vectors one stimulus vector    one result for the single design
              per lane (comb designs) (argmax over lanes = cycles)
  lockstep    one candidate design   one result per lane, retired at
              per lane               its first mismatching cycle
  ========== ======================= ================================

* **retire/preempt/finish policy** — mismatching lanes retire with
  their recorded verdict, golden simulation death preempts every still
  undecided active lane with the golden error (exactly where the scalar
  loop would have observed it), and surviving lanes pass with the full
  cycle count at :meth:`RetireEngine.finish`;
* **scalar replay of stragglers** — :func:`replay_stragglers` walks the
  lanes no batched run could decide (runtime
  :class:`~repro.sim.batch.BatchDivergence`, shapes that never grouped)
  and fills their verdicts from the caller's scalar check, preserving
  per-candidate error classification.

Everything here is pure verdict bookkeeping over arrays the simulators
produce; the settle work itself stays in :mod:`repro.sim.batch`.  The
engine is deliberately dtype-blind: ``int64`` and spill (object) lane
arrays compare through the same numpy elementwise paths, which is what
lets one engine serve both lane representations.

Counters (:mod:`repro.obs`): ``retire.allvec_checks``,
``retire.allvec_mismatch``, ``retire.lanes_retired``,
``retire.lanes_passed``, ``retire.golden_preempts``,
``retire.scalar_replays``, ``retire.wide_expected``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

__all__ = [
    "RetireEngine",
    "expected_matrix",
    "lane_vector",
    "replay_stragglers",
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
    """Settle→compare→retire→replay bookkeeping for one check run.

    Construct one engine per golden reference (output name order and
    trace are frozen at construction); then either:

    * call :meth:`retire_all_vectors` once with the full
      ``[n_lanes, n_outputs]`` output matrix of a stateless
      combinational design (lane = stimulus vector) and receive the
      single scalar-identical verdict, or
    * drive the lockstep protocol — :meth:`retire_cycle` per simulated
      cycle, :meth:`preempt` when the golden trace runs out early,
      :meth:`finish` when stimulus is exhausted — and read one verdict
      per candidate lane from :attr:`results`.

    ``result_type`` is injected (the harness passes
    :class:`repro.sim.testbench.EquivalenceResult`) so this module stays
    free of circular imports and the engine stays reusable for any
    verdict dataclass with the same field names.
    """

    __slots__ = ("names", "expected", "n_lanes", "results", "_result_type")

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
        self.results: List[Optional[object]] = [None] * n_lanes
        self._result_type = result_type

    # ------------------------------------------------------------------
    # all-vectors mode: lane == stimulus vector, one design
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # lockstep mode: lane == candidate design, shared stimulus
    # ------------------------------------------------------------------

    def retire_cycle(
        self, cycle: int, actual: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Compare one cycle; record verdicts for newly-bad lanes.

        ``actual`` is the ``[n_lanes, n_outputs]`` per-candidate output
        matrix after this cycle's tick, ``active`` the simulator's live
        lane mask.  Returns the boolean retire mask (bad **and** active)
        for the caller to pass to ``sim.retire_lanes`` — the simulator
        keeps owning lane liveness, the engine owns verdicts.
        """
        expected_row = self.expected[cycle]
        mismatched = actual != expected_row
        lane_bad = mismatched.any(axis=1) & active
        if lane_bad.any():
            for lane in np.nonzero(lane_bad)[0]:
                out_index = int(np.argmax(mismatched[lane]))
                self.results[int(lane)] = self._result_type(
                    equivalent=False,
                    cycles_run=cycle + 1,
                    first_mismatch_cycle=cycle,
                    mismatched_output=self.names[out_index],
                    expected=int(expected_row[out_index]),
                    actual=int(actual[lane, out_index]),
                )
            obs.count("retire.lanes_retired", int(lane_bad.sum()))
        return lane_bad

    def preempt(self, error: Optional[str], active: np.ndarray) -> list:
        """Golden death preempts every undecided active lane.

        The golden design steps before any candidate each cycle, so when
        its recorded trace ends early every lane still undecided at that
        cycle observes the golden error — exactly the scalar verdict.
        """
        preempted = 0
        for lane in range(self.n_lanes):
            if self.results[lane] is None and active[lane]:
                self.results[lane] = self._result_type(
                    equivalent=False, error=error
                )
                preempted += 1
        if preempted:
            obs.count("retire.golden_preempts", preempted)
        return self.results

    def finish(self, cycles_run: int) -> list:
        """Stimulus exhausted: surviving lanes pass with the full count."""
        passed = 0
        for lane in range(self.n_lanes):
            if self.results[lane] is None:
                self.results[lane] = self._result_type(
                    equivalent=True, cycles_run=cycles_run
                )
                passed += 1
        if passed:
            obs.count("retire.lanes_passed", passed)
        return self.results


def replay_stragglers(
    results: list,
    indices: Sequence[int],
    check: Callable[[int], object],
    on_error: Callable[[Exception], object],
) -> None:
    """Scalar replay for lanes no batched run could decide.

    Fills ``results[index]`` for every ``index`` in ``indices`` by
    calling ``check(index)`` on the scalar path; a ``SimulationError``
    (or anything else ``check`` raises that ``on_error`` maps) becomes
    ``on_error(exc)``'s verdict.  This is the tail of the retirement
    contract: per-candidate values *and* error classification always
    match a candidate-by-candidate scalar loop.
    """
    from repro.errors import SimulationError

    for index in indices:
        obs.count("retire.scalar_replays")
        try:
            results[index] = check(index)
        except SimulationError as exc:
            results[index] = on_error(exc)

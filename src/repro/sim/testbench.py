"""Testbench and equivalence-checking harness.

The functional benchmark (mini-VerilogEval) decides pass/fail for a model
completion by simulating it against the problem's golden module under the
same stimulus and comparing every output each cycle.  This module provides:

* :class:`Testbench` — drive a single design with named clock/reset,
* :func:`random_rows` — seeded random stimulus as input names + one
  value row per cycle, the shape the cycle kernel steps through, and
  :func:`random_stimulus`, its per-cycle dict view,
* :func:`stimulus_rows` — any episode of dicts in that row shape,
* :func:`sweep_random_stimulus` — N seeded stimulus episodes, one
  scalar replay each,
* :func:`equivalence_check` — lockstep golden-vs-candidate comparison.

All front the multi-backend :class:`~repro.sim.simulator.Simulator`
(compiled by default, interpreter as reference); pass ``backend=`` to
pin one explicitly.  ``Testbench.drive`` applies a whole stimulus vector
through :meth:`~repro.sim.simulator.Simulator.poke_many`, so one vector
costs one combinational settle and one edge-detection pass regardless
of how many inputs it carries; ``Testbench.step`` and the sweep run a
whole cycle as one :meth:`~repro.sim.simulator.Simulator.cycle_fn` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.elaborate import Design
from repro.sim.simulator import Simulator
from repro.sim.values import mask
from repro.utils.rng import DeterministicRNG

#: One cycle of input values, keyed by port name (clock excluded).
StimulusVector = Dict[str, int]

#: inputs random stimulus leaves to the harness by default
_CONTROL_INPUTS = ("clk", "rst", "rst_n", "reset", "resetn")


class Testbench:
    """Synchronous test harness around a :class:`Simulator`.

    If ``clock`` is None the design is treated as purely combinational:
    ``step`` just applies inputs and settles.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        design: Design,
        clock: Optional[str] = "clk",
        reset: Optional[str] = None,
        reset_active_high: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self.design = design
        self.sim = Simulator(design, backend=backend)
        input_names = {s.name for s in design.inputs}
        if clock is not None and clock not in input_names:
            clock = None  # combinational design; tolerate a missing clock
        self.clock = clock
        if reset is not None and reset not in input_names:
            reset = None
        self.reset = reset
        self.reset_active_high = reset_active_high
        # Port name lists are per-design constants; resolve them once
        # instead of re-walking the signal table every sample().
        special = {self.clock, self.reset}
        self._input_names = [
            s.name for s in design.inputs if s.name not in special
        ]
        self._output_names = [s.name for s in design.outputs]
        self._step_names: Optional[Tuple[str, ...]] = None
        self._step_fn = None

    @property
    def input_names(self) -> List[str]:
        return self._input_names

    @property
    def output_names(self) -> List[str]:
        return self._output_names

    def apply_reset(self, cycles: int = 2) -> None:
        """Assert reset for ``cycles`` clock cycles, then deassert."""
        if self.reset is None:
            return
        active = 1 if self.reset_active_high else 0
        # Two cycle kernels (re-poking an unchanged reset is free): a
        # synchronous reset takes the specialised kernel; an asynchronous
        # one is a driven trigger, so it takes the poke sequence, whose
        # pokes fire the same generated edge functions.
        drive = self.sim.cycle_fn(None, (self.reset,), ())
        if self.clock is not None and cycles > 0:
            tick = self.sim.cycle_fn(self.clock, (self.reset,), ())
            for _ in range(cycles):
                tick((active,))
        else:
            drive((active,))
        drive((1 - active,))

    def drive(self, vector: StimulusVector) -> None:
        """Apply one vector of input values (no clock toggle).

        The whole vector lands in one batch: one settle, one
        edge-detection pass (see :meth:`Simulator.poke_many`).
        """
        self.sim.poke_many(vector)

    def tick(self, cycles: int = 1) -> None:
        """Toggle the clock low->high ``cycles`` times."""
        if self.clock is None:
            return
        for _ in range(cycles):
            self.sim.poke(self.clock, 0)
            self.sim.poke(self.clock, 1)

    def step(self, vector: StimulusVector) -> Dict[str, int]:
        """Apply inputs, advance one cycle (if clocked), read outputs.

        ``drive``; ``tick``; ``sample`` as one call of the simulator's
        cycle kernel (:meth:`Simulator.cycle_fn`), rebuilt only when the
        vector's input names change.
        """
        names = tuple(vector)
        if names != self._step_names:
            self._step_fn = self.sim.cycle_fn(
                self.clock, names, self._output_names
            )
            self._step_names = names
        return dict(zip(self._output_names, self._step_fn(vector.values())))

    def sample(self) -> Dict[str, int]:
        """Read all outputs after combinational settle."""
        peek = self.sim.peek
        return {name: peek(name) for name in self._output_names}


def stimulus_rows(
    stimulus: Sequence[StimulusVector],
) -> Tuple[Tuple[str, ...], List[Tuple[int, ...]]]:
    """An episode as ``(input names, one value row per cycle)``.

    The shape :meth:`Simulator.cycle_fn` steps through: names resolve
    once per episode instead of once per cycle.  Every vector must drive
    the same inputs (``ValueError`` otherwise); key order may differ.
    """
    if not stimulus:
        return (), []
    first = stimulus[0]
    names = tuple(first)
    rows = []
    for vector in stimulus:
        if tuple(vector) == names:
            rows.append(tuple(vector.values()))
        elif vector.keys() == first.keys():
            rows.append(tuple([vector[n] for n in names]))
        else:
            raise ValueError(
                "stimulus vectors of one episode must drive the same "
                f"inputs: {sorted(vector)} vs {sorted(names)}"
            )
    return names, rows


def random_rows(
    design: Design,
    cycles: int,
    seed: int,
    exclude: Sequence[str] = _CONTROL_INPUTS,
) -> Tuple[Tuple[str, ...], List[Tuple[int, ...]]]:
    """``cycles`` random input rows for ``design``, as ``(input names,
    one value row per cycle)`` — the shape :func:`stimulus_rows` returns.

    Values are uniform over each input's width.  Control-looking inputs
    in ``exclude`` are left to the harness.  The stream is exactly
    ``DeterministicRNG(seed).randint(0, 2**w - 1)`` per input per cycle,
    drawn without its call chain: CPython's ``randint`` there is
    ``_randbelow(2**w)``, which takes ``w + 1`` bits from
    ``getrandbits`` and draws again while the value is ``>= 2**w``.
    """
    getrandbits = DeterministicRNG(seed).getrandbits
    inputs = [s for s in design.inputs if s.name not in exclude]
    draws = [(s.width + 1, 1 << s.width) for s in inputs]
    rows = []
    for _ in range(cycles):
        row = []
        for bits, bound in draws:
            value = getrandbits(bits)
            while value >= bound:
                value = getrandbits(bits)
            row.append(value)
        rows.append(tuple(row))
    return tuple(s.name for s in inputs), rows


def random_stimulus(
    design: Design,
    cycles: int,
    seed: int,
    exclude: Sequence[str] = _CONTROL_INPUTS,
) -> List[StimulusVector]:
    """Generate ``cycles`` random input vectors for ``design``: the
    per-cycle dict view of :func:`random_rows`."""
    names, rows = random_rows(design, cycles, seed, exclude)
    return [dict(zip(names, row)) for row in rows]


@dataclass
class SweepResult:
    """Per-episode outcomes of a multi-seed stimulus sweep.

    ``traces[i]`` is one output tuple per completed cycle of episode
    ``i``, aligned to ``output_names``; ``errors[i]`` carries the
    episode's ``SimulationError`` message (with a truncated trace) when
    it failed.
    """

    seeds: Tuple[int, ...]
    output_names: Tuple[str, ...]
    traces: List[List[Tuple[int, ...]]]
    errors: List[Optional[str]]

    def lane(self, index: int) -> List[Dict[str, int]]:
        """Materialize one episode's trace as per-cycle output dicts."""
        return [
            dict(zip(self.output_names, row)) for row in self.traces[index]
        ]

    @property
    def ok(self) -> bool:
        return all(error is None for error in self.errors)


def sweep_random_stimulus(
    design: Design,
    cycles: int,
    seeds: Sequence[int],
    clock: Optional[str] = "clk",
    reset: Optional[str] = None,
    reset_active_high: bool = True,
    exclude: Sequence[str] = _CONTROL_INPUTS,
    backend: Optional[str] = None,
    stimuli: Optional[Sequence[Sequence[StimulusVector]]] = None,
) -> SweepResult:
    """Run one seeded :func:`random_rows` episode per seed.

    Every episode is its own scalar replay: a fresh :class:`Testbench`
    on ``backend`` (``None``: the process default), reset, then one
    :meth:`~repro.sim.simulator.Simulator.cycle_fn` call per cycle — so
    a ``SimulationError`` ends that episode only, with its message in
    ``errors``.

    ``stimuli`` supplies one pre-generated episode (a vector list) per
    seed instead of deriving them from ``seeds`` — for custom stimulus
    programs, or to amortize generation across repeated sweeps.
    Episodes may differ in length; the vectors of one episode must drive
    the same inputs (:func:`stimulus_rows`).

    Malformed inputs fail fast with ``ValueError``: negative ``cycles``,
    a ``stimuli`` list whose length does not match ``seeds``, an episode
    whose vectors drive different inputs.

    Example (two seeded episodes of a toggling register):

    >>> from repro.sim import elaborate, sweep_random_stimulus
    >>> from repro.verilog import parse_source
    >>> design = elaborate(parse_source(
    ...     "module t(input clk, input d, output reg q);"
    ...     " always @(posedge clk) q <= d; endmodule"), "t")
    >>> result = sweep_random_stimulus(design, cycles=4, seeds=(0, 1))
    >>> result.ok, len(result.traces), len(result.traces[0])
    (True, 2, 4)
    >>> result.lane(0) == [
    ...     {"q": row[0]} for row in result.traces[0]]
    True
    """
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    seeds = tuple(seeds)
    if stimuli is None:
        episodes = [
            random_rows(design, cycles, seed, exclude) for seed in seeds
        ]
    elif len(stimuli) != len(seeds):
        raise ValueError("stimuli must supply exactly one episode per seed")
    else:
        episodes = [stimulus_rows(stimulus) for stimulus in stimuli]
    names = tuple(s.name for s in design.outputs)
    traces: List[List[Tuple[int, ...]]] = []
    errors: List[Optional[str]] = []
    for input_names, rows in episodes:
        trace: List[Tuple[int, ...]] = []
        error: Optional[str] = None
        try:
            bench = Testbench(
                design, clock, reset, reset_active_high, backend=backend
            )
            bench.apply_reset()
            step = bench.sim.cycle_fn(bench.clock, input_names, names)
            for row in rows:
                trace.append(step(row))
        except SimulationError as exc:
            error = str(exc)
        traces.append(trace)
        errors.append(error)
    return SweepResult(
        seeds=seeds, output_names=names, traces=traces, errors=errors
    )


@dataclass
class EquivalenceResult:
    """Outcome of a lockstep golden-vs-candidate comparison."""

    equivalent: bool
    cycles_run: int = 0
    first_mismatch_cycle: Optional[int] = None
    mismatched_output: Optional[str] = None
    expected: Optional[int] = None
    actual: Optional[int] = None
    error: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


def interface_signature(design: Design) -> Dict[str, Dict[str, int]]:
    """Port names and widths, the equality key for interface checks."""
    return {
        "inputs": {s.name: s.width for s in design.inputs},
        "outputs": {s.name: s.width for s in design.outputs},
    }


_interface_signature = interface_signature


def equivalence_check(
    golden: Design,
    candidate: Design,
    stimulus: Sequence[StimulusVector],
    clock: Optional[str] = "clk",
    reset: Optional[str] = None,
    reset_active_high: bool = True,
    reset_cycles: int = 2,
    backend: Optional[str] = None,
) -> EquivalenceResult:
    """Simulate both designs in lockstep and compare outputs every cycle.

    The candidate must present exactly the golden interface (same port
    names and widths); an interface mismatch is an immediate fail, which
    mirrors how VerilogEval rejects completions that alter the provided
    module header.
    """
    if _interface_signature(golden) != _interface_signature(candidate):
        return EquivalenceResult(
            equivalent=False,
            error="interface mismatch",
            notes=[
                f"golden={_interface_signature(golden)}",
                f"candidate={_interface_signature(candidate)}",
            ],
        )
    try:
        tb_gold = Testbench(golden, clock, reset, reset_active_high,
                            backend=backend)
        tb_cand = Testbench(candidate, clock, reset, reset_active_high,
                            backend=backend)
        tb_gold.apply_reset(reset_cycles)
        tb_cand.apply_reset(reset_cycles)
        for cycle, vector in enumerate(stimulus):
            out_gold = tb_gold.step(vector)
            out_cand = tb_cand.step(vector)
            for name, expected in out_gold.items():
                actual = out_cand.get(name)
                if actual != expected:
                    return EquivalenceResult(
                        equivalent=False,
                        cycles_run=cycle + 1,
                        first_mismatch_cycle=cycle,
                        mismatched_output=name,
                        expected=expected,
                        actual=actual,
                    )
    except SimulationError as exc:
        return EquivalenceResult(equivalent=False, error=str(exc))
    return EquivalenceResult(equivalent=True, cycles_run=len(stimulus))

"""Cycle-based two-state RTL simulator with two execution backends.

This package substitutes for the commercial/open-source simulation used by
VerilogEval to decide functional correctness.  It elaborates a parsed
design (resolving parameters and flattening hierarchy), then simulates it
with synchronous semantics:

* continuous assignments and combinational ``always`` blocks settle after
  every input or state change;
* edge-triggered ``always`` blocks execute on clock edges with nonblocking
  assignments committed atomically (async resets are honoured via edge
  detection on every input change);
* all state is two-valued — registers start at 0 and designs are expected
  to be reset-initialized, which holds for the benchmark problems.

Execution backends
------------------

``Simulator(design)`` fronts two cycle-identical backends:

========== ==================== ===========================================
backend    module               when it is selected
========== ==================== ===========================================
compiled   repro.sim.compile    default (``"auto"``): slot-indexed state,
                                generated Python source (one full-pass
                                ``comb`` that is every settle, fused
                                per-edge functions behind the cycle
                                kernel) — the scalar path
interp     repro.sim.simulator  ``backend="interp"``, or ``"auto"`` when
                                the design cannot be statically lowered or
                                does not levelize; AST-walking ground truth
                                for differentials
========== ==================== ===========================================

Beside them, :mod:`repro.sim.batch` is a lane-parallel evaluator for
stateless combinational designs (:class:`~repro.sim.batch.BatchSimulator`:
per-slot numpy ``int64`` arrays of shape ``[n_lanes]``, one full-level
sweep evaluates every lane).  It is off the verdict path: the pass@k
checker simulates every candidate on the scalar replay, and the lane
evaluator stays for the perf ledger's layer walk, which times its
lowering.

Backend selection: ``Simulator(design, backend=...)`` or
:func:`~repro.sim.simulator.set_default_backend`.  ``"auto"`` uses the
compiled backend whenever the design statically lowers and silently falls
back to the interpreter otherwise.

Fallback contracts: a design the compiler cannot size, or whose
combinational region the static scheduler cannot levelize (combinational
cycles, multiple combinational drivers of one signal, or a node reading a
value it also drives), raises ``UncompilableDesign``; ``"auto"`` runs it
on the interpreter, whose bounded full-pass fixpoint classifies true
combinational loops, and ``"compiled"`` refuses it (*interpreter
fallback*).  The lane evaluator is narrower: a design that holds state
(edge blocks, ``initial`` statements, memories, latches, nonblocking
writes), writes a select lvalue or carries anything wider than 63 bits
raises ``UnbatchableDesign`` (one that does not levelize, the broader
``UncompilableDesign``).
Differential tests in ``tests/test_sim_compile.py`` and
``tests/test_sim_batch.py`` enforce identity across every ``vgen``
family and the vereval problem set.

One testbench cycle is one call: ``sim.cycle_fn(clock, input_names,
output_names)`` returns ``step(row) -> outputs``, defined as exactly
``poke_many`` + ``poke(clock, 0)`` + ``poke(clock, 1)`` + one ``peek``
per output.  The interpreter runs that sequence; the compiled backend
resolves slots, masks and an output getter once and — when the clock
feeds only edge triggers and the drive cannot move a trigger bit —
replaces the clock pokes by a state write plus that edge's generated
function.  Every compiled edge event is one such call: a design whose
blocks can move a trigger (ripple and register-gated clocks) or whose
triggers fire block sets that do not nest (independent clock domains)
does not compile and runs on the interpreter.
:meth:`Testbench.step <repro.sim.testbench.Testbench.step>`, the sweep
and the golden trace are built on it.  One replay against a recorded
trace is one call too: ``sim.replay_fn(clock, input_names,
output_names)`` returns ``replay(rows, trace) -> (cycles_matched,
outputs)``, the ``cycle_fn`` loop that stops at the first cycle whose
outputs differ from the trace's (``outputs`` is None when none does).
On every backend it loops that backend's ``cycle_fn``; the vereval
trace check is one such call per candidate
(``tests/test_sim_compile.py::TestCycleKernel`` is the
identity oracle for both kernels).

Compiled artifacts can persist across processes through the opt-in disk
cache in :mod:`repro.sim.cache` (``REPRO_SIM_CACHE=/path`` — see that
module for the key scheme), which evaluation pool workers use to skip
re-lexing/re-parsing/re-elaborating golden and duplicate candidate
modules.

See ``docs/architecture.md`` for the full backend matrix and contracts.
(:func:`~repro.sim.batch.build_lockstep_group` and
:func:`~repro.sim.batch.lockstep_shape_digest` are exported only because
the frozen perf-ledger walk imports them; nothing in ``repro`` calls
them.)

The public entry points are :func:`elaborate` and the
:class:`~repro.sim.testbench.Testbench` /
:func:`~repro.sim.testbench.equivalence_check` /
:func:`~repro.sim.testbench.sweep_random_stimulus` harness.
"""

from repro.sim.values import mask, to_signed, from_signed, bit_length_for
from repro.sim.elaborate import Design, Signal, elaborate
from repro.sim.simulator import (
    BACKENDS,
    InterpreterSimulator,
    Simulator,
    default_backend,
    set_default_backend,
)
from repro.sim.compile import (
    CompiledDesign,
    CompiledSimulator,
    UncompilableDesign,
    compile_design,
)
from repro.sim.batch import (
    BatchDesign,
    BatchSimulator,
    UnbatchableDesign,
    batch_design,
    build_lockstep_group,
    lockstep_shape_digest,
)
from repro.sim.testbench import (
    EquivalenceResult,
    StimulusVector,
    SweepResult,
    Testbench,
    equivalence_check,
    interface_signature,
    random_rows,
    random_stimulus,
    stimulus_rows,
    sweep_random_stimulus,
)

__all__ = [
    "mask",
    "to_signed",
    "from_signed",
    "bit_length_for",
    "Design",
    "Signal",
    "elaborate",
    "BACKENDS",
    "Simulator",
    "InterpreterSimulator",
    "CompiledSimulator",
    "CompiledDesign",
    "UncompilableDesign",
    "compile_design",
    "BatchDesign",
    "BatchSimulator",
    "UnbatchableDesign",
    "batch_design",
    "build_lockstep_group",
    "lockstep_shape_digest",
    "default_backend",
    "set_default_backend",
    "Testbench",
    "StimulusVector",
    "SweepResult",
    "EquivalenceResult",
    "equivalence_check",
    "interface_signature",
    "random_rows",
    "random_stimulus",
    "stimulus_rows",
    "sweep_random_stimulus",
]

"""Differential tests: compiled backend vs the interpreter reference.

The compiled backend must be *cycle-identical* to the interpreter — same
per-cycle outputs under the same stimulus, same error classification for
combinational loops — across every generator family, the vereval problem
set, and randomized (hypothesis-driven) family/seed/stimulus draws.
"""

import ast as python_ast
import dataclasses
import importlib.util
import marshal
import os
import pickle
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SimulationError
from repro.sim import compile as sim_compile
from repro.sim import (
    CompiledSimulator,
    Design,
    InterpreterSimulator,
    Simulator,
    Testbench,
    UncompilableDesign,
    compile_design,
    default_backend,
    elaborate,
    equivalence_check,
    random_stimulus,
    set_default_backend,
    stimulus_rows,
)
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set
from repro.vgen import FAMILIES, generate_family, mutate
from repro.verilog import parse_source

ALL_FAMILIES = sorted(FAMILIES)


def build(source, top):
    return elaborate(parse_source(source), top)


#: two clock domains: `p` reads the register the other domain writes
TWO_DOMAINS = (
    "module m(input a, input b, output reg [3:0] q, output reg [3:0] p);"
    " always @(posedge a) q <= q + 1;"
    " always @(posedge b) p <= p + q; endmodule"
)

#: `u0.clk` and `u1.clk` are port copies of `clk`: their edges are its
ONE_CLOCK_TWO_INSTANCES = (
    "module r(input clk, input [3:0] d, output reg [3:0] q);"
    " always @(posedge clk) q <= d; endmodule"
    " module m(input clk, input [3:0] d, output [3:0] q, output [3:0] w);"
    " r u0(.clk(clk), .d(d), .q(w)); r u1(.clk(clk), .d(w + 1), .q(q));"
    " endmodule"
)

#: one trigger, `gclk`, which the posedge block closes by writing `stop`
REGISTER_GATED_CLOCK = (
    "module m(input clk, input en, output reg q, output reg [3:0] n);"
    " reg stop; wire gclk; assign gclk = clk & ~stop;"
    " always @(posedge gclk) begin n <= n + 1; stop <= en; end"
    " always @(negedge gclk) q <= ~q; endmodule"
)

#: the same gate held in a memory word
MEMORY_GATED_CLOCK = (
    "module m(input clk, input en, input [1:0] a, output reg q,"
    " output reg [3:0] n); reg [1:0] stop [0:3]; wire gclk;"
    " assign gclk = clk & (stop[0] == 0);"
    " always @(posedge gclk) begin n <= n + 1; stop[a] <= {1'b0, en}; end"
    " always @(negedge gclk) q <= ~q; endmodule"
)


def lockstep_module(module, cycles=32, stim_seed=11):
    """Run a GeneratedModule on both backends and compare every cycle."""
    interface = module.interface
    benches = []
    for backend in ("compiled", "interp"):
        design = build(module.source, module.name)
        benches.append(
            Testbench(
                design,
                clock=interface.clock,
                reset=interface.reset,
                reset_active_high=interface.reset_active_high,
                backend=backend,
            )
        )
    compiled, interp = benches
    assert isinstance(compiled.sim, CompiledSimulator)
    assert isinstance(interp.sim, InterpreterSimulator)
    compiled.apply_reset()
    interp.apply_reset()
    stimulus = random_stimulus(compiled.design, cycles, seed=stim_seed)
    for cycle, vector in enumerate(stimulus):
        out_compiled = compiled.step(vector)
        out_interp = interp.step(vector)
        assert out_compiled == out_interp, (
            module.name, cycle, out_compiled, out_interp
        )
    # Full-state check, not just ports: every flat signal and memory word.
    assert compiled.sim.state == interp.sim.state
    assert compiled.sim.mems == interp.sim.mems


class TestEveryFamilyDifferential:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cycle_identical(self, family):
        for seed in range(3):
            module = generate_family(
                family, DeterministicRNG(seed).fork("diff", family)
            )
            lockstep_module(module, cycles=32, stim_seed=seed + 5)


class TestProblemSetDifferential:
    def test_vereval_goldens_cycle_identical(self):
        problems = build_problem_set(n_problems=40)
        assert problems
        for problem in problems:
            lockstep_module(
                problem.module,
                cycles=problem.stimulus_cycles,
                stim_seed=problem.stimulus_seed,
            )


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    seed=st.integers(0, 2**20),
    stim_seed=st.integers(0, 2**20),
)
def test_fuzz_lockstep(family, seed, stim_seed):
    module = generate_family(
        family, DeterministicRNG(seed).fork("fuzz", family)
    )
    lockstep_module(module, cycles=16, stim_seed=stim_seed)


class TestErrorClassification:
    LOOP = (
        "module m(output y); wire a, b;"
        " assign a = ~b; assign b = a; assign y = a; endmodule"
    )

    def test_comb_loop_detected_by_both(self):
        # A loop does not levelize: "auto" runs it on the interpreter,
        # whose fixpoint classifies it, and "compiled" refuses it.
        for backend in ("auto", "interp"):
            with pytest.raises(SimulationError, match="combinational loop"):
                Simulator(build(self.LOOP, "m"), backend=backend)
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(self.LOOP, "m"), backend="compiled")

    def test_loop_design_is_not_levelized(self):
        with pytest.raises(UncompilableDesign, match="combinational cycle"):
            compile_design(build(self.LOOP, "m"))

    def test_multi_driver_oscillation_matches(self):
        source = (
            "module m(input a, input b, output y);"
            " assign y = a; assign y = b; endmodule"
        )
        for backend in ("auto", "interp"):
            sim = Simulator(build(source, "m"), backend=backend)
            assert isinstance(sim, InterpreterSimulator)
            with pytest.raises(SimulationError):
                sim.poke("a", 1)  # drivers disagree -> never settles
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(source, "m"), backend="compiled")

    def test_unknown_signal_errors_match(self):
        design = build("module m(input a, output y); assign y = a;"
                       " endmodule", "m")
        for backend in ("compiled", "interp"):
            sim = Simulator(design, backend=backend)
            with pytest.raises(SimulationError):
                sim.peek("ghost")

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_unknown_memory_peek_errors_match(self, backend):
        sim = Simulator(build(
            "module m(input clk, input [1:0] a, input [3:0] d);"
            " reg [3:0] mem [0:3]; always @(posedge clk) mem[a] <= d;"
            " endmodule", "m"
        ), backend=backend)
        assert sim.peek_mem("mem", 3) == 0
        with pytest.raises(SimulationError, match="unknown memory 'ghost'"):
            sim.peek_mem("ghost", 0)
        with pytest.raises(SimulationError, match="out of range"):
            sim.peek_mem("mem", 4)


class TestFallbackModes:
    def test_self_assign_falls_back_to_fixpoint(self):
        # `assign x = x | a` reads what it drives: a real self-edge, not
        # levelizable.  "auto" runs it on the interpreter's fixpoint;
        # "compiled" refuses it.
        source = (
            "module m(input clk, input [3:0] a, output wire [3:0] x,"
            " output reg [3:0] q);"
            " assign x = x | a;"
            " always @(posedge clk) q <= q + x;"
            " endmodule"
        )
        with pytest.raises(UncompilableDesign, match="reads a signal it"):
            compile_design(build(source, "m"))
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(source, "m"), backend="compiled")
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("auto", "interp")]
        assert all(isinstance(sim, InterpreterSimulator) for sim in sims)
        for sim in sims:
            for a in (0b0001, 0b0100, 0b0001, 0b1000, 0b0000):
                sim.poke("a", a)
                sim.poke("clk", 0)
                sim.poke("clk", 1)
        assert sims[0].state == sims[1].state
        assert sims[0].peek("x") == 0b1101
        assert sims[0].peek("q") == (0b0001 + 0b0101 * 2 + 0b1101 * 2) % 16

    def test_identity_self_assign_levelizes(self):
        # `assign count = count` (a vgen counter style variant) stores
        # what it reads: it levelizes and keeps its node index, and the
        # node still counts towards the interpreter's settle round bound
        # (the compiled backend settles in one pass and has none).
        source = GALLERY["identity_self_assign_counter"][0]
        compiled = compile_design(build(source, "m"))
        assert compiled.levelized
        assert len(compiled.nodes) == 1
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("compiled", "interp")]
        assert isinstance(sims[0], CompiledSimulator)
        assert isinstance(sims[1], InterpreterSimulator)
        assert not hasattr(sims[0], "_max_rounds")
        assert sims[1]._max_rounds == 2 * 1 + 16
        for sim in sims:
            sim.poke("en", 1)
            for _ in range(5):
                sim.poke("clk", 0)
                sim.poke("clk", 1)
        assert sims[0].peek("count") == sims[1].peek("count") == 5

    def test_auto_counts_each_interpreter_fallback(self):
        before = obs.counter_value("sim.interp_fallback")
        source = GALLERY["ripple_counter"][0]
        sim = Simulator(build(source, "m"), backend="auto")
        assert isinstance(sim, InterpreterSimulator)
        Simulator(build(source, "m"), backend="interp")
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(source, "m"), backend="compiled")
        Simulator(build(GALLERY["plain_counter"][0], "m"), backend="auto")
        assert obs.counter_value("sim.interp_fallback") == before + 1

    def test_partial_continuous_assigns_fall_back(self):
        source = (
            "module m(input [3:0] a, input [3:0] b, output [7:0] y);"
            " assign y[3:0] = a; assign y[7:4] = b; endmodule"
        )
        with pytest.raises(UncompilableDesign, match="several"):
            compile_design(build(source, "m"))  # two comb drivers of y
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(source, "m"), backend="compiled")
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("auto", "interp")]
        assert all(isinstance(sim, InterpreterSimulator) for sim in sims)
        for sim in sims:
            sim.poke("a", 0x5)
            sim.poke("b", 0xA)
        assert sims[0].peek("y") == sims[1].peek("y") == 0xA5

    def test_unsizable_design_falls_back_to_interpreter(self):
        # Part-select bounds that depend on a runtime integer cannot be
        # statically sized: "auto" silently uses the interpreter,
        # "compiled" refuses.
        source = (
            "module m(input [7:0] d, output reg [1:0] y); integer i;"
            " always @(*) begin i = 2; y = d[i + 1:i]; end endmodule"
        )
        design = build(source, "m")
        sim = Simulator(design)  # auto
        assert isinstance(sim, InterpreterSimulator)
        sim.poke("d", 0b1100)
        assert sim.peek("y") == 0b11
        with pytest.raises(SimulationError):
            Simulator(build(source, "m"), backend="compiled")


class TestCompiledStructure:
    def test_fifo_is_levelized_and_slot_indexed(self):
        module = generate_family("fifo", DeterministicRNG(0x9EEF))
        design = build(module.source, module.name)
        compiled = compile_design(design)
        assert compiled.levelized
        assert len(compiled.topo) == len(compiled.nodes) == (
            len(design.comb_assigns) + len(design.comb_blocks)
        )
        assert sorted(compiled.slot_of.values()) == list(
            range(compiled.n_signals)
        )
        # compile is once-per-design (cached on the Design object)
        assert compile_design(design) is compiled

    def test_trigger_slots_precomputed(self):
        design = build(
            "module m(input clk, input rst, output reg q);"
            " always @(posedge clk or posedge rst)"
            " if (rst) q <= 0; else q <= ~q; endmodule", "m"
        )
        compiled = compile_design(design)
        assert len(compiled.trigger_slots) == 2
        assert all(isinstance(s, int) for s in compiled.trigger_slots)


class TestPokeSemantics:
    def test_poke_many_matches_serial_pokes(self):
        for family in ("alu", "fifo", "traffic_fsm"):
            module = generate_family(
                family, DeterministicRNG(3).fork("pm", family)
            )
            interface = module.interface
            benches = [
                Testbench(
                    build(module.source, module.name),
                    clock=interface.clock,
                    reset=interface.reset,
                    reset_active_high=interface.reset_active_high,
                )
                for _ in range(2)
            ]
            for bench in benches:
                bench.apply_reset()
            batched, serial = benches
            for vector in random_stimulus(batched.design, 24, seed=9):
                batched.sim.poke_many(vector)
                for name, value in vector.items():
                    serial.sim.poke(name, value)
                batched.tick()
                serial.tick()
                assert batched.sample() == serial.sample()

    def test_poke_many_edge_on_data_input_is_simultaneous(self):
        # Intentional semantics of the batched drive: all vector values
        # land before the single edge-detection pass, so a block edge-
        # triggered on one data input samples the *new* value of the
        # others — unlike N serial pokes, where ordering would decide.
        # Both backends must agree on this.
        source = (
            "module m(input strobe, input [3:0] d, output reg [3:0] q);"
            " always @(posedge strobe) q <= d; endmodule"
        )
        for backend in ("compiled", "interp"):
            sim = Simulator(build(source, "m"), backend=backend)
            sim.poke_many({"strobe": 1, "d": 9})
            assert sim.peek("q") == 9, backend

    #: name -> (source, the two trigger inputs, rounds, final values,
    #: the backend "auto" picks)
    TWO_TRIGGERS = {
        "clock_or_async_reset": (
            "module m(input clk, input arst, output reg [3:0] q);"
            " always @(posedge clk or posedge arst) q <= q + 1; endmodule",
            ("clk", "arst"), 2, {"q": 2}, CompiledSimulator,
        ),
        "block_reads_the_other_blocks_register": (
            TWO_DOMAINS, ("a", "b"), 4, {"q": 4, "p": 6},
            InterpreterSimulator,
        ),
    }

    @pytest.mark.parametrize("name", sorted(TWO_TRIGGERS))
    def test_two_trigger_bits_in_one_poke_many_are_one_event(self, name):
        # One call moves both trigger bits: the union of the triggered
        # blocks runs once, with one nonblocking commit.  One edge
        # function per moved bit in sequence would fire the shared block
        # twice, or let `p` read the `q` the first edge just committed.
        # The compiled backend runs one edge function, which is the union
        # when the edges nest; two domains whose edges do not nest run on
        # the interpreter (see TestEdgeAdmission).
        source, inputs, rounds, want, backend = self.TWO_TRIGGERS[name]
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("auto", "interp")]
        assert type(sims[0]) is backend
        for _ in range(rounds):
            for level in (1, 0):
                for sim in sims:
                    sim.poke_many(dict.fromkeys(inputs, level))
                assert sims[0].state == sims[1].state
        assert {signal: sims[0].peek(signal) for signal in want} == want

    def test_poke_many_no_change_is_free(self):
        design = build(
            "module m(input [3:0] a, output [3:0] y); assign y = a;"
            " endmodule", "m"
        )
        sim = Simulator(design)
        sim.poke_many({"a": 5})
        assert sim.peek("y") == 5
        sim.poke_many({"a": 5})  # no-op batch
        assert sim.peek("y") == 5

    def test_out_of_range_bit_write_identical(self):
        # Writing q[9] on a 4-bit register pollutes state above the
        # declared width in the interpreter; the compiled backend must
        # reproduce that bit-for-bit (peek reads raw state).
        source = (
            "module m(input clk, input [3:0] i, input b,"
            " output reg [3:0] q);"
            " always @(posedge clk) q[i] <= b; endmodule"
        )
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("compiled", "interp")]
        for sim in sims:
            sim.poke("i", 9)
            sim.poke("b", 1)
            sim.poke("clk", 0)
            sim.poke("clk", 1)
        assert sims[0].peek("q") == sims[1].peek("q")


class TestBackendSelection:
    def test_default_backend_roundtrip(self):
        previous = set_default_backend("interp")
        try:
            design = build(
                "module m(input a, output y); assign y = a; endmodule", "m"
            )
            assert isinstance(Simulator(design), InterpreterSimulator)
        finally:
            set_default_backend(previous)
        assert default_backend() == previous

    def test_unknown_backend_rejected(self):
        design = build(
            "module m(input a, output y); assign y = a; endmodule", "m"
        )
        # "batch" left the backends: lanes are a combinational evaluator
        for name in ("verilator", "batch"):
            with pytest.raises(SimulationError, match="unknown simulator"):
                Simulator(design, backend=name)
            with pytest.raises(SimulationError, match="unknown simulator"):
                set_default_backend(name)

    def test_equivalence_check_accepts_backend(self):
        source = (
            "module m(input [3:0] a, output [3:0] y); assign y = ~a;"
            " endmodule"
        )
        golden = build(source, "m")
        candidate = build(source, "m")
        stim = random_stimulus(golden, 16, seed=1)
        for backend in ("compiled", "interp"):
            assert equivalence_check(
                golden, candidate, stim, clock=None, backend=backend
            ).equivalent


class TestBitGranularDirty:
    """Partial writes to a wide bus under the hand-``poke`` protocol: the
    settle after the edge is one full ``comb`` pass, so every reader of
    the bus re-runs, and each slice reads what the interpreter reads."""

    _SLICES = """module slices(
  input clk, input [7:0] d,
  output [7:0] lo, output [7:0] hi, output [63:0] whole);
  reg [63:0] bus;
  assign lo = bus[7:0];
  assign hi = bus[63:56];
  assign whole = bus;
  always @(posedge clk) bus[7:0] <= d;
endmodule
"""

    def _compare(self, source, values):
        design = build(source, "slices")
        compiled = Simulator(design, backend="compiled")
        interp = Simulator(design, backend="interp")
        for d in values:
            for sim in (compiled, interp):
                sim.poke("d", d)
                sim.poke("clk", 1)
                sim.poke("clk", 0)
            for name in ("lo", "hi", "whole"):
                assert compiled.peek(name) == interp.peek(name), name

    def test_slice_readers_match_after_partial_writes(self):
        rng = DeterministicRNG(5)
        self._compare(self._SLICES, [rng.randint(0, 255) for _ in range(40)])

    def test_full_width_write_wakes_every_reader(self):
        # A write touching the high byte must re-run the hi reader.
        source = self._SLICES.replace(
            "bus[7:0] <= d;", "bus <= {d, 48'd0, d};"
        )
        self._compare(source, (0x00, 0xFF, 0x5A, 0xA5))


# -- the clocked cycle kernel ------------------------------------------------


def literal_cycle(sim, clock, input_names, output_names, row):
    """The four-call sequence ``Simulator.cycle_fn`` is defined as."""
    sim.poke_many(dict(zip(input_names, row)))
    if clock is not None:
        sim.poke(clock, 0)
        sim.poke(clock, 1)
    return tuple(sim.peek(name) for name in output_names)


def _outcome(call):
    try:
        return "ok", call()
    except SimulationError as exc:
        return "error", str(exc)


def kernel_trio(source, top, clock="clk", reset=None, reset_active_high=True,
                cycles=32, stim_seed=11, exclude=None):
    """Kernel on an ``"auto"`` sim vs the literal sequence on a second
    one vs the literal sequence on the interpreter: output tuples and the
    *whole* state after every cycle, errors included.

    The episode kernel rides along (:func:`episode_trio`): ``replay_fn``
    on fresh ``"auto"`` benches over the same rows, against the literal
    sequence's outputs.

    Returns ``(path, error)``: which kernel the ``"auto"`` simulator built
    (``"specialised"`` | ``"generic"`` on the compiled backend,
    ``"interp"`` when the design does not compile) and the ``(cycle,
    message)`` all three stopped at, or None.
    """
    def new_bench(backend):
        return Testbench(build(source, top), clock, reset, reset_active_high,
                         backend=backend)

    kernel, literal, interp = (
        new_bench(backend) for backend in ("auto", "auto", "interp")
    )
    compiled = isinstance(kernel.sim, CompiledSimulator)
    assert compiled or isinstance(kernel.sim, InterpreterSimulator)
    assert isinstance(interp.sim, InterpreterSimulator)
    for bench in (kernel, literal, interp):
        bench.apply_reset()
    kwargs = {} if exclude is None else {"exclude": exclude}
    names, rows = stimulus_rows(
        random_stimulus(kernel.design, cycles, seed=stim_seed, **kwargs)
    )
    outputs = tuple(kernel.output_names)
    before = obs.counters("sim.kernel.")
    step = kernel.sim.cycle_fn(kernel.clock, names, outputs)
    after = obs.counters("sim.kernel.")
    # exactly one path counter moves, by one, per compiled kernel built
    moved = [n for n in after if after[n] != before.get(n, 0)]
    if compiled:
        (path,) = moved
        assert after[path] - before.get(path, 0) == 1
        path = path.rsplit(".", 1)[1]
    else:
        assert moved == []
        path = "interp"
    error = None
    trace, states = [], []  # the literal sequence's, per completed cycle
    for cycle, row in enumerate(rows):
        got = _outcome(lambda: step(row))
        assert got == _outcome(lambda: literal_cycle(
            literal.sim, literal.clock, names, outputs, row)), (top, cycle)
        assert got == _outcome(lambda: literal_cycle(
            interp.sim, interp.clock, names, outputs, row)), (top, cycle)
        if got[0] == "error":
            error = (cycle, got[1])
            break
        assert kernel.sim.state == literal.sim.state, (top, cycle)
        assert kernel.sim.mems == literal.sim.mems, (top, cycle)
        assert kernel.sim.state == interp.sim.state, (top, cycle)
        assert kernel.sim.mems == interp.sim.mems, (top, cycle)
        trace.append(got[1])
        states.append(_snapshot(literal.sim))
    episode_trio(lambda: new_bench("auto"), names, outputs, rows, trace,
                 states + [_snapshot(literal.sim)], error, path)
    return path, error


def _snapshot(sim):
    """Copies of the whole state (the interpreter's views are live)."""
    return dict(sim.state), {
        name: list(words) for name, words in sim.mems.items()
    }


def episode_trio(fresh, names, outputs, rows, trace, states, error, path):
    """``replay_fn`` on fresh ``"auto"`` benches (``fresh()``) against the
    literal sequence that produced ``trace`` and ``states`` (the whole
    state after each completed cycle, then where the sequence ended):

    * with ``trace`` itself: every cycle matches, or the same
      ``SimulationError`` text at the same cycle;
    * with one output of the middle cycle changed: the episode stops
      there with the literal outputs of that cycle;

    each time the same kernel path as ``cycle_fn``, ``sim.cycles`` moved
    by the cycles the literal sequence started, and the same final state.
    """
    cases = [(trace + [None] * (len(rows) - len(trace)), None)]
    if trace and outputs:
        k = len(trace) // 2
        wrong = (trace[k][0] + 1,) + trace[k][1:]
        cases.append((trace[:k] + [wrong] + trace[k + 1:], k))
    for expected, stop in cases:
        bench = fresh()
        bench.apply_reset()
        before = obs.counters("sim.")
        replay = bench.sim.replay_fn(bench.clock, names, outputs)
        built = obs.counters("sim.kernel.")
        moved = [n for n in built if built[n] != before.get(n, 0)]
        assert moved == ([] if path == "interp" else [f"sim.kernel.{path}"])
        got = _outcome(lambda: replay(rows, expected))
        if stop is not None:
            want, cycles, final = ("ok", (stop, trace[stop])), stop + 1, stop
        elif error is not None:
            want, cycles, final = ("error", error[1]), error[0] + 1, -1
        else:
            want, cycles, final = ("ok", (len(rows), None)), len(rows), -1
        assert got == want, (stop, got, want)
        counted = obs.counter_value("sim.cycles") - before.get("sim.cycles", 0)
        assert counted == cycles, (stop, counted, cycles)
        assert _snapshot(bench.sim) == states[final], stop


def module_trio(module, source=None, **kwargs):
    interface = module.interface
    return kernel_trio(
        source or module.source, module.name, clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high, **kwargs
    )


#: name -> (source, kernel_trio kwargs, expected path, expected error)
#: — designs that must stay on the poke-sequence kernel (``generic``),
#: designs the compiler refuses (their edges cascade or split across
#: clock domains, or their comb region does not levelize), which run on
#: the interpreter, and the output-count corners.
GALLERY = {
    "plain_counter": (
        "module m(input clk, input rst, input en, output reg [3:0] q);"
        " always @(posedge clk) if (rst) q <= 0; else if (en) q <= q + 1;"
        " endmodule",
        {"reset": "rst"}, "specialised", None,
    ),
    # `y` reads what the edge wrote: it moves only if the edge function
    # settles after its blocks
    "gated_clock": (
        "module m(input clk, input en, input d, output reg q, output y);"
        " wire gclk; assign gclk = clk & en; assign y = ~q;"
        " always @(posedge gclk) q <= d; endmodule",
        {}, "generic", None,
    ),
    "ripple_counter": (
        "module m(input clk, output reg q0, output reg q1, output reg q2,"
        " output [2:0] n); assign n = {q2, q1, q0};"
        " always @(posedge clk) q0 <= ~q0;"
        " always @(negedge q0) q1 <= ~q1;"
        " always @(negedge q1) q2 <= ~q2; endmodule",
        {}, "interp", None,
    ),
    "comb_reads_clock": (
        "module m(input clk, input d, output y, output reg q);"
        " assign y = clk ^ d; always @(posedge clk) q <= d; endmodule",
        {}, "generic", None,
    ),
    "negedge_block": (
        "module m(input clk, input [3:0] d, output reg [3:0] q,"
        " output reg [3:0] p);"
        " always @(negedge clk) q <= d;"
        " always @(posedge clk) p <= q; endmodule",
        {}, "specialised", None,
    ),
    "both_edge_block": (
        "module m(input clk, input en, output reg [3:0] q);"
        " always @(posedge clk or negedge clk) if (en) q <= q + 1;"
        " endmodule",
        {}, "specialised", None,
    ),
    # `arst` is outside random_stimulus's exclude list: it rides the
    # vector, so a driven input is a trigger.
    "async_reset_in_vector": (
        "module m(input clk, input arst, input d, output reg [3:0] q);"
        " always @(posedge clk or posedge arst)"
        " if (arst) q <= 0; else q <= q + d; endmodule",
        {}, "generic", None,
    ),
    # A trigger derived from a data input through comb logic: the drive
    # can fire an edge, and `tclk` and `clk` fire blocks that do not nest.
    "comb_derived_trigger": (
        "module m(input clk, input en, input d, output reg q,"
        " output reg [3:0] n);"
        " wire tclk; assign tclk = en & d;"
        " always @(posedge tclk) n <= n + 1;"
        " always @(posedge clk) q <= d; endmodule",
        {}, "interp", None,
    ),
    # ... and with one trigger: a driven input is in its fan-in
    "input_derived_trigger": (
        "module m(input clk, input en, input d, output reg [3:0] n);"
        " wire tclk; assign tclk = en & d;"
        " always @(posedge tclk) n <= n + 1; endmodule",
        {}, "generic", None,
    ),
    "two_domains": (TWO_DOMAINS, {"clock": None}, "interp", None),
    # one clock reaching two instances through port glue: one trigger
    "one_clock_two_instances": (ONE_CLOCK_TWO_INSTANCES, {}, "generic", None),
    # a block writes the register that gates its own clock: the gate
    # closing is a negedge in the same event
    "register_gated_clock": (REGISTER_GATED_CLOCK, {}, "interp", None),
    # the same through a memory word an edge writes
    "memory_gated_clock": (MEMORY_GATED_CLOCK, {}, "interp", None),
    # nested edges: `posedge clk` fires both blocks, `posedge rst` one,
    # so both bits moving together fire what the clock's edge fires
    "nested_async_reset": (
        "module m(input clk, input rst, input [3:0] d, output reg [3:0] q,"
        " output reg [3:0] p);"
        " always @(posedge clk or posedge rst)"
        " if (rst) q <= 0; else q <= q + d;"
        " always @(posedge clk) p <= q; endmodule",
        {"reset": "rst"}, "specialised", None,
    ),
    # `assign x = x;` is an identity: no body, no effects, levelized.
    "identity_self_assign_counter": (
        "module m(input clk, input en, output wire [3:0] count);"
        " reg [3:0] count;"
        " always @(posedge clk) if (en) count <= count + 1'b1;"
        " assign count = count; endmodule",
        {}, "specialised", None,
    ),
    # ... and nothing else that reads its own target is: a part-select
    # self-assign, a real feedback and a concatenation lvalue stay
    # self-edges, which do not compile and run on the interpreter.
    "part_select_self_assign": (
        "module m(input clk, input en, output wire [3:0] count);"
        " reg [3:0] count;"
        " always @(posedge clk) if (en) count <= count + 1'b1;"
        " assign count[1:0] = count[1:0]; endmodule",
        {}, "interp", None,
    ),
    "self_feedback": (
        "module m(input clk, input [3:0] a, output wire [3:0] x,"
        " output reg [3:0] q);"
        " assign x = x | a; always @(posedge clk) q <= q + x; endmodule",
        {}, "interp", None,
    ),
    "concat_self_assign": (
        "module m(input clk, input en, output wire [3:0] count);"
        " reg [3:0] count;"
        " always @(posedge clk) if (en) count <= count + 1'b1;"
        " assign {count} = count; endmodule",
        {}, "interp", None,
    ),
    "oscillating_clock_loop": (
        "module m(input clk, output reg a, output reg b);"
        " always @(posedge clk) a <= ~a;"
        " always @(posedge a or negedge a) b <= ~b;"
        " always @(posedge b or negedge b) a <= ~a; endmodule",
        {}, "interp",
        (0, "edge events failed to quiesce (oscillating clock loop?)"),
    ),
    "block_writes_clock": (
        "module m(input clk, input d, output reg q, output reg [3:0] n);"
        " always @(posedge clk) begin q <= d; n <= n + 1; clk <= 0; end"
        " endmodule",
        {}, "interp", None,
    ),
    "two_bit_clock": (
        "module m(input [1:0] clk, input d, output reg q);"
        " always @(posedge clk) q <= d; endmodule",
        {}, "specialised", None,
    ),
    "memory_write": (
        "module m(input clk, input we, input [1:0] a, input [3:0] d,"
        " output [3:0] y); reg [3:0] mem [0:3];"
        " always @(posedge clk) if (we) mem[a] <= d;"
        " assign y = mem[a]; endmodule",
        {}, "specialised", None,
    ),
    "zero_outputs": (
        "module m(input clk, input d); reg q;"
        " always @(posedge clk) q <= d; endmodule",
        {}, "specialised", None,
    ),
    "one_output": (
        "module m(input clk, input d, output reg q);"
        " always @(posedge clk) q <= d; endmodule",
        {}, "specialised", None,
    ),
    "clock_ignored": (
        "module m(input clk, input [3:0] a, output [3:0] y);"
        " assign y = ~a; endmodule",
        {}, "specialised", None,
    ),
    "unclocked_strobe": (
        "module m(input strobe, input [3:0] d, output reg [3:0] q);"
        " always @(posedge strobe) q <= d; endmodule",
        {"clock": None}, "generic", None,
    ),
    # two comb drivers of y: does not levelize
    "unclocked_partial_assigns": (
        "module m(input [3:0] a, input [3:0] b, output [7:0] y);"
        " assign y[3:0] = a; assign y[7:4] = b; endmodule",
        {"clock": None}, "interp", None,
    ),
    "unclocked": (
        "module m(input [3:0] a, input [3:0] b, output [4:0] y);"
        " assign y = a + b; endmodule",
        {"clock": None}, "specialised", None,
    ),
    # -- what emitting text (locals for `=`, pending locals for `<=`,
    # one function per edge) can get wrong --------------------------------
    # B1's blocking write is read by B2, B2 reads a reg B1 just `<=`d
    # (must see the old value), and both `<=` the same reg.
    "two_blocks_one_edge": (
        "module m(input clk, input [3:0] d, output reg [3:0] q,"
        " output reg [3:0] t, output reg [3:0] a, output reg [3:0] b);"
        " always @(posedge clk) begin t = d + 1; q <= t; a <= b + d; end"
        " always @(posedge clk) begin if (t[0]) q <= q + t; b <= a; end"
        " endmodule",
        {}, "specialised", None,
    ),
    "blocking_then_read": (
        "module m(input clk, input [3:0] d, output reg [3:0] q,"
        " output reg [3:0] r); reg [3:0] tmp;"
        " always @(posedge clk) begin tmp = d ^ q; q <= tmp + 1;"
        " tmp = tmp << 1; r <= tmp; end endmodule",
        {}, "specialised", None,
    ),
    "blocking_and_nonblocking_one_slot": (
        "module m(input clk, input [3:0] d, output reg [3:0] q,"
        " output reg [3:0] r);"
        " always @(posedge clk) begin q = d; q <= q + 1; r <= 4'd3; end"
        " always @(posedge clk) begin r = r + d; end endmodule",
        {}, "specialised", None,
    ),
    "nba_in_comb_block": (
        "module m(input [3:0] a, input [3:0] b, output reg [3:0] y,"
        " output reg [3:0] z);"
        " always @* begin z = a | b; y <= a & z; end endmodule",
        {"clock": None}, "specialised", None,
    ),
    "two_nba_part_writes": (
        "module m(input clk, input [3:0] d, output reg [7:0] q);"
        " always @(posedge clk) begin q[3:0] <= d; q[7:4] <= ~d;"
        " q[5:2] <= d; end endmodule",
        {}, "specialised", None,
    ),
    # `i` reaches 15 on 8-bit regs: out-of-range writes included
    "dynamic_select_writes": (
        "module m(input clk, input [3:0] i, input v, output reg [7:0] q,"
        " output reg [7:0] r, output reg [7:0] p, output reg [7:0] o,"
        " output reg w);"
        " always @(posedge clk) begin q[i] <= v; r[i] = v;"
        " p[i +: 2] <= {v, ~v}; o[i -: 3] = {v, ~v, v}; w[i] <= v;"
        " end endmodule",
        {}, "specialised", None,
    ),
    "concat_lvalue": (
        "module m(input clk, input [3:0] a, input [3:0] b, output reg c,"
        " output reg [3:0] s, output x, output [2:0] y, output reg [3:0] u,"
        " output reg [1:0] v);"
        " assign {x, y} = a ^ b;"
        " always @(posedge clk) begin {c, s} <= a + b;"
        " {u, v} = {a[1:0], b}; end endmodule",
        {}, "specialised", None,
    ),
    "casez_wildcards_and_empty_arm": (
        "module m(input [3:0] a, output reg [1:0] y);"
        " always @* casez (a) 4'b1???: y = 2'd3; 4'b01??: ;"
        " 4'b001?, 4'b0001: y = 2'd1; default: y = 2'd0; endcase"
        " endmodule",
        {"clock": None}, "specialised", None,
    ),
    "for_with_blocking_index": (
        "module m(input clk, input [7:0] d, output reg [3:0] q);"
        " integer i; reg [3:0] acc;"
        " always @(posedge clk) begin acc = 0;"
        " for (i = 0; i < 8; i = i + 1) acc = acc + d[i];"
        " q <= acc; end endmodule",
        {}, "specialised", None,
    ),
    # 64 cycles: `b` is 0 on some of them (divide and modulo by zero)
    "signed_operators": (
        "module m(input signed [3:0] a, input signed [3:0] b, output lt,"
        " output ge, output signed [3:0] sra, output signed [3:0] srb,"
        " output signed [3:0] dv, output signed [3:0] md,"
        " output signed [7:0] ext, output [3:0] udv);"
        " assign lt = a < b; assign ge = a >= b; assign sra = a >>> 1;"
        " assign srb = a >>> b[1:0]; assign dv = a / b; assign md = a % b;"
        " assign ext = a; assign udv = $unsigned(a) / $unsigned(b);"
        " endmodule",
        {"clock": None, "cycles": 64}, "specialised", None,
    ),
    "comb_block_writes_memory": (
        "module m(input we, input [1:0] a, input [2:0] r, input [3:0] d,"
        " output [3:0] y); reg [3:0] mem [1:4];"
        " always @* if (we) mem[a] = d;"
        " assign y = mem[r]; endmodule",
        {"clock": None}, "specialised", None,
    ),
    "seq_block_reads_its_memory_write": (
        "module m(input clk, input [1:0] a, input [1:0] r, input [3:0] d,"
        " output reg [3:0] q, output reg [3:0] p);"
        " reg [3:0] mem [0:3];"
        " always @(posedge clk) begin mem[a] = d; q <= mem[r];"
        " mem[r] = mem[a] + 1; p <= mem[a]; end endmodule",
        {}, "specialised", None,
    ),
    # constant word indices, in and out of a [1:4] range, both ways
    "static_memory_indices": (
        "module m(input clk, input [3:0] d, output reg [3:0] q);"
        " reg [3:0] mem [1:4];"
        " always @(posedge clk) begin mem[0] <= d; mem[5] = d;"
        " mem[1] <= d; mem[4] = ~d; q <= mem[0] ^ mem[4] ^ mem[1] ^ mem[7];"
        " end endmodule",
        {}, "specialised", None,
    ),
    # The reset kernels drive a trigger (the poke sequence); the stimulus
    # kernel does not (specialised): both run the same edge function.
    "async_reset_outside_stimulus": (
        "module m(input clk, input rst, input [3:0] d,"
        " output reg [3:0] q);"
        " always @(posedge clk or posedge rst)"
        " if (rst) q <= 0; else q <= q + d; endmodule",
        {"reset": "rst"}, "specialised", None,
    ),
    "initial_block": (
        "module m(input clk, input en, output reg [3:0] q);"
        " reg [3:0] mem [0:1];"
        " initial begin q = 4'd5; mem[1] = 4'd9; end"
        " initial q <= q + mem[1];"
        " always @(posedge clk) if (en) q <= q + 1; endmodule",
        {}, "specialised", None,
    ),
    # deeper than CPython's ~200 nested parentheses: operands spill
    "sum_of_400_terms": (
        "module m(input clk, input [7:0] a, input [7:0] b,"
        " output reg [15:0] q); always @(posedge clk) q <= ("
        + " + ".join(["a", "b"] * 100) + ") + ("
        + " + ".join(["b", "a"] * 100) + "); endmodule",
        {}, "specialised", None,
    ),
}


class TestCycleKernel:
    """The one differential oracle for ``Simulator.cycle_fn``."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_family(self, family):
        for seed in (3, 4):
            module = generate_family(
                family, DeterministicRNG(seed).fork("kernel", family)
            )
            module_trio(module, stim_seed=seed)

    def test_vereval_goldens_and_near_misses(self):
        problems = build_problem_set(n_problems=60)
        assert len(problems) == 60
        paths = {"specialised": 0, "generic": 0, "interp": 0}
        for problem in problems:
            sources = [problem.golden_source]
            sources += [m.source for m in mutate(problem.module)]
            for source in sources:
                path, _ = module_trio(
                    problem.module, source,
                    cycles=problem.stimulus_cycles,
                    stim_seed=problem.stimulus_seed,
                )
                paths[path] += 1
        # Every golden and mutant takes the fused kernel, the five
        # `assign count = count` counters included (an identity does not
        # block levelization); the gallery holds the other sides.
        assert paths == {"specialised": 164, "generic": 0, "interp": 0}

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(ALL_FAMILIES),
        seed=st.integers(0, 2**20),
        stim_seed=st.integers(0, 2**20),
    )
    def test_fuzz(self, family, seed, stim_seed):
        module = generate_family(
            family, DeterministicRNG(seed).fork("kfuzz", family)
        )
        module_trio(module, cycles=16, stim_seed=stim_seed)

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_gallery(self, name):
        source, kwargs, want_path, want_error = GALLERY[name]
        path, error = kernel_trio(source, "m", **kwargs)
        # The companion assertion: the gallery provably holds every side.
        assert path == want_path
        assert error == want_error

    def test_async_reset_kernels_compile_only_fused(self):
        # Which kernel a cycle takes is a property of (design, driven
        # inputs): the gallery row's reset kernels drive a trigger (the
        # poke sequence), its stimulus kernel does not.  Both run the
        # one code object the constructor compiled, whose only function
        # is the edge both triggers share.
        source, kwargs, _, _ = GALLERY["async_reset_outside_stimulus"]
        bench = Testbench(build(source, "m"), **kwargs, backend="compiled")
        reference = Testbench(build(source, "m"), **kwargs, backend="interp")
        cd = bench.sim.cdesign
        code = cd.code  # compiled for the initial settle
        assert sorted(
            const.co_name for const in code.co_consts
            if hasattr(const, "co_code")
        ) == ["e1_0"]
        before = obs.counters("sim.kernel.")
        for tb in (bench, reference):
            tb.apply_reset()
            tb.step({"d": 3})
        after = obs.counters("sim.kernel.")
        moved = {
            name.rsplit(".", 1)[1]: after[name] - before.get(name, 0)
            for name in after
        }
        assert moved == {"generic": 2, "specialised": 1}
        assert cd.code is code
        assert bench.sim.state == reference.sim.state

    def test_ripple_counter_counts(self):
        # The cascade the interpreter's edge rounds exist for: q1/q2 only
        # move through edges the posedge block itself creates.  The
        # compiler refuses it, so "auto" runs it on the interpreter.
        source = GALLERY["ripple_counter"][0]
        sim = Simulator(build(source, "m"), backend="auto")
        assert isinstance(sim, InterpreterSimulator)
        step = sim.cycle_fn("clk", (), ("q2", "q1", "q0"))
        seen = [step(()) for _ in range(8)]
        assert seen == [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
            (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 0, 0),
        ]

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    @pytest.mark.parametrize("name", ["plain_counter", "gated_clock"])
    def test_row_length_is_a_value_error(self, backend, name):
        sim = Simulator(build(GALLERY[name][0], "m"), backend=backend)
        inputs = [s.name for s in sim.design.inputs if s.name != "clk"]
        step = sim.cycle_fn("clk", inputs, ("q",))
        step([0] * len(inputs))
        for bad in ([0] * (len(inputs) - 1), [0] * (len(inputs) + 1)):
            with pytest.raises(ValueError, match="cycle kernel row"):
                step(bad)

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_unknown_names_raise_when_the_kernel_is_built(self, backend):
        from repro.errors import ElaborationError

        sim = Simulator(
            build(GALLERY["one_output"][0], "m"), backend=backend
        )
        with pytest.raises(ElaborationError, match="no signal named"):
            sim.cycle_fn("clk", ("ghost",), ("q",))
        with pytest.raises(ElaborationError, match="no signal named"):
            sim.cycle_fn("ghost", ("d",), ("q",))
        with pytest.raises(SimulationError, match="peek of unknown"):
            sim.cycle_fn("clk", ("d",), ("ghost",))

    def test_testbench_step_rebuilds_on_new_input_names(self):
        source = GALLERY["plain_counter"][0]
        benches = [
            Testbench(build(source, "m"), reset="rst", backend=backend)
            for backend in ("compiled", "interp")
        ]
        for vector in ({"en": 1}, {"en": 1, "rst": 0}, {"rst": 1},
                       {"en": 1}, {}):
            outs = [bench.step(vector) for bench in benches]
            assert outs[0] == outs[1], vector
        assert benches[0].sim.state == benches[1].sim.state


class TestEpisodeKernel:
    """``Simulator.replay_fn`` beyond what ``episode_trio`` (run by every
    ``kernel_trio`` above) covers: the call contract at its edges."""

    @pytest.mark.parametrize("backend", ["auto", "interp"])
    def test_ripple_counter_stops_at_the_first_bad_cycle(self, backend):
        sim = Simulator(build(GALLERY["ripple_counter"][0], "m"),
                        backend=backend)
        replay = sim.replay_fn("clk", (), ("q2", "q1", "q0"))
        trace = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1)]
        cycles = obs.counter_value("sim.cycles")
        assert replay([()] * 5, trace) == (3, (1, 0, 0))
        assert obs.counter_value("sim.cycles") == cycles + 4
        # the episode left the state where the fourth cycle did
        assert replay([()] * 2, [(1, 0, 1), (1, 1, 0)]) == (2, None)
        assert obs.counter_value("sim.cycles") == cycles + 6
        assert replay([], []) == (0, None)
        assert obs.counter_value("sim.cycles") == cycles + 6

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_row_length_is_a_value_error(self, backend):
        sim = Simulator(build(GALLERY["plain_counter"][0], "m"),
                        backend=backend)
        replay = sim.replay_fn("clk", ("rst", "en"), ("q",))
        assert replay([(1, 0), (0, 1)], [(0,), (1,)]) == (2, None)
        for bad in ([(0,)], [(0, 1, 0)]):
            with pytest.raises(ValueError, match="cycle kernel row"):
                replay(bad, [(1,)])

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_unknown_names_raise_when_the_kernel_is_built(self, backend):
        from repro.errors import ElaborationError

        sim = Simulator(
            build(GALLERY["one_output"][0], "m"), backend=backend
        )
        with pytest.raises(ElaborationError, match="no signal named"):
            sim.replay_fn("clk", ("ghost",), ("q",))
        with pytest.raises(SimulationError, match="peek of unknown"):
            sim.replay_fn("clk", ("d",), ("ghost",))


class TestEdgeAdmission:
    """The compiler's admission rule (``_Compiler._admit``): every edge
    event is one generated call, or the design runs on the interpreter.
    Each half is shown against the naive rule without it, which admits a
    design whose compiled run diverges from the interpreter."""

    @pytest.mark.parametrize("name", [
        "ripple_counter", "block_writes_clock", "oscillating_clock_loop",
        "register_gated_clock", "memory_gated_clock",
    ])
    def test_a_block_that_can_move_a_trigger_is_refused(self, name):
        source = GALLERY[name][0]
        with pytest.raises(UncompilableDesign, match="move an edge trigger"):
            compile_design(build(source, "m"))
        with pytest.raises(SimulationError, match="design does not compile"):
            Simulator(build(source, "m"), backend="compiled")

    @pytest.mark.parametrize("name", ["two_domains", "comb_derived_trigger"])
    def test_edges_that_do_not_nest_are_refused(self, name):
        with pytest.raises(UncompilableDesign, match="no single edge"):
            compile_design(build(GALLERY[name][0], "m"))

    @pytest.mark.parametrize(
        "name", ["register_gated_clock", "memory_gated_clock"]
    )
    def test_direct_writes_only_admits_a_gated_clock_that_diverges(
        self, name, monkeypatch
    ):
        # the naive rule: a block moves a trigger only by writing it
        monkeypatch.setattr(
            sim_compile._Compiler, "_trigger_fanin",
            lambda self, cd, node_reads: frozenset(cd.trigger_slots),
        )
        source = GALLERY[name][0]
        naive = Simulator(build(source, "m"), backend="compiled")
        assert isinstance(naive, CompiledSimulator)
        reference = Simulator(build(source, "m"), backend="interp")
        for sim in (naive, reference):
            sim.poke("en", 1)
            sim.poke("clk", 1)  # the posedge block closes the gate
        # the gate closing is a negedge of `gclk`: only the cascade sees it
        assert (reference.peek("n"), reference.peek("q")) == (1, 1)
        assert (naive.peek("n"), naive.peek("q")) == (1, 0)

    def test_rule_without_nesting_admits_two_domains_that_diverge(
        self, monkeypatch
    ):
        monkeypatch.setattr(sim_compile, "_edges_nest", lambda seq: True)
        naive = Simulator(build(TWO_DOMAINS, "m"), backend="compiled")
        assert isinstance(naive, CompiledSimulator)
        reference = Simulator(build(TWO_DOMAINS, "m"), backend="interp")
        for _ in range(2):
            for level in (1, 0):
                for sim in (naive, reference):
                    sim.poke_many({"a": level, "b": level})
        # one edge function per event runs one domain's block
        assert (reference.peek("q"), reference.peek("p")) == (2, 1)
        assert (naive.peek("q"), naive.peek("p")) == (2, 0)

    ASYNC_RESETS = {
        "posedge_reset": GALLERY["async_reset_outside_stimulus"][0],
        "negedge_reset": (
            "module m(input clk, input rst_n, input [3:0] d,"
            " output reg [3:0] q);"
            " always @(posedge clk or negedge rst_n)"
            " if (!rst_n) q <= 0; else q <= q + d; endmodule"
        ),
        # `arst` sorts before `clk`: the first moved bit's edge is the
        # smaller one, the clock's holds both blocks
        "nested": (
            "module m(input clk, input arst, input [3:0] d,"
            " output reg [3:0] q, output reg [3:0] p);"
            " always @(posedge clk or posedge arst)"
            " if (arst) q <= 0; else q <= q + d;"
            " always @(posedge clk) p <= q; endmodule"
        ),
        "one_clock_two_instances": ONE_CLOCK_TWO_INSTANCES,
    }

    @pytest.mark.parametrize("name", sorted(ASYNC_RESETS))
    def test_nesting_edges_stay_compiled(self, name):
        # the clock and reset bits in every combination, moved by one
        # poke_many each, against the interpreter
        source = self.ASYNC_RESETS[name]
        sims = [Simulator(build(source, "m"), backend=b)
                for b in ("compiled", "interp")]
        assert isinstance(sims[0], CompiledSimulator)
        inputs = [s.name for s in sims[1].design.inputs]
        rng = DeterministicRNG(7)
        for _ in range(64):
            vector = {name: rng.randint(0, 3) for name in inputs}
            for sim in sims:
                sim.poke_many(vector)
            assert sims[0].state == sims[1].state


# -- generated text ----------------------------------------------------------


#: every identifier the emitter may write: state, its own locals and
#: temporaries, the functions it defines, the helpers ``_load`` binds
_TEXT_NAMES = re.compile(
    r"st|mems|nba|mo|k|W|comb|init|commit|parity|clog2|sdivmod|loop_error"
    r"|[bnt]\d+|e[01]_\d+"
)
_TEXT_HELPERS = {"comb", "commit", "parity", "clog2", "sdivmod", "loop_error"}
_TEXT_NODES = (
    python_ast.Attribute, python_ast.Import, python_ast.ImportFrom,
    python_ast.Global, python_ast.Nonlocal, python_ast.Lambda,
    python_ast.ClassDef, python_ast.JoinedStr, python_ast.Starred,
    python_ast.Await, python_ast.Yield, python_ast.YieldFrom,
    python_ast.With, python_ast.Try, python_ast.Delete,
)


def assert_text_is_closed(design):
    """No character of the design reaches its generated text: every name
    is the emitter's, every constant an int, every call a helper's."""
    compiled = compile_design(design)
    assert compiled.source is not None
    for node in python_ast.walk(python_ast.parse(compiled.source)):
        assert not isinstance(node, _TEXT_NODES), node
        if isinstance(node, python_ast.Name):
            assert _TEXT_NAMES.fullmatch(node.id), node.id
        elif isinstance(node, python_ast.FunctionDef):
            assert _TEXT_NAMES.fullmatch(node.name), node.name
            assert not node.decorator_list
            assert [a.arg for a in node.args.args] == ["st", "mems"]
        elif isinstance(node, python_ast.Call):
            assert isinstance(node.func, python_ast.Name)
            assert node.func.id in _TEXT_HELPERS, node.func.id
            assert not node.keywords
        elif isinstance(node, python_ast.Constant):
            assert type(node.value) is int, node.value


def _renamed(node, names):
    """``node`` (a Design or anything inside one) with signal and memory
    names replaced: what a front end that accepted them would hand the
    compiler."""
    if isinstance(node, str):
        return names.get(node, node)
    if isinstance(node, (list, tuple)):
        return type(node)(_renamed(item, names) for item in node)
    if isinstance(node, dict):
        return {
            _renamed(key, names): _renamed(value, names)
            for key, value in node.items()
        }
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{
            f.name: _renamed(getattr(node, f.name), names)
            for f in dataclasses.fields(node)
        })
    return node


class TestGeneratedTextIsClosed:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_family(self, family):
        for seed in (3, 4):
            module = generate_family(
                family, DeterministicRNG(seed).fork("kernel", family)
            )
            assert_text_is_closed(build(module.source, module.name))

    def test_vereval_goldens_and_near_misses(self):
        for problem in build_problem_set(n_problems=60):
            sources = [problem.golden_source]
            sources += [m.source for m in mutate(problem.module)]
            for source in sources:
                assert_text_is_closed(build(source, problem.module.name))

    def test_gallery(self):
        for source, _, path, _ in GALLERY.values():
            if path == "interp":  # does not compile: no text at all
                with pytest.raises(UncompilableDesign):
                    compile_design(build(source, "m"))
            else:
                assert_text_is_closed(build(source, "m"))

    _HOSTILE = """module child(input clk, input [7:0] d, output reg [7:0] q);
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    $display("__import__('os').system('id') %d", d);
    mem[d[1:0]] <= d ^ "\\\\";
    q <= (d == "x") ? "'" : mem[d[3:2]];
  end
endmodule
module m(input clk, input [7:0] d, output [7:0] q, output [15:0] s);
  wire [7:0] w;
  child u0(.clk(clk), .d(d), .q(w));
  child u1(.clk(clk), .d(w), .q(q));
  assign s = {w, q} + "ab";
  initial $display("started");
endmodule
"""

    def test_hostile_corpus(self):
        design = build(self._HOSTILE, "m")
        assert "u0.mem" in design.memories  # hierarchical dotted names
        assert_text_is_closed(design)
        # Escaped identifiers (the lexer refuses them today) and other
        # names no Python identifier could carry.
        hostile = {
            "d": "\\x;import os ",
            "w": "st[0]); __import__('os') #",
            "u0.q": "a\nb",
            "u1.mem": "mems' + \"",
            "s": "é世",
        }
        renamed = _renamed(design, hostile)
        assert set(hostile.values()) <= set(renamed.signals) | set(
            renamed.memories
        )
        assert_text_is_closed(renamed)
        # ... and the renamed design still is the design
        reference = Simulator(design, backend="interp")
        sim = Simulator(renamed, backend="compiled")
        assert isinstance(sim, CompiledSimulator)
        for value in (0x61, 0x78, 0x5C, 0x07):
            sim.poke(hostile["d"], value)
            reference.poke("d", value)
            for simulator in (sim, reference):
                simulator.poke("clk", 1)
                simulator.poke("clk", 0)
            assert sim.peek("q") == reference.peek("q")
            assert sim.peek(hostile["s"]) == reference.peek("s")

    def test_code_objects_carry_no_design_text(self):
        design = _renamed(
            build(self._HOSTILE, "m"), {"d": "hostile name", "m": "top!"}
        )
        sim = Simulator(design, backend="compiled")
        sim.poke("hostile name", 3)
        sim.poke("clk", 1)  # an edge outside the kernel
        compiled = sim.cdesign

        def strings(code):
            yield code.co_filename
            yield code.co_name
            yield from code.co_names
            yield from code.co_varnames
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    yield from strings(const)
                else:
                    assert const is None or type(const) in (int, tuple)

        for text in strings(compiled.code):
            assert text in ("<module>", "<repro.sim.compile>") or (
                _TEXT_NAMES.fullmatch(text)
            ), text


# -- persistence of the compiled image ---------------------------------------


class TestCodePersistence:
    SOURCE = (
        "module m(input clk, input rst, input [3:0] d, output reg [3:0] q,"
        " output [3:0] y); assign y = q ^ d;"
        " always @(posedge clk) if (rst) q <= 0; else q <= q + d; endmodule"
    )

    @staticmethod
    def _run(design, cycles=12):
        bench = Testbench(design, reset="rst", backend="compiled")
        bench.apply_reset()
        return [
            bench.step(vector)
            for vector in random_stimulus(design, cycles, seed=9)
        ]

    def test_design_pickles_code_not_functions(self):
        design = build(self.SOURCE, "m")
        assert "_compiled" not in pickle.loads(
            pickle.dumps(design)
        ).__dict__  # never lowered: nothing to keep
        compile_design(design)
        assert "_compiled" not in pickle.loads(
            pickle.dumps(design)
        ).__dict__  # lowered, nothing ran: still nothing worth keeping
        want = self._run(design)
        assert design._compiled.code is not None
        clone = pickle.loads(pickle.dumps(design))
        image = clone._compiled
        assert image.code is not None
        # tables and code only: no text, no namespace, no bound function
        assert image.source is None and image._fused is None
        assert image.design is None
        assert image.nodes == [None] and image.seq[0][1] is None
        emitted = obs.counter_value("sim.codegen.emitted")
        loaded = obs.counter_value("sim.codegen.loaded")
        assert self._run(clone) == want
        assert obs.counter_value("sim.codegen.emitted") == emitted
        assert obs.counter_value("sim.codegen.loaded") == loaded + 1
        assert image.design is clone

    def test_hand_pokes_on_a_restored_image_lower_nothing(self):
        # the kernels and hand pokes run the same edge functions: the
        # code the first run pickled serves both
        design = build(self.SOURCE, "m")
        self._run(design)
        clone = pickle.loads(pickle.dumps(design))
        reference = Simulator(build(self.SOURCE, "m"), backend="interp")
        sim = Simulator(clone, backend="compiled")
        emitted = obs.counter_value("sim.codegen.emitted")
        for simulator in (sim, reference):
            simulator.poke("d", 5)
            simulator.poke("clk", 1)
        assert obs.counter_value("sim.codegen.emitted") == emitted
        assert sim.state == reference.state

    def test_foreign_magic_number_is_re_emitted(self, monkeypatch):
        from repro.sim import compile as sim_compile

        design = build(self.SOURCE, "m")
        want = self._run(design)
        assert sim_compile._MAGIC == importlib.util.MAGIC_NUMBER
        monkeypatch.setattr(sim_compile, "_MAGIC", b"\x00\x00\r\n")
        blob = pickle.dumps(design)
        monkeypatch.undo()
        clone = pickle.loads(blob)
        assert clone._compiled.code is None
        emitted = obs.counter_value("sim.codegen.emitted")
        assert self._run(clone) == want
        assert obs.counter_value("sim.codegen.emitted") == emitted + 1

    def test_cache_entries_that_cannot_be_used(self, tmp_path, monkeypatch):
        """Truncated marshal bytes and a parent-version entry: the
        existing ``corrupt`` / ``version_mismatch`` accounting, a miss,
        and the same verdicts from a fresh lowering."""
        from repro.sim import cache as sim_cache
        from repro.sim import compile as sim_compile
        from repro.vereval import check_candidates_lockstep, reset_caches

        (problem,) = build_problem_set(
            n_problems=1, families=["shift_register"], stimulus_cycles=24
        )
        sources = [problem.golden_source]
        sources += [m.source for m in mutate(problem.module)]
        previous = sim_cache.configure("")

        def counters():
            return {
                name: obs.counter_value(f"sim.cache.{name}")
                for name in ("hit", "miss", "corrupt", "version_mismatch")
            }

        def delta(before):
            return {
                name: value - before[name]
                for name, value in counters().items()
                if value != before[name]
            }

        try:
            reset_caches()
            want = check_candidates_lockstep(problem, sources)
            sim_cache.configure(str(tmp_path))
            entries = len(set(sources)) + 1  # + the golden-ref bundle
            # 1. marshal bytes cut short inside otherwise sound pickles
            real_dumps = marshal.dumps
            monkeypatch.setattr(
                sim_compile.marshal, "dumps",
                lambda code: real_dumps(code)[:-7],
            )
            reset_caches()
            assert check_candidates_lockstep(problem, sources) == want
            monkeypatch.undo()
            before = counters()
            reset_caches()
            assert check_candidates_lockstep(problem, sources) == want
            # the golden's own source passes on its token digest, so its
            # design entry holds no code to cut short: a sound hit
            assert delta(before) == {
                "corrupt": entries - 1, "miss": entries - 1, "hit": 1,
            }
            # 2. the refill is sound: every entry hits, nothing is lowered
            before = counters()
            emitted = obs.counter_value("sim.codegen.emitted")
            reset_caches()
            assert check_candidates_lockstep(problem, sources) == want
            assert delta(before) == {"hit": entries}
            assert obs.counter_value("sim.codegen.emitted") == emitted
            # 3. the same directory read by the next backend version
            monkeypatch.setattr(
                sim_cache, "BACKEND_VERSION", sim_cache.BACKEND_VERSION + 1
            )
            before = counters()
            reset_caches()
            assert check_candidates_lockstep(problem, sources) == want
            assert delta(before) == {
                "version_mismatch": entries, "miss": entries,
            }
        finally:
            sim_cache.configure(previous)
            reset_caches()

    def test_previous_version_counter_image_is_not_reused(
        self, tmp_path, monkeypatch
    ):
        """An async-reset counter stored by backend version 14 carries a
        form-keyed code dict whose ``generic`` entry ran its reset
        pokes: under this layout the entry still unpickles (the dict is
        not marshal bytes), so ``get_design`` reads its version and misses
        on it (``version_mismatch``, not ``corrupt``), and the
        re-elaborated design pickles one code object."""
        from repro.sim import cache as sim_cache
        from repro.sim import compile as sim_compile

        source, kwargs, _, _ = GALLERY["async_reset_outside_stimulus"]
        previous = sim_cache.configure(str(tmp_path))
        try:
            stale = build(source, "m")
            Testbench(stale, **kwargs, backend="compiled").apply_reset()
            image = stale._compiled
            # version 14's generic text for this block, and its layout
            generic = compile(
                "def s0(st, mems, nba):\n"
                " nba += ((0, 2, 0, 4, 0),)\n",
                "<repro.sim.compile>", "exec", dont_inherit=True,
            )
            layout_14 = (
                [image.topo, image.readers, image.writers,
                 image.trigger_slots],
                len(image.nodes),
                [triggers for triggers, _ in image.seq],
                len(image.initial),
                sim_compile._MAGIC,
                {"fused": marshal.dumps(image.code),
                 "generic": marshal.dumps(generic)},
            )
            with monkeypatch.context() as patch:
                patch.setattr(sim_cache, "BACKEND_VERSION", 14)
                patch.setattr(
                    sim_compile.CompiledDesign, "__getstate__",
                    lambda self: layout_14,
                )
                assert sim_cache.put_design(source, "m", stale)
            counts = {
                name: obs.counter_value(f"sim.cache.{name}")
                for name in ("version_mismatch", "miss", "corrupt")
            }
            assert sim_cache.get_design(source, "m") is None
            assert {
                name: obs.counter_value(f"sim.cache.{name}") - value
                for name, value in counts.items()
            } == {"version_mismatch": 1, "miss": 1, "corrupt": 0}
            # the caller's miss path: elaborate again, check, store
            fresh = build(source, "m")
            Testbench(fresh, **kwargs, backend="compiled").apply_reset()
            assert sim_cache.put_design(source, "m", fresh)
            restored = sim_cache.get_design(source, "m")
            assert restored._compiled.levelized
            assert isinstance(restored._compiled.code, type(generic))
        finally:
            sim_cache.configure(previous)

    def test_restored_design_equals_the_original(self):
        design = build(self.SOURCE, "m")
        want = self._run(design)
        clone = pickle.loads(pickle.dumps(design))
        assert "_ast" in clone.__dict__
        assert "seq_blocks" not in clone.__dict__
        assert clone == design  # reads the AST
        assert "_ast" not in clone.__dict__
        assert repr(clone) == repr(design)
        assert self._run(clone) == want

    def test_untouched_restored_design_re_pickles_its_blob(self):
        design = build(self.SOURCE, "m")
        self._run(design)
        clone = pickle.loads(pickle.dumps(design))
        blob = clone.__dict__["_ast"]
        again = pickle.loads(pickle.dumps(clone))
        assert again.__dict__["_ast"] == blob
        assert "_ast" in clone.__dict__  # pickling read nothing
        assert again == design

    def test_restored_candidate_replays_with_its_ast_deferred(self):
        """A sequential candidate restored from a pickle runs a whole
        episode off its image: the AST is never unpickled."""
        design = build(self.SOURCE, "m")
        stimulus = random_stimulus(design, 40, seed=9)
        names, rows = stimulus_rows(stimulus)

        def episode(candidate, trace):
            bench = Testbench(candidate, reset="rst", backend="compiled")
            bench.apply_reset()
            return bench.sim.replay_fn(bench.clock, names, ("q", "y"))(
                rows, trace
            )

        bench = Testbench(design, reset="rst", backend="compiled")
        bench.apply_reset()
        step = bench.sim.cycle_fn(bench.clock, names, ("q", "y"))
        trace = [step(row) for row in rows]
        clone = pickle.loads(pickle.dumps(design))
        emitted = obs.counter_value("sim.codegen.emitted")
        assert episode(clone, trace) == (40, None)
        assert "_ast" in clone.__dict__
        assert obs.counter_value("sim.codegen.emitted") == emitted

    def test_lane_rung_materialises_the_ast_once(self, monkeypatch):
        from repro.vereval import harness

        # the module, not the function `repro.sim` exports under its name
        sim_elaborate = importlib.import_module("repro.sim.elaborate")

        (problem,) = build_problem_set(
            n_problems=1, families=["alu"], stimulus_cycles=24
        )
        assert problem.module.interface.clock is None
        ref = harness._GoldenRef(problem)
        clone = pickle.loads(pickle.dumps(
            build(problem.golden_source, problem.module.name)
        ))
        thawed = []
        real_thaw = sim_elaborate._thaw
        monkeypatch.setattr(
            sim_elaborate, "_thaw",
            lambda blob: thawed.append(blob) or real_thaw(blob),
        )
        allvec = obs.counter_value("batch.allvec_checks")
        (verdict,) = harness._check_many_against_trace(ref, [clone], problem)
        assert verdict.equivalent
        assert obs.counter_value("batch.allvec_checks") == allvec + 1
        assert len(thawed) == 1 and "_ast" not in clone.__dict__

    def test_previous_version_entries_are_evicted(self, tmp_path,
                                                  monkeypatch):
        """A version-12 pack at the key names, holding a ``design`` entry
        (AST inline) and a ``golden-ref`` entry (stimulus dicts) of older
        layouts: each unpickles, counts a version mismatch and a miss, and
        loses its one name while its sibling stays."""
        from repro.sim import cache as sim_cache
        from repro.vereval import harness

        (problem,) = build_problem_set(
            n_problems=1, families=["shift_register"], stimulus_cycles=24
        )
        name = problem.module.name
        ref = harness._GoldenRef(problem)
        layout_11 = {
            "signature": ref.signature,
            "stimulus": ref.stimulus,
            "output_names": ref.output_names,
            "trace": ref.trace,
            "error": None,
            "error_phase": "",
            "coverage": None,
            "full_cycles": len(ref.rows),
        }
        entries = [
            (("design", problem.golden_source, name),
             build(problem.golden_source, name)),
            (("golden-ref", *harness._golden_disk_key(problem)), ref),
        ]
        previous = sim_cache.configure(str(tmp_path))
        try:
            with monkeypatch.context() as patch:
                patch.setattr(sim_cache, "BACKEND_VERSION", 12)
                patch.setattr(
                    Design, "__getstate__",
                    lambda self: dict(self.__dict__),
                )
                patch.setattr(
                    harness._GoldenRef, "__getstate__",
                    lambda self: (
                        None, {"design": self.design, **layout_11}
                    ),
                )
                assert sim_cache.store_many(
                    [(kind, parts, payload)
                     for (kind, *parts), payload in entries]
                ) == 2
            paths = [
                sim_cache._path_for(
                    str(tmp_path), sim_cache._key(kind, *parts)
                )
                for (kind, *parts), _ in entries
            ]
            assert os.stat(paths[0]).st_ino == os.stat(paths[1]).st_ino
            for ((kind, *parts), _), path in zip(entries, paths):
                counts = {
                    n: obs.counter_value(f"sim.cache.{n}")
                    for n in ("version_mismatch", "miss", "corrupt", "evict")
                }
                assert sim_cache.load(kind, *parts) is None
                assert {
                    n: obs.counter_value(f"sim.cache.{n}") - counts[n]
                    for n in counts
                } == {"version_mismatch": 1, "miss": 1, "corrupt": 0,
                      "evict": 1}
                assert not os.path.exists(path)
                assert os.path.exists(paths[1]) == (path == paths[0])
        finally:
            sim_cache.configure(previous)

    def test_stage_with_compiled_designs_ships_to_a_worker(self):
        from repro.evalkit.stages import CheckStage

        design = build(self.SOURCE, "m")
        want = self._run(design)
        Simulator(design, backend="compiled").poke("clk", 1)
        stage = CheckStage({"task": _DesignChecker(design)}, cache_dir="")
        clone = pickle.loads(pickle.dumps(stage)).checkers["task"].design
        assert clone._compiled.code is not None
        assert self._run(clone) == want


class _DesignChecker:
    """A checker that holds an elaborated design (module level: pickles)."""

    def __init__(self, design):
        self.design = design

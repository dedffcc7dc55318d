"""Differential tests: the lane evaluator vs the scalar backends.

Lanes are combinational.  For a stateless combinational design one
N-vector :class:`BatchSimulator` settle must equal the per-vector scalar
outputs (compiled and interpreter, stepped in order on one simulator);
every other design must raise :class:`UnbatchableDesign` at lowering
(its base :class:`UncompilableDesign` when it does not levelize), and
its sweep — the scalar replay every caller falls back to — must
equal the interpreter's.  The oracle runs across every generator family,
the vereval problem set and hypothesis draws.  The persistent compile
cache (:mod:`repro.sim.cache`) must round-trip artifacts with identical
behaviour while rejecting stale-version keys.
"""

import pickle

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SimulationError
from repro.sim import (
    BatchSimulator,
    CompiledSimulator,
    Simulator,
    UnbatchableDesign,
    UncompilableDesign,
    batch_design,
    elaborate,
    equivalence_check,
    random_stimulus,
    sweep_random_stimulus,
)
from repro.sim import cache as sim_cache
from repro.sim.retire import lane_vector
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set
from repro.vereval.problems import EvalProblem
from repro.vgen import FAMILIES, generate_family
from repro.vgen.base import GeneratedModule, ModuleInterface
from repro.verilog import parse_source

import repro.vereval.harness as harness

ALL_FAMILIES = sorted(FAMILIES)


def build(source, top):
    return elaborate(parse_source(source), top)


def assert_settle_equals_scalar(source, top, stimulus):
    """One settle with vector ``i`` of ``stimulus`` in lane ``i`` equals
    the same vectors applied in order to one scalar simulator (compiled,
    then the interpreter)."""
    design = build(source, top)
    sim = BatchSimulator(design, n_lanes=len(stimulus))
    sim.poke_many({
        name: lane_vector([vector[name] for vector in stimulus])
        for name in stimulus[0]
    })
    columns = [sim.peek_lanes(s.name).tolist() for s in design.outputs]
    lanes = list(zip(*columns))
    for backend in ("compiled", "interp"):
        scalar = Simulator(build(source, top), backend=backend)
        expected = []
        for vector in stimulus:
            scalar.poke_many(vector)
            expected.append(tuple(scalar.peek(s.name) for s in design.outputs))
        assert lanes == expected, (top, backend)


def assert_lane_oracle(module, cycles, seeds):
    """Combinational: the settle equals the scalar steps.  Otherwise:
    lowering refuses and the sweep equals the interpreter sweep.
    Returns which side of that split ``module`` fell on."""
    interface = module.interface
    design = build(module.source, module.name)
    if interface.clock is None:
        stimulus = [
            vector for seed in seeds
            for vector in random_stimulus(design, cycles, seed)
        ]
        assert_settle_equals_scalar(module.source, module.name, stimulus)
        return "lanes"
    with pytest.raises(UnbatchableDesign, match="combinational"):
        batch_design(design, len(seeds))
    kwargs = dict(
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
    )
    swept = sweep_random_stimulus(design, cycles, seeds, **kwargs)
    reference = sweep_random_stimulus(
        design, cycles, seeds, backend="interp", **kwargs
    )
    assert swept == reference, module.name
    return "scalar"


#: combinational control flow and operators the families leave out, each
#: a predicate-mask or sign mistake the family corpus would not see
LANE_GALLERY = {
    "casez_overlapping_arms": """module m(input [3:0] r, output reg [1:0] y,
  output reg v);
  always @* begin
    v = 1;
    casez (r)
      4'b1???: y = 3;
      4'b?1??: y = 2;
      4'b??1?: y = 1;
      4'b???1: y = 0;
      default: begin y = 0; v = 0; end
    endcase
  end
endmodule""",
    "case_duplicate_label": """module m(input [1:0] s, input [3:0] a,
  input [3:0] b, output reg [3:0] y);
  always @* begin
    case (s)
      2'd1: y = a;
      2'd1: y = b;
      2'd2, 2'd3: y = a ^ b;
      default: y = 4'd0;
    endcase
  end
endmodule""",
    "nested_if_in_case": """module m(input [2:0] a, input [1:0] s,
  output reg [1:0] y);
  always @* begin
    y = 0;
    case (s)
      2'd0: if (a[0]) begin
        if (a[1]) y = 1; else y = 2;
      end else if (a[2]) y = 3;
      2'd1: y = a[1:0];
      default: if (a == 3'd7) y = 3;
    endcase
  end
endmodule""",
    "for_loop_count": """module m(input [7:0] d, input [3:0] n,
  output reg [3:0] c, output reg [2:0] hi);
  integer i;
  always @* begin
    c = 0;
    hi = 0;
    for (i = 0; i < n; i = i + 1)
      if (d[i]) begin
        c = c + 1;
        hi = i;
      end
  end
endmodule""",
    "signed_operators": """module m(input [7:0] a, input [7:0] b,
  input [2:0] n, output [7:0] q, output [7:0] r, output [7:0] sr,
  output lt, output [7:0] p, output [3:0] lg);
  wire signed [7:0] sa = a;
  wire signed [7:0] sb = b;
  assign q = sa / sb;
  assign r = sa % sb;
  assign sr = sa >>> n;
  assign lt = sa < sb;
  assign p = a ** n;
  assign lg = $clog2(a);
endmodule""",
    "concat_and_select": """module m(input [7:0] a, input [7:0] b,
  input [2:0] i, output [7:0] s, output c, output reg [3:0] hi,
  output reg [3:0] lo, output [3:0] w, output bit);
  assign {c, s} = a + b;
  assign w = a[i +: 4];
  assign bit = b[{1'b0, i} + 4'd6];
  always @* {hi, lo} = a ^ b;
endmodule""",
}


class TestEveryFamilyLaneIdentity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_lane_identical(self, family):
        for seed in range(2):
            module = generate_family(
                family, DeterministicRNG(seed).fork("batchdiff", family)
            )
            assert_lane_oracle(module, 24, seeds=range(4))

    @pytest.mark.parametrize("name", sorted(LANE_GALLERY))
    def test_gallery_lane_identical(self, name):
        source = LANE_GALLERY[name]
        design = build(source, "m")
        stimulus = [
            vector for seed in range(4)
            for vector in random_stimulus(design, 24, seed)
        ]
        assert_settle_equals_scalar(source, "m", stimulus)


class TestProblemSetLaneIdentity:
    def test_vereval_goldens_lane_identical(self):
        problems = build_problem_set(n_problems=20)
        sides = {
            assert_lane_oracle(
                problem.module,
                cycles=problem.stimulus_cycles,
                seeds=[problem.stimulus_seed, problem.stimulus_seed + 1],
            )
            for problem in problems
        }
        assert sides == {"lanes", "scalar"}


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    seed=st.integers(0, 2**20),
    stim_seed=st.integers(0, 2**20),
    lanes=st.integers(1, 5),
)
def test_fuzz_lane_identity(family, seed, stim_seed, lanes):
    module = generate_family(
        family, DeterministicRNG(seed).fork("batchfuzz", family)
    )
    assert_lane_oracle(module, 12, seeds=range(stim_seed, stim_seed + lanes))


class TestOneLaneFacade:
    """One lane, the narrowest width, against the interpreter."""

    @pytest.mark.parametrize("family", ["alu", "fifo", "traffic_fsm", "lfsr"])
    def test_cycle_identical_to_interpreter(self, family):
        module = generate_family(
            family, DeterministicRNG(7).fork("facade", family)
        )
        assert_lane_oracle(module, 24, seeds=[13])

    def test_scalar_fallback_for_unlevelizable(self):
        # Comb loop: unlevelizable, so neither lanes nor the compiled
        # backend lower it; the scalar path every caller falls back to
        # ("auto": the interpreter) classifies the loop.
        source = (
            "module m(output y); wire a, b;"
            " assign a = ~b; assign b = a; assign y = a; endmodule"
        )
        with pytest.raises(UncompilableDesign, match="does not levelize"):
            batch_design(build(source, "m"), 2)
        with pytest.raises(SimulationError) as err:
            Simulator(build(source, "m"))
        assert "combinational loop" in str(err.value)

    def test_fallback_is_scalar_simulator(self):
        # Self-assign behind a clocked block: not a lane design, and the
        # scalar simulator callers fall back to is the compiled one.
        source = (
            "module m(input clk, input en, output wire [3:0] count);"
            " reg [3:0] count;"
            " always @(posedge clk) if (en) count <= count + 1'b1;"
            " assign count = count;"
            " endmodule"
        )
        with pytest.raises(UnbatchableDesign):
            batch_design(build(source, "m"), 1)
        sim = Simulator(build(source, "m"))
        assert isinstance(sim, CompiledSimulator)
        sim.poke("en", 1)
        for _ in range(3):
            sim.poke("clk", 0)
            sim.poke("clk", 1)
        assert sim.peek("count") == 3

    def test_wide_design_falls_back_to_scalar(self):
        # Anything wider than the 63-bit int64 lane budget is
        # unbatchable; the scalar replay is exact at any width.
        for width in (64, 96, 128):
            source = (
                f"module m(input [{width - 1}:0] a,"
                f" output [{width - 1}:0] y); assign y = ~a; endmodule"
            )
            design = build(source, "m")
            with pytest.raises(UnbatchableDesign):
                batch_design(design, 4)
            with pytest.raises(UnbatchableDesign):
                BatchSimulator(design)
            sim = Simulator(design)
            value = (1 << width) - 2
            sim.poke("a", value)
            assert sim.peek("y") == value ^ ((1 << width) - 1)
            assert sweep_random_stimulus(
                design, 6, range(4), clock=None
            ) == sweep_random_stimulus(
                design, 6, range(4), clock=None, backend="interp"
            )
        # A dynamic field write far above a 128-bit register (a select
        # lvalue, too): raw out-of-range semantics are the scalar
        # backends'.
        design = build(
            "module m(input [7:0] idx, input [7:0] d,"
            " output reg [127:0] y);"
            " always @* begin y = 128'd0; y[idx*32 +: 8] = d; end"
            " endmodule", "m"
        )
        with pytest.raises(UnbatchableDesign):
            batch_design(design, 8)
        assert sweep_random_stimulus(
            design, 8, range(4), clock=None
        ) == sweep_random_stimulus(
            design, 8, range(4), clock=None, backend="interp"
        )


class TestErrorClassificationPerLane:
    def test_sweep_replays_errors_identically(self):
        # Multi-driven net: drivers disagree once poked, and the design
        # is unlevelizable — per-episode errors must equal the
        # interpreter's.
        source = (
            "module m(input a, input b, output y);"
            " assign y = a; assign y = b; endmodule"
        )
        design = build(source, "m")
        with pytest.raises(UncompilableDesign, match="does not levelize"):
            batch_design(design, 3)
        swept = sweep_random_stimulus(design, 8, range(3), clock=None)
        reference = sweep_random_stimulus(
            design, 8, range(3), clock=None, backend="interp"
        )
        assert swept.errors == reference.errors
        assert swept.traces == reference.traces
        assert any(error for error in swept.errors)


class TestBatchTestbench:
    def test_poke_many_routes_lanes(self):
        design = build(
            "module m(input [7:0] a, input [7:0] b, output [8:0] y);"
            " assign y = a + b; endmodule", "m"
        )
        sim = BatchSimulator(design, n_lanes=4)
        sim.poke_many({
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([10, 20, 30, 40], dtype=np.int64),
        })
        assert sim.peek_lanes("y").tolist() == [11, 22, 33, 44]

    def test_unbatchable_design_raises_at_construction(self):
        # Not levelizable: the scheduler's refusal, which lanes share.
        with pytest.raises(UncompilableDesign, match="does not levelize"):
            BatchSimulator(build(
                "module m(input a, output y); assign y = a; assign y = ~a;"
                " endmodule", "m"
            ), 2)
        # Then one design per kind of state or select lvalue lanes refuse.
        for source in (
            "module m(input clk, input a, output reg y);"
            " always @(posedge clk) y <= a; endmodule",
            "module m(input a, output reg y); initial y = 1;"
            " always @* y = a; endmodule",
            "module m(input [1:0] a, output [3:0] y); reg [3:0] rom [0:3];"
            " assign y = rom[a]; endmodule",
            "module m(input en, input a, output reg y);"
            " always @* if (en) y = a; endmodule",
            "module m(input a, output reg y); always @* y <= a; endmodule",
            "module m(input a, output [1:0] y); assign y[0] = a;"
            " assign y[1] = ~a; endmodule",
            "module m(input a, output reg [1:0] y);"
            " always @* begin y = 0; y[1:0] = {a, a}; end endmodule",
        ):
            with pytest.raises(UnbatchableDesign):
                BatchSimulator(build(source, "m"), 2)

    def test_ragged_custom_stimuli_match_scalar(self):
        # Custom episodes may differ in length; each is its own replay.
        design = build(
            "module m(input [3:0] a, output [3:0] y); assign y = ~a;"
            " endmodule", "m"
        )
        stimuli = [
            [{"a": 1}, {"a": 2}, {"a": 3}],
            [{"a": 4}, {"a": 5}, {"a": 6}, {"a": 7}, {"a": 8}],
        ]
        swept = sweep_random_stimulus(
            design, 0, seeds=(0, 1), clock=None, stimuli=stimuli
        )
        reference = sweep_random_stimulus(
            design, 0, seeds=(0, 1), clock=None, stimuli=stimuli,
            backend="interp",
        )
        assert [len(t) for t in swept.traces] == [3, 5]
        assert swept == reference
        # Episodes may drive different input sets (the undriven input
        # holds its value) and reorder keys.
        reg = build(
            "module r(input clk, input a, input b, output reg [1:0] q);"
            " always @(posedge clk) q <= {a, b}; endmodule", "r"
        )
        uneven = [
            [{"a": 1, "b": 0}, {"a": 0, "b": 1}],
            [{"a": 1}, {"a": 0}],
            [{"b": 1, "a": 0}, {"b": 1, "a": 1}],
        ]
        swept = sweep_random_stimulus(reg, 0, seeds=(0, 1, 2), stimuli=uneven)
        reference = sweep_random_stimulus(
            reg, 0, seeds=(0, 1, 2), stimuli=uneven, backend="interp"
        )
        assert swept == reference
        assert swept.traces == [[(2,), (1,)], [(2,), (0,)], [(1,), (3,)]]
        # Within one episode every vector drives the same inputs: the
        # default path raises the documented error, like every backend.
        for backend in (None, "compiled", "interp"):
            with pytest.raises(ValueError, match="same inputs"):
                sweep_random_stimulus(
                    reg, 0, seeds=(0,), backend=backend,
                    stimuli=[[{"a": 1, "b": 0}, {"a": 0}]],
                )


class TestLaneRepresentationMatrix:
    """The oracle on pinned families, and wide designs' per-episode error
    classification on the scalar replay."""

    @pytest.mark.parametrize("family", ["alu", "traffic_fsm", "lfsr"])
    def test_pinned_representation_lane_identical(self, family):
        module = generate_family(
            family, DeterministicRNG(11).fork("repmatrix", family)
        )
        assert_lane_oracle(module, 16, range(3))

    def test_wide_error_classification_matches_scalar(self):
        # Wide multi-driven net: unbatchable twice over, so every episode
        # replays scalar — per-episode error classification must match
        # the interpreter's exactly.
        source = (
            "module m(input [95:0] a, input [95:0] b,"
            " output [95:0] y); assign y = a; assign y = b; endmodule"
        )
        design = build(source, "m")
        with pytest.raises(UnbatchableDesign):
            batch_design(design, 3)
        swept = sweep_random_stimulus(design, 6, range(3), clock=None)
        reference = sweep_random_stimulus(
            design, 6, range(3), clock=None, backend="interp"
        )
        assert swept.errors == reference.errors
        assert swept.traces == reference.traces
        assert any(swept.errors)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    seed=st.integers(0, 2**18),
)
def test_fuzz_representation_identity(family, seed):
    module = generate_family(
        family, DeterministicRNG(seed).fork("repfuzz", family)
    )
    assert_lane_oracle(module, 10, range(3))


def _without_fast_path(patch):
    """Route every candidate to the scalar replay: the all-vectors rung
    declines, as it does for a candidate that does not lane-lower."""
    patch.setattr(
        harness, "_check_all_vectors_batch", lambda ref, cand, prob: None
    )


class TestCombinationalFastPath:
    """The all-vectors lane check must be verdict-identical and actually
    engage for stateless combinational problems."""

    @staticmethod
    def _comb_problem(cycles=32):
        problems = build_problem_set(n_problems=12, stimulus_cycles=cycles)
        for problem in problems:
            if problem.module.interface.clock is None:
                return problem
        raise AssertionError("no combinational problem in the set")

    def test_fast_path_engages(self):
        problem = self._comb_problem()
        design = build(problem.golden_source, problem.module.name)
        batch_design(design, problem.stimulus_cycles)  # lowers
        ref = harness._GoldenRef(problem)
        verdict = harness._check_all_vectors_batch(ref, design, problem)
        assert verdict is not None and verdict.equivalent

    def test_verdicts_identical_with_and_without_fast_path(
        self, monkeypatch
    ):
        problem = self._comb_problem()
        golden = problem.golden_source
        candidates = [
            golden,
            golden.replace("+", "-", 1).replace("&", "|", 1),
            golden.replace("assign", "assign", 1),  # identity variant
        ]
        for source in candidates:
            try:
                fast = harness.check_candidate_source(problem, source)
                harness._GOLDEN_CACHE.clear()
                with monkeypatch.context() as patch:
                    _without_fast_path(patch)
                    slow = harness.check_candidate_source(problem, source)
            finally:
                harness._GOLDEN_CACHE.clear()
            assert fast == slow, source

    def test_mismatch_bookkeeping_identical(self, monkeypatch):
        problem = self._comb_problem()
        ref = harness._GoldenRef(problem)
        broken = build(
            problem.golden_source.replace("assign", "assign ", 1)
            .replace("+", "^", 1).replace("-", "&", 1),
            problem.module.name,
        )
        fast = harness._check_all_vectors_batch(ref, broken, problem)
        with monkeypatch.context() as patch:
            _without_fast_path(patch)
            slow = harness._check_many_against_trace(
                ref, [broken], problem
            )[0]
        if fast is not None:  # replacement may be a no-op for some styles
            assert fast == slow

    def test_wide_comb_problem_takes_the_scalar_replay(self, monkeypatch):
        # >63-bit combinational family: the candidate does not
        # lane-lower, so the all-vectors rung declines (counted) and the
        # scalar per-cycle loop decides, exact at full width.
        source = (
            "module widecomb(input [95:0] a, input [95:0] b,"
            " output [96:0] s, output [95:0] x);"
            " assign s = a + b; assign x = a ^ {b[47:0], b[95:48]};"
            " endmodule"
        )
        module = GeneratedModule(
            family="widecomb",
            source=source,
            interface=ModuleInterface(
                module_name="widecomb", clock=None, reset=None,
                reset_active_high=True,
                inputs=[("a", 96), ("b", 96)],
                outputs=[("s", 97), ("x", 96)],
            ),
            description="wide combinational datapath",
        )
        problem = EvalProblem(
            problem_id="widecomb", module=module, stimulus_cycles=24,
            stimulus_seed=2,
        )
        design = build(source, "widecomb")
        ref = harness._GoldenRef(problem)
        fallbacks = obs.counter_value("batch.fallback_scalar")
        assert harness._check_all_vectors_batch(ref, design, problem) is None
        assert obs.counter_value("batch.fallback_scalar") == fallbacks + 1
        # Pass and mismatch verdicts equal the flag-off replay field for
        # field.
        broken = build(source.replace("a + b", "a - b"), "widecomb")
        for candidate, equivalent in ((design, True), (broken, False)):
            default = harness._check_many_against_trace(
                ref, [candidate], problem
            )[0]
            with monkeypatch.context() as patch:
                _without_fast_path(patch)
                slow = harness._check_many_against_trace(
                    ref, [candidate], problem
                )[0]
            assert default == slow
            assert default.equivalent is equivalent

    def test_sequential_problem_skips_fast_path(self):
        problems = build_problem_set(n_problems=33)
        problem = next(
            p for p in problems if p.module.interface.clock is not None
        )
        ref = harness._GoldenRef(problem)
        design = build(problem.golden_source, problem.module.name)
        assert harness._check_all_vectors_batch(ref, design, problem) is None

    def test_comb_latch_candidate_skips_fast_path(self):
        # `always @* if (en) y = a;` levelizes but holds state between
        # settles (a combinational latch): outputs are NOT a pure
        # function of inputs, so the all-vectors trick must refuse it —
        # and the fast-on/fast-off verdicts must agree.
        problem = self._comb_problem()
        latch = (
            f"module {problem.module.name}(input en, input [3:0] a,"
            " output reg [3:0] y);"
            " always @(*) if (en) y = a;"
            " endmodule"
        )
        latch_design = build(latch, problem.module.name)
        with pytest.raises(UnbatchableDesign, match="latch"):
            batch_design(latch_design, 4)
        ref = harness._GoldenRef(problem)
        # Interface differs from the problem's golden, so go straight at
        # the fast-path helper: it must decline, not mis-verdict.
        assert harness._check_all_vectors_batch(
            ref, latch_design, problem
        ) is None

    def test_latchy_golden_verdicts_identical(self, monkeypatch):
        # End to end: a problem whose golden *is* a latch must produce
        # the same verdict with the fast path enabled and disabled for a
        # byte-identical candidate (which exercises the stateless gate).
        module = generate_family(
            "mux", DeterministicRNG(3).fork("latchy", "mux")
        )
        latch_source = (
            f"module {module.name}(input en, input [3:0] a,"
            " output reg [3:0] y);"
            " always @(*) if (en) y = a;"
            " endmodule"
        )
        module.source = latch_source  # golden is now the latch
        problem = EvalProblem(
            problem_id="latchy", module=module, stimulus_cycles=16,
            stimulus_seed=9,
        )
        try:
            harness._GOLDEN_CACHE.clear()
            fast = harness.check_candidate_source(problem, latch_source)
            harness._GOLDEN_CACHE.clear()
            with monkeypatch.context() as patch:
                _without_fast_path(patch)
                slow = harness.check_candidate_source(problem, latch_source)
        finally:
            harness._GOLDEN_CACHE.clear()
        assert fast == slow == (True, "")


#: body-only operator swaps for near-miss candidates; the spaced forms
#: cannot touch ``<=``
_SWAPS = (
    (" + ", " - "), (" - ", " + "), (" & ", " | "), (" | ", " & "),
    (" ^ ", " | "), (" == ", " != "), (" != ", " == "), (" << ", " >> "),
    (" >> ", " << "), (" < ", " > "), (" > ", " < "),
)


def _near_misses(problem):
    """The golden, its ``vgen.mutate`` mutants and every single
    operator swap in its body, elaborated (those that elaborate)."""
    from repro.errors import ElaborationError, ParseError
    from repro.vgen.mutate import mutate

    source = problem.golden_source
    body_at = source.index(");") + 2
    sources = [source] + [m.source for m in mutate(problem.module)]
    for old, new in _SWAPS:
        at = source.find(old, body_at)
        while at != -1:
            sources.append(source[:at] + new + source[at + len(old):])
            at = source.find(old, at + len(old))
    designs = []
    for candidate in sources:
        try:
            designs.append(build(candidate, problem.module.name))
        except (ElaborationError, ParseError):
            pass
    return designs


def _per_candidate_rebuild(ref, candidate, problem):
    """The all-vectors rung as it was before bundles kept their lanes:
    input columns and the expected matrix rebuilt for each candidate."""
    from repro.sim.retire import RetireEngine, expected_matrix

    interface = problem.module.interface
    n_lanes = len(ref.rows)
    try:
        sim = BatchSimulator(candidate, n_lanes=n_lanes)
        engine = RetireEngine(
            ref.output_names,
            expected_matrix(ref.trace, len(ref.output_names)),
            n_lanes,
        )
        vector = {}
        reset = interface.reset
        if reset is not None and any(
            s.name == reset for s in candidate.inputs
        ):
            vector[reset] = 0 if interface.reset_active_high else 1
        for name, column in zip(ref.input_names, zip(*ref.rows)):
            vector[name] = lane_vector(column)
        sim.poke_many(vector)
        actual = np.stack(
            [sim.peek_lanes(name) for name in ref.output_names], axis=1
        )
    except (UncompilableDesign, SimulationError, OverflowError, ValueError):
        return None
    return engine.retire_all_vectors(actual)


class TestBundleLanes:
    """The all-vectors rung's input columns and expected matrix are
    built once per golden bundle (``_GoldenRef.lanes``), pickled with
    it, and shared read-only by every candidate's check."""

    @pytest.fixture(scope="class")
    def corpus(self):
        problems = [
            p for p in build_problem_set(60, stimulus_cycles=384)
            if p.module.interface.clock is None
        ]
        assert len(problems) == 20
        return [(p, _near_misses(p)) for p in problems]

    def test_fresh_loaded_and_rebuilt_arrays_agree(
        self, corpus, monkeypatch
    ):
        engaged = 0
        for problem, designs in corpus:
            fresh = harness._GoldenRef(problem)
            assert fresh.lanes is None
            first = [
                harness._check_all_vectors_batch(fresh, d, problem)
                for d in designs
            ]
            assert fresh.lanes is not None
            loaded = pickle.loads(pickle.dumps(fresh))
            assert loaded.lanes is not None
            second = [
                harness._check_all_vectors_batch(loaded, d, problem)
                for d in designs
            ]
            rebuilt = [
                _per_candidate_rebuild(fresh, d, problem) for d in designs
            ]
            # EquivalenceResult equality: every field
            assert first == second == rebuilt, problem.problem_id
            with monkeypatch.context() as patch:
                _without_fast_path(patch)
                scalar = harness._check_many_against_trace(
                    fresh, designs, problem
                )
            for lanes, replay in zip(first, scalar):
                if lanes is not None:
                    engaged += 1
                    assert lanes == replay, problem.problem_id
        assert engaged >= 45  # 49 when written

    def test_shared_arrays_are_read_only(self, corpus):
        problem, designs = corpus[0]
        ref = harness._GoldenRef(problem)
        assert harness._check_all_vectors_batch(
            ref, designs[0], problem
        ).equivalent
        loaded = pickle.loads(pickle.dumps(ref))
        for columns, expected in (ref.lanes, loaded.lanes):
            assert list(columns) == list(ref.input_names)
            for array in (*columns.values(), expected):
                assert array.dtype == np.int64
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        columns, expected = ref.lanes
        snapshot = [array.copy() for array in (*columns.values(), expected)]
        sim = BatchSimulator(designs[0], n_lanes=len(ref.rows))
        sim.poke_many(dict(columns))
        for name, column in columns.items():
            lanes = sim.st[sim.bdesign.slot_of[name]]
            assert lanes.flags.writeable
            assert not np.shares_memory(lanes, column)
        for design in designs:
            harness._check_all_vectors_batch(ref, design, problem)
        for before, after in zip(
            snapshot, (*columns.values(), expected)
        ):
            assert np.array_equal(before, after)

    def test_an_overflowing_bundle_still_falls_back_per_candidate(self):
        # The arrays are built inside the rung's try: a trace value past
        # int64 is a counted fallback for every candidate, as before.
        problem = TestCombinationalFastPath._comb_problem()
        ref = harness._GoldenRef(problem)
        design = build(problem.golden_source, problem.module.name)
        ref.trace = [tuple(1 << 64 for _ in row) for row in ref.trace]
        fallbacks = obs.counter_value("batch.fallback_scalar")
        for _ in range(2):
            assert harness._check_all_vectors_batch(
                ref, design, problem
            ) is None
        assert ref.lanes is None
        assert obs.counter_value("batch.fallback_scalar") == fallbacks + 2

    def test_a_cegis_entry_ref_takes_the_rung(self, corpus, monkeypatch):
        from repro.vereval.cegis import DistinguishingVector, _EntryRef

        problem, designs = corpus[0]
        ref = harness._GoldenRef(problem)
        entry = DistinguishingVector.from_run(
            ref.stimulus[:8], ref.output_names, ref.trace[:8]
        )
        checks = obs.counter_value("retire.allvec_checks")
        for design in designs:
            entry_ref = _EntryRef(ref, entry)
            assert entry_ref.lanes is None
            lanes = harness._check_all_vectors_batch(
                entry_ref, design, problem
            )
            assert lanes is not None and entry_ref.lanes is not None
            assert lanes == _per_candidate_rebuild(entry_ref, design, problem)
            with monkeypatch.context() as patch:
                _without_fast_path(patch)
                replay = harness._check_many_against_trace(
                    _EntryRef(ref, entry), [design], problem
                )[0]
            assert lanes == replay
        assert obs.counter_value("retire.allvec_checks") == (
            checks + 2 * len(designs)
        )
        assert harness._check_all_vectors_batch(
            _EntryRef(ref, entry), designs[0], problem
        ).cycles_run == 8


class TestGoldenCacheLRU:
    def test_eviction_is_lru_not_wholesale(self, monkeypatch):
        monkeypatch.setattr(harness, "_GOLDEN_CACHE_MAX", 2)
        monkeypatch.setattr(harness, "_GOLDEN_CACHE", type(
            harness._GOLDEN_CACHE
        )())
        problems = build_problem_set(n_problems=3)
        ref0 = harness._golden_ref(problems[0])
        harness._golden_ref(problems[1])
        # touch problem 0 so it is most-recently-used
        assert harness._golden_ref(problems[0]) is ref0
        harness._golden_ref(problems[2])  # evicts problem 1, not 0
        assert len(harness._GOLDEN_CACHE) == 2
        assert harness._golden_ref(problems[0]) is ref0
        keys = {key[0] for key in harness._GOLDEN_CACHE}
        assert problems[1].problem_id not in keys


class TestTupleTraces:
    def test_trace_rows_are_tuples_aligned_to_output_names(self):
        problem = build_problem_set(n_problems=1)[0]
        ref = harness._GoldenRef(problem)
        assert isinstance(ref.output_names, tuple) and ref.output_names
        assert all(isinstance(row, tuple) for row in ref.trace)
        assert all(len(row) == len(ref.output_names) for row in ref.trace)

    def test_verdict_matches_equivalence_check(self):
        problems = build_problem_set(n_problems=6)
        for problem in problems:
            interface = problem.module.interface
            ref = harness._GoldenRef(problem)
            golden = build(problem.golden_source, problem.module.name)
            verdict = harness._check_many_against_trace(
                ref, [golden], problem
            )[0]
            reference = equivalence_check(
                build(problem.golden_source, problem.module.name),
                golden,
                ref.stimulus,
                clock=interface.clock,
                reset=interface.reset,
                reset_active_high=interface.reset_active_high,
            )
            assert verdict == reference


def _store_rounds(root, keys, tag, rounds=40):
    """One cache writer process: ``rounds`` packs over ``keys``."""
    sim_cache.configure(root)
    for index in range(rounds):
        stored = sim_cache.store_many(
            [("blob", (f"k{i}",), [i, tag, index]) for i in keys]
        )
        assert stored == len(keys)


class TestPersistentCache:
    def _problem(self) -> EvalProblem:
        return build_problem_set(n_problems=1)[0]

    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        assert sim_cache.cache_dir() is None
        assert sim_cache.store("x", 1, "a") is False
        assert sim_cache.load("x", "a") is None

    def test_design_round_trip_identical_behaviour(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            problem = self._problem()
            source = problem.golden_source
            name = problem.module.name
            assert sim_cache.get_design(source, name) is None  # cold
            fresh = build(source, name)
            assert sim_cache.put_design(source, name, fresh)
            loaded = sim_cache.get_design(source, name)  # disk hit
            assert loaded is not None and loaded is not fresh
            interface = problem.module.interface
            stim = random_stimulus(loaded, 16, seed=3)
            verdict = equivalence_check(
                fresh, loaded, stim,
                clock=interface.clock, reset=interface.reset,
                reset_active_high=interface.reset_active_high,
            )
            assert verdict.equivalent  # compiled-backend behaviour identical
        finally:
            sim_cache.configure(previous)

    def test_golden_ref_round_trip(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            problem = self._problem()
            harness._GOLDEN_CACHE.clear()
            cold = harness._golden_ref(problem)
            # built outside a pool, the bundle is not stored: the pool
            # writes it with the designs of its own pack
            assert not list(tmp_path.iterdir())
            harness._GOLDEN_CACHE.clear()
            assert harness.check_candidate_source(problem, "module")[1] == (
                "syntax"
            )
            # nothing got past parse: one name, holding the reason
            (failure,) = tmp_path.iterdir()
            assert sim_cache.load(
                "design", "module", problem.module.name
            ) == "syntax"
            tokens = obs.counter_value("verilog.tokens")
            hits = obs.counter_value("sim.cache.hit")
            assert harness.check_candidate_source(problem, "module") == (
                False, "syntax"
            )
            assert obs.counter_value("sim.cache.hit") == hits + 1
            assert obs.counter_value("verilog.tokens") == tokens  # no parse
            passed, reason = harness.check_candidate_source(
                problem, problem.golden_source
            )
            assert passed, reason
            # the golden bundle and the candidate design: one more pack
            names = [n for n in tmp_path.iterdir() if n != failure]
            assert len(names) == 2
            assert {name.stat().st_ino for name in names} == {
                names[0].stat().st_ino
            }
            assert names[0].stat().st_ino != failure.stat().st_ino
            harness._GOLDEN_CACHE.clear()
            hits = obs.counter_value("sim.cache.hit")
            warm = harness._golden_ref(problem)  # disk hit, new object
            assert obs.counter_value("sim.cache.hit") == hits + 1
            assert warm is not cold
            assert warm.trace == cold.trace
            assert warm.output_names == cold.output_names
            assert warm.signature == cold.signature
            assert (warm.error, warm.error_phase) == (
                cold.error, cold.error_phase
            )
            assert (warm.input_names, warm.rows) == (
                cold.input_names, cold.rows
            )
        finally:
            sim_cache.configure(previous)
            harness._GOLDEN_CACHE.clear()

    def test_stale_version_key_rejected(self, tmp_path, monkeypatch):
        previous = sim_cache.configure(str(tmp_path))
        try:
            sim_cache.store("golden-ref", {"old": True}, "src", "m")
            assert sim_cache.load("golden-ref", "src", "m") == {"old": True}
            monkeypatch.setattr(
                sim_cache, "BACKEND_VERSION", sim_cache.BACKEND_VERSION + 1
            )
            assert sim_cache.load("golden-ref", "src", "m") is None
        finally:
            sim_cache.configure(previous)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store("blob", [1, 2, 3], "k")
            pkl = next(tmp_path.rglob("*.pkl"))
            pkl.write_bytes(b"not a pickle")
            assert sim_cache.load("blob", "k") is None
            assert not pkl.exists()
        finally:
            sim_cache.configure(previous)

    @staticmethod
    def _blobs(n, size=0):
        """``n`` store_many entries with distinct keys; ``size`` pads
        each payload so the records outgrow a load's first read."""
        return [("blob", (f"k{i}",), [i, "x" * size]) for i in range(n)]

    def test_pack_names_share_one_inode(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store_many(self._blobs(5, size=3000)) == 5
            names = sorted(tmp_path.iterdir())
            # a flat directory of five names: no fan-out, no temp file
            assert len(names) == 5
            assert all(n.suffix == ".pkl" and n.is_file() for n in names)
            stats = {(n.stat().st_ino, n.stat().st_nlink) for n in names}
            assert len(stats) == 1 and stats.pop()[1] == 5
            for i in range(5):
                assert sim_cache.load("blob", f"k{i}") == [i, "x" * 3000]
        finally:
            sim_cache.configure(previous)

    def test_evicting_one_name_leaves_its_siblings(self, tmp_path):
        from repro.testing import faults

        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store_many(self._blobs(3)) == 3
            faults.arm("sim.cache.load", "raise", nth=1)
            try:
                assert sim_cache.load("blob", "k1") is None  # evicted
            finally:
                faults.disarm("sim.cache.load")
            names = list(tmp_path.iterdir())
            assert len(names) == 2
            assert names[0].stat().st_nlink == 2
            assert sim_cache.load("blob", "k0") == [0, ""]
            assert sim_cache.load("blob", "k2") == [2, ""]
            assert sim_cache.load("blob", "k1") is None  # a plain miss now
        finally:
            sim_cache.configure(previous)

    @pytest.mark.parametrize("cut", ["index", "record"])
    def test_truncated_pack_is_corrupt_on_every_name_read(
        self, tmp_path, cut
    ):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store_many(self._blobs(3, size=3000)) == 3
            pack = next(tmp_path.iterdir())
            header = sim_cache._HEADER.size
            keep = (
                header + sim_cache._ENTRY.size  # mid-index
                if cut == "index"
                else header + 3 * sim_cache._ENTRY.size + 100  # record 0
            )
            with open(pack, "r+b") as handle:
                handle.truncate(keep)
            before = {
                n: obs.counter_value(f"sim.cache.{n}")
                for n in ("corrupt", "miss", "evict")
            }
            for i in range(3):
                assert sim_cache.load("blob", f"k{i}") is None
            assert {
                n: obs.counter_value(f"sim.cache.{n}") - before[n]
                for n in before
            } == {"corrupt": 3, "miss": 3, "evict": 3}
            assert not list(tmp_path.iterdir())
        finally:
            sim_cache.configure(previous)

    def test_key_repeated_in_one_call_is_stored_once(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            stores = obs.counter_value("sim.cache.store")
            assert sim_cache.store_many(
                [("blob", ("k",), 1), ("blob", ("k",), 2)]
            ) == 1
            assert obs.counter_value("sim.cache.store") == stores + 1
            (name,) = tmp_path.iterdir()
            assert name.stat().st_nlink == 1
            with open(name, "rb") as handle:
                magic, count = sim_cache._HEADER.unpack(
                    handle.read(sim_cache._HEADER.size)
                )
            assert count == 1
            assert sim_cache.load("blob", "k") == 2  # the last payload
        finally:
            sim_cache.configure(previous)

    def test_unpicklable_entry_is_skipped_not_the_pack(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store_many(
                [("blob", ("a",), 1), ("blob", ("b",), lambda: 0),
                 ("blob", ("c",), 3)]
            ) == 2
            assert sim_cache.load("blob", "a") == 1
            assert sim_cache.load("blob", "b") is None
            assert sim_cache.load("blob", "c") == 3
        finally:
            sim_cache.configure(previous)

    def test_restoring_an_existing_key_replaces_its_value(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store("blob", [1], "k")
            assert sim_cache.store_many(
                [("blob", ("k",), [2]), ("blob", ("j",), [3])]
            ) == 2
            assert sim_cache.load("blob", "k") == [2]  # the last writer
            assert sim_cache.load("blob", "j") == [3]
            names = list(tmp_path.iterdir())
            assert len(names) == 2
            assert not [n for n in names if n.suffix == ".tmp"]
            # the first pack lost its only name and is gone; the second
            # holds both
            assert {n.stat().st_nlink for n in names} == {2}
        finally:
            sim_cache.configure(previous)

    def test_concurrent_writers_on_overlapping_keys(self, tmp_path):
        import multiprocessing

        # three writer processes over overlapping key sets
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(
                target=_store_rounds, args=(str(tmp_path), list(keys), tag)
            )
            for tag, keys in (
                ("a", range(0, 12)), ("b", range(6, 18)),
                ("c", range(0, 18, 2)),
            )
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60)
            assert writer.exitcode == 0
        previous = sim_cache.configure(str(tmp_path))
        try:
            for i in range(18):
                value = sim_cache.load("blob", f"k{i}")
                assert value is not None and value[0] == i, i
        finally:
            sim_cache.configure(previous)
        names = list(tmp_path.iterdir())
        assert len(names) == 18
        assert not [n for n in names if n.suffix != ".pkl"]

    def test_design_batch_cache_not_pickled(self):
        design = build(
            "module m(input a, output y); assign y = ~a; endmodule", "m"
        )
        BatchSimulator(design, n_lanes=2)  # populates design._batch
        clone = pickle.loads(pickle.dumps(design))
        assert not hasattr(clone, "_batch")
        BatchSimulator(clone, n_lanes=2)  # re-lowers on first use
        assert set(clone._batch) == {2}

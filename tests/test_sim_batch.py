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

import io
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
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set
from repro.vereval.problems import EvalProblem
from repro.vgen import FAMILIES, generate_family
from repro.verilog import lex_source_digest, parse_source

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
        name: np.asarray(
            [vector[name] for vector in stimulus], dtype=np.int64
        )
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
        evicted = harness._golden_disk_key(problems[1])
        assert evicted not in harness._GOLDEN_CACHE


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
    """One cache writer process: ``rounds`` stores of every key."""
    sim_cache.configure(root)
    for index in range(rounds):
        for i in keys:
            assert sim_cache.store("blob", [i, tag, index], f"k{i}")


def _writer_pool(problem, tag):
    """The golden, two respellings of it and a near-miss, each spelled
    for writer ``tag`` alone, plus one source every writer shares."""
    golden = problem.golden_source
    near_miss = golden.replace(" + ", " - ", 1).replace(" & ", " | ", 1)
    shared = "// shared\n" + golden
    return [f"// {tag}{i}\n{source}"
            for i, source in enumerate((golden, golden, near_miss))] + [
        golden, shared,
    ]


def _check_rounds(root, tags, rounds=6):
    """One checker process: ``rounds`` fresh-process checks of one golden,
    a pool per writer tag in ``tags``."""
    sim_cache.configure(root)
    (problem,) = build_problem_set(n_problems=1)
    for index in range(rounds):
        harness.reset_caches()
        for tag in tags:
            harness.check_candidates_lockstep(
                problem, _writer_pool(problem, f"{tag}{index}")
            )


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
            # writes it into the problem's golden entry
            assert not list(tmp_path.iterdir())
            harness._GOLDEN_CACHE.clear()
            assert harness.check_candidate_source(problem, "module")[1] == (
                "syntax"
            )
            # nothing got past parse: one entry, holding the verdict and
            # no bundle
            (entry,) = tmp_path.iterdir()
            key = harness._golden_disk_key(problem)
            assert sim_cache.load("golden", *key) == (
                {harness._source_key("module"): (False, "syntax")}, None
            )
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
            # the verbatim golden passes before the front end; the call
            # built the bundle and added it and the verdict to the entry
            assert list(tmp_path.iterdir()) == [entry]
            table, blob = sim_cache.load("golden", *key)
            assert table == {
                harness._source_key("module"): (False, "syntax"),
                harness._source_key(problem.golden_source): (True, ""),
            }
            harness._GOLDEN_CACHE.clear()
            warm = harness._golden_ref(problem, blob)  # new object
            assert warm is not cold
            assert warm.digest == cold.digest
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

    def test_golden_bundle_is_plain_data(self, tmp_path):
        """A golden entry's bundle bytes unpickle to the eight data slots
        and name no class but the bundle's own: no ``Design``, no
        compiled image, for combinational and sequential goldens."""
        slots = (
            "digest", "signature", "input_names", "rows", "output_names",
            "trace", "error", "error_phase",
        )
        assert harness._GoldenRef.__slots__ == slots
        previous = sim_cache.configure(str(tmp_path))
        try:
            for problem in build_problem_set(stimulus_cycles=24)[::10]:
                harness._GOLDEN_CACHE.clear()
                assert harness.check_candidate_source(
                    problem, problem.golden_source
                ) == (True, "")
                _, blob = sim_cache.load(
                    "golden", *harness._golden_disk_key(problem)
                )
                classes = []

                class Recording(pickle.Unpickler):
                    def find_class(self, module, name):
                        classes.append((module, name))
                        return super().find_class(module, name)

                ref = Recording(io.BytesIO(blob)).load()
                assert classes == [("repro.vereval.harness", "_GoldenRef")]
                assert not hasattr(ref, "__dict__")
                assert [name for name in slots if hasattr(ref, name)] == list(
                    slots
                )
                assert ref.digest == lex_source_digest(
                    problem.golden_source
                )[1]
        finally:
            sim_cache.configure(previous)
            harness._GOLDEN_CACHE.clear()

    def test_stale_version_key_rejected(self, tmp_path, monkeypatch):
        previous = sim_cache.configure(str(tmp_path))
        try:
            sim_cache.store("golden", {"old": True}, "src", "m")
            assert sim_cache.load("golden", "src", "m") == {"old": True}
            monkeypatch.setattr(
                sim_cache, "BACKEND_VERSION", sim_cache.BACKEND_VERSION + 1
            )
            assert sim_cache.load("golden", "src", "m") is None
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

    def test_an_entry_is_one_file_at_its_key_name(self, tmp_path):
        # the last two entries take more than one read
        sizes = [0, 3000, 60_000, 70_000, 200_000]
        previous = sim_cache.configure(str(tmp_path))
        try:
            for i, size in enumerate(sizes):
                assert sim_cache.store("blob", [i, "x" * size], f"k{i}")
            # a flat directory of five names: no fan-out, no temp file,
            # no name shared
            names = sorted(tmp_path.iterdir())
            assert sorted(n.name for n in names) == sorted(
                sim_cache._key("blob", f"k{i}") + ".pkl" for i in range(5)
            )
            assert all(n.is_file() and n.stat().st_nlink == 1 for n in names)
            for i, size in enumerate(sizes):
                assert sim_cache.load("blob", f"k{i}") == [i, "x" * size]
        finally:
            sim_cache.configure(previous)

    def test_evicting_one_name_leaves_its_siblings(self, tmp_path):
        from repro.testing import faults

        previous = sim_cache.configure(str(tmp_path))
        try:
            for i in range(3):
                assert sim_cache.store("blob", [i], f"k{i}")
            faults.arm("sim.cache.load", "raise", nth=1)
            try:
                assert sim_cache.load("blob", "k1") is None  # evicted
            finally:
                faults.disarm("sim.cache.load")
            assert len(list(tmp_path.iterdir())) == 2
            assert sim_cache.load("blob", "k0") == [0]
            assert sim_cache.load("blob", "k2") == [2]
            assert sim_cache.load("blob", "k1") is None  # a plain miss now
        finally:
            sim_cache.configure(previous)

    @pytest.mark.parametrize("cut", ["envelope", "payload"])
    def test_a_truncated_entry_is_corrupt_and_evicted(self, tmp_path, cut):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store("blob", [0, "x" * 3000], "k")
            (name,) = tmp_path.iterdir()
            with open(name, "r+b") as handle:
                handle.truncate(4 if cut == "envelope" else 1000)
            before = {
                n: obs.counter_value(f"sim.cache.{n}")
                for n in ("corrupt", "miss", "evict")
            }
            assert sim_cache.load("blob", "k") is None
            assert {
                n: obs.counter_value(f"sim.cache.{n}") - before[n]
                for n in before
            } == {"corrupt": 1, "miss": 1, "evict": 1}
            assert not list(tmp_path.iterdir())
        finally:
            sim_cache.configure(previous)

    def test_key_repeated_in_one_call_is_stored_once(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            problem = self._problem()
            golden = problem.golden_source
            pool = [golden, "module", golden, "module", golden]
            harness.reset_caches()
            stores = obs.counter_value("sim.cache.store")
            assert harness.check_candidates_lockstep(problem, pool) == [
                (True, ""), (False, "syntax"),
            ] * 2 + [(True, "")]
            # one store of one entry, one verdict per distinct source
            assert obs.counter_value("sim.cache.store") == stores + 1
            (name,) = tmp_path.iterdir()
            assert name.stat().st_nlink == 1
            table, _ = sim_cache.load(
                "golden", *harness._golden_disk_key(problem)
            )
            assert table == {
                harness._source_key(golden): (True, ""),
                harness._source_key("module"): (False, "syntax"),
            }
        finally:
            sim_cache.configure(previous)
            harness.reset_caches()

    def test_an_unpicklable_payload_stores_nothing(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            stores = obs.counter_value("sim.cache.store")
            assert sim_cache.store("blob", lambda: 0, "b") is False
            assert obs.counter_value("sim.cache.store") == stores
            assert not list(tmp_path.iterdir())  # no name, no temp file
            assert sim_cache.load("blob", "b") is None
            assert sim_cache.store("blob", 3, "b")
            assert sim_cache.load("blob", "b") == 3
        finally:
            sim_cache.configure(previous)

    def test_restoring_an_existing_key_replaces_its_value(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store("blob", [1], "k")
            assert sim_cache.store("blob", [2], "k")
            assert sim_cache.store("blob", [3], "j")
            assert sim_cache.load("blob", "k") == [2]  # the last writer
            assert sim_cache.load("blob", "j") == [3]
            names = list(tmp_path.iterdir())
            assert len(names) == 2
            assert not [n for n in names if n.suffix == ".tmp"]
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

    def test_writer_processes_on_one_golden(self, tmp_path):
        import multiprocessing

        (problem,) = build_problem_set(n_problems=1)
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(
                target=_check_rounds, args=(str(tmp_path), tags)
            )
            # more writer processes than a 2-core host has cores
            for tags in (("a",), ("b", "c"), ("d",))
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(120)
            assert writer.exitcode == 0
        # one loadable entry, whole, and no temp file left behind
        names = list(tmp_path.iterdir())
        assert [n.suffix for n in names] == [".pkl"]
        previous = sim_cache.configure(str(tmp_path))
        try:
            key = harness._golden_disk_key(problem)
            entry = sim_cache.load(
                "golden", *key, accept=harness._is_golden_entry
            )
            assert entry is not None
            pool = [
                source
                for tag in ("a0", "b5", "c3", "d1", "z")
                for source in _writer_pool(problem, tag)
            ]
            sim_cache.configure("")
            harness.reset_caches()
            want = harness.check_candidates_lockstep(problem, pool)
            sim_cache.configure(str(tmp_path))
            harness.reset_caches()
            assert harness.check_candidates_lockstep(problem, pool) == want
        finally:
            sim_cache.configure(previous)
            harness.reset_caches()

    def test_design_batch_cache_not_pickled(self):
        design = build(
            "module m(input a, output y); assign y = ~a; endmodule", "m"
        )
        BatchSimulator(design, n_lanes=2)  # populates design._batch
        clone = pickle.loads(pickle.dumps(design))
        assert not hasattr(clone, "_batch")
        BatchSimulator(clone, n_lanes=2)  # re-lowers on first use
        assert set(clone._batch) == {2}

"""Differential tests: lane-parallel batch backend vs the scalar backends.

The batch backend must be *lane-for-lane identical* to the scalar
compiled backend — same per-cycle outputs for every lane under its own
seeded stimulus, same ``SimulationError`` classification — across every
generator family, the vereval problem set, and hypothesis draws; and the
persistent compile cache (:mod:`repro.sim.cache`) must round-trip
artifacts with identical behaviour while rejecting stale-version keys.
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
    BatchTestbench,
    CompiledSimulator,
    InterpreterSimulator,
    Simulator,
    Testbench,
    UnbatchableDesign,
    batch_design,
    elaborate,
    equivalence_check,
    random_stimulus,
    sweep_random_stimulus,
)
from repro.sim import cache as sim_cache
from repro.sim.batch import is_stateless_comb
from repro.sim.compile import UncompilableDesign
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


def sweep_module(module, cycles, seeds):
    """Sweep a GeneratedModule on the batch and scalar paths; compare."""
    interface = module.interface
    design = build(module.source, module.name)
    kwargs = dict(
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
    )
    batch = sweep_random_stimulus(design, cycles, seeds, **kwargs)
    scalar = sweep_random_stimulus(
        design, cycles, seeds, backend="compiled", **kwargs
    )
    assert not scalar.vectorized
    assert batch.output_names == scalar.output_names
    assert batch.traces == scalar.traces, module.name
    assert batch.errors == scalar.errors, module.name
    return batch


class TestEveryFamilyLaneIdentity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_lane_identical(self, family):
        vectorized = 0
        for seed in range(2):
            module = generate_family(
                family, DeterministicRNG(seed).fork("batchdiff", family)
            )
            result = sweep_module(module, 24, seeds=range(4))
            vectorized += result.vectorized
        # Every current generator family lane-lowers; if one stops doing
        # so this assert flags the silent loss of vector coverage.
        assert vectorized > 0, f"{family} never took the lane-parallel path"


class TestProblemSetLaneIdentity:
    def test_vereval_goldens_lane_identical(self):
        problems = build_problem_set(n_problems=20)
        assert problems
        for problem in problems:
            sweep_module(
                problem.module,
                cycles=problem.stimulus_cycles,
                seeds=[problem.stimulus_seed, problem.stimulus_seed + 1],
            )


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
    sweep_module(module, 12, seeds=range(stim_seed, stim_seed + lanes))


class TestOneLaneFacade:
    """``backend="batch"`` with one lane is a drop-in scalar simulator."""

    @pytest.mark.parametrize("family", ["alu", "fifo", "traffic_fsm", "lfsr"])
    def test_cycle_identical_to_interpreter(self, family):
        module = generate_family(
            family, DeterministicRNG(7).fork("facade", family)
        )
        interface = module.interface
        benches = []
        for backend in ("batch", "interp"):
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
        batch, interp = benches
        assert isinstance(batch.sim, BatchSimulator)
        assert isinstance(interp.sim, InterpreterSimulator)
        batch.apply_reset()
        interp.apply_reset()
        for vector in random_stimulus(batch.design, 24, seed=13):
            assert batch.step(vector) == interp.step(vector)
        # Full-state check, not just ports (1-lane views scalarize).
        assert batch.sim.state == interp.sim.state
        assert batch.sim.mems == interp.sim.mems

    def test_scalar_fallback_for_unlevelizable(self):
        # Comb loop: unbatchable and unlevelizable; backend="batch" falls
        # back to the scalar path, which classifies the loop identically.
        source = (
            "module m(output y); wire a, b;"
            " assign a = ~b; assign b = a; assign y = a; endmodule"
        )
        with pytest.raises(UnbatchableDesign):
            batch_design(build(source, "m"), 2)
        with pytest.raises(SimulationError) as err:
            Simulator(build(source, "m"), backend="batch")
        assert "combinational loop" in str(err.value)

    def test_fallback_is_scalar_simulator(self):
        # Self-assign: compiled-but-not-levelized; "batch" lands on the
        # compiled fixpoint fallback, preserving behaviour.
        source = (
            "module m(input clk, input en, output wire [3:0] count);"
            " reg [3:0] count;"
            " always @(posedge clk) if (en) count <= count + 1'b1;"
            " assign count = count;"
            " endmodule"
        )
        sim = Simulator(build(source, "m"), backend="batch")
        assert isinstance(sim, CompiledSimulator)
        assert not isinstance(sim, BatchSimulator)
        sim.poke("en", 1)
        for _ in range(3):
            sim.poke("clk", 0)
            sim.poke("clk", 1)
        assert sim.peek("count") == 3

    def test_wide_design_falls_back_to_scalar(self):
        # Anything wider than the 63-bit int64 lane budget is
        # unbatchable — the signal every caller takes the scalar
        # fallback on, which is exact at any width.
        def sweeps_scalar(design, cycles):
            swept = sweep_random_stimulus(
                design, cycles, range(4), clock=None
            )
            scalar = sweep_random_stimulus(
                design, cycles, range(4), clock=None, backend="compiled"
            )
            assert not swept.vectorized
            assert swept.traces == scalar.traces
            assert swept.errors == scalar.errors

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
            sim = Simulator(design, backend="batch")
            assert isinstance(sim, CompiledSimulator)
            value = (1 << width) - 2
            sim.poke("a", value)
            assert sim.peek("y") == value ^ ((1 << width) - 1)
            sweeps_scalar(design, 6)
        # A dynamic field write landing far above a 128-bit register:
        # the raw out-of-range semantics are the scalar backend's.
        sweeps_scalar(build(
            "module m(input [7:0] idx, input [7:0] d,"
            " output reg [127:0] y);"
            " always @* begin y = 128'd0; y[idx*32 +: 8] = d; end"
            " endmodule", "m"
        ), 8)

    def test_explicit_lane_request_on_unbatchable_raises_cleanly(self):
        # The scalar fallback cannot honour an explicit n_lanes request;
        # that must be a SimulationError, not a constructor TypeError.
        source = (
            "module m(input a, input b, output y);"
            " assign y = a; assign y = b; endmodule"
        )
        with pytest.raises(SimulationError) as err:
            Simulator(build(source, "m"), backend="batch", n_lanes=4)
        assert "lane-parallelizable" in str(err.value)


class TestErrorClassificationPerLane:
    def test_sweep_replays_errors_identically(self):
        # Multi-driven net: drivers disagree once poked, and the design
        # is unlevelizable, so the sweep replays on the scalar backend —
        # per-lane errors must equal a lane-by-lane scalar run.
        source = (
            "module m(input a, input b, output y);"
            " assign y = a; assign y = b; endmodule"
        )
        design = build(source, "m")
        batch = sweep_random_stimulus(design, 8, range(3), clock=None)
        scalar = sweep_random_stimulus(
            design, 8, range(3), clock=None, backend="compiled"
        )
        assert batch.errors == scalar.errors
        assert batch.traces == scalar.traces
        assert any(error for error in batch.errors)

    def test_equivalence_check_accepts_batch_backend(self):
        source = (
            "module m(input [3:0] a, output [3:0] y); assign y = ~a;"
            " endmodule"
        )
        golden = build(source, "m")
        candidate = build(source, "m")
        stim = random_stimulus(golden, 16, seed=1)
        assert equivalence_check(
            golden, candidate, stim, clock=None, backend="batch"
        ).equivalent


class TestBatchTestbench:
    def test_lanes_step_independent_episodes(self):
        module = generate_family("fifo", DeterministicRNG(0x9EEF))
        design = build(module.source, module.name)
        interface = module.interface
        bench = BatchTestbench(
            design, 3, clock=interface.clock, reset=interface.reset,
            reset_active_high=interface.reset_active_high,
        )
        bench.apply_reset()
        inputs = bench.input_names
        rng = DeterministicRNG(5)
        lane_vectors = [
            {
                name: np.array(
                    [rng.randint(0, 1) for _ in range(3)], dtype=np.int64
                )
                for name in inputs
            }
            for _ in range(10)
        ]
        traces = [[] for _ in range(3)]
        for vector in lane_vectors:
            outputs = bench.step(vector)
            for lane in range(3):
                traces[lane].append(
                    {name: int(values[lane]) for name, values in outputs.items()}
                )
        # Reference: scalar benches driven with each lane's column.
        for lane in range(3):
            ref = Testbench(
                design, clock=interface.clock, reset=interface.reset,
                reset_active_high=interface.reset_active_high,
            )
            ref.apply_reset()
            for cycle, vector in enumerate(lane_vectors):
                expected = ref.step(
                    {name: int(vector[name][lane]) for name in inputs}
                )
                assert traces[lane][cycle] == expected, (lane, cycle)

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
        source = (
            "module m(input a, output y);"
            " assign y = a; assign y = ~a; endmodule"
        )
        with pytest.raises(UnbatchableDesign):
            BatchTestbench(build(source, "m"), 2, clock=None)

    def test_ragged_custom_stimuli_match_scalar(self):
        # Custom episodes of unequal length cannot run in lockstep; the
        # sweep must take the scalar path and report per-lane lengths.
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
            backend="compiled",
        )
        assert not swept.vectorized
        assert [len(t) for t in swept.traces] == [3, 5]
        assert swept.traces == reference.traces
        # Equal-length custom episodes do vectorize, identically.
        even = [episode[:3] for episode in stimuli]
        lockstep = sweep_random_stimulus(
            design, 0, seeds=(0, 1), clock=None, stimuli=even
        )
        assert lockstep.vectorized
        assert lockstep.traces == [t[:3] for t in reference.traces]
        # Episodes driving different input sets cannot share a lane
        # vector either (the undriven input holds its value): scalar
        # path, same answer; reordered keys still ride lanes.
        reg = build(
            "module r(input clk, input a, input b, output reg [1:0] q);"
            " always @(posedge clk) q <= {a, b}; endmodule", "r"
        )
        uneven = [
            [{"a": 1, "b": 0}, {"a": 0, "b": 1}],
            [{"a": 1}, {"a": 0}],
        ]
        swept = sweep_random_stimulus(reg, 0, seeds=(0, 1), stimuli=uneven)
        reference = sweep_random_stimulus(
            reg, 0, seeds=(0, 1), stimuli=uneven, backend="compiled"
        )
        assert not swept.vectorized
        assert swept.traces == reference.traces == [
            [(2,), (1,)], [(2,), (0,)]
        ]
        reordered = [uneven[0], [{"b": 1, "a": 0}, {"b": 1, "a": 1}]]
        swept = sweep_random_stimulus(
            reg, 0, seeds=(0, 1), stimuli=reordered
        )
        assert swept.vectorized
        assert swept.traces == sweep_random_stimulus(
            reg, 0, seeds=(0, 1), stimuli=reordered, backend="compiled"
        ).traces


def sweep_lanes_vs_interp(module, cycles, seeds):
    """Step ``module`` on a :class:`BatchTestbench` directly; compare lane
    for lane against the interpreter.  Returns False when the design
    cannot ride lanes (the scalar fallback applies, which
    ``sweep_module`` checks)."""
    interface = module.interface
    design = build(module.source, module.name)
    kwargs = dict(
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
    )
    stimuli = [random_stimulus(design, cycles, seed) for seed in seeds]
    reference = sweep_random_stimulus(
        design, cycles, seeds, backend="interp", stimuli=stimuli, **kwargs
    )
    try:
        bench = BatchTestbench(design, len(seeds), **kwargs)
        bench.apply_reset()
        traces = [[] for _ in seeds]
        for cycle in range(cycles):
            outputs = bench.step({
                name: lane_vector(
                    [episode[cycle][name] for episode in stimuli]
                )
                for name in stimuli[0][cycle]
            })
            for lane, trace in enumerate(traces):
                trace.append(tuple(
                    int(outputs[name][lane]) for name in reference.output_names
                ))
    except (UncompilableDesign, SimulationError):
        return False
    assert reference.ok
    assert traces == reference.traces, module.name
    return True


class TestLaneRepresentationMatrix:
    """The int64 lanes, driven without the sweep front door, stay
    lane-for-lane identical to the interpreter; wide designs replay
    scalar with the same per-lane classification."""

    @pytest.mark.parametrize("family", ["alu", "traffic_fsm", "lfsr"])
    def test_pinned_representation_lane_identical(self, family):
        module = generate_family(
            family, DeterministicRNG(11).fork("repmatrix", family)
        )
        assert sweep_lanes_vs_interp(module, 16, range(3))

    def test_wide_error_classification_matches_scalar(self):
        # Wide multi-driven net: unbatchable twice over, so every lane
        # replays scalar — per-lane error classification must match a
        # lane-by-lane scalar run exactly.
        source = (
            "module m(input [95:0] a, input [95:0] b,"
            " output [95:0] y); assign y = a; assign y = b; endmodule"
        )
        design = build(source, "m")
        batch = sweep_random_stimulus(design, 6, range(3), clock=None)
        scalar = sweep_random_stimulus(
            design, 6, range(3), clock=None, backend="compiled"
        )
        assert batch.errors == scalar.errors
        assert batch.traces == scalar.traces
        assert any(batch.errors)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(ALL_FAMILIES),
    seed=st.integers(0, 2**18),
)
def test_fuzz_representation_identity(family, seed):
    module = generate_family(
        family, DeterministicRNG(seed).fork("repfuzz", family)
    )
    sweep_lanes_vs_interp(module, 10, range(3))


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
        assert is_stateless_comb(
            batch_design(design, problem.stimulus_cycles)
        )
        ref = harness._GoldenRef(problem)
        verdict = harness._check_all_vectors_batch(ref, design, problem)
        assert verdict is not None and verdict.equivalent

    def test_verdicts_identical_with_and_without_fast_path(self):
        problem = self._comb_problem()
        golden = problem.golden_source
        candidates = [
            golden,
            golden.replace("+", "-", 1).replace("&", "|", 1),
            golden.replace("assign", "assign", 1),  # identity variant
        ]
        for source in candidates:
            previous = harness.BATCH_CHECK_ENABLED
            try:
                harness.BATCH_CHECK_ENABLED = True
                fast = harness.check_candidate_source(problem, source)
                harness._GOLDEN_CACHE.clear()
                harness.BATCH_CHECK_ENABLED = False
                slow = harness.check_candidate_source(problem, source)
            finally:
                harness.BATCH_CHECK_ENABLED = previous
                harness._GOLDEN_CACHE.clear()
            assert fast == slow, source

    def test_mismatch_bookkeeping_identical(self):
        problem = self._comb_problem()
        ref = harness._GoldenRef(problem)
        broken = build(
            problem.golden_source.replace("assign", "assign ", 1)
            .replace("+", "^", 1).replace("-", "&", 1),
            problem.module.name,
        )
        fast = harness._check_all_vectors_batch(ref, broken, problem)
        previous = harness.BATCH_CHECK_ENABLED
        try:
            harness.BATCH_CHECK_ENABLED = False
            slow = harness._check_against_trace(ref, broken, problem)
        finally:
            harness.BATCH_CHECK_ENABLED = previous
        if fast is not None:  # replacement may be a no-op for some styles
            assert fast == slow

    def test_wide_comb_problem_takes_the_scalar_replay(self):
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
            default = harness._check_against_trace(ref, candidate, problem)
            previous = harness.BATCH_CHECK_ENABLED
            try:
                harness.BATCH_CHECK_ENABLED = False
                slow = harness._check_against_trace(ref, candidate, problem)
            finally:
                harness.BATCH_CHECK_ENABLED = previous
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
        assert not is_stateless_comb(batch_design(latch_design, 4))
        ref = harness._GoldenRef(problem)
        # Interface differs from the problem's golden, so go straight at
        # the fast-path helper: it must decline, not mis-verdict.
        assert harness._check_all_vectors_batch(
            ref, latch_design, problem
        ) is None

    def test_latchy_golden_verdicts_identical(self):
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
        previous = harness.BATCH_CHECK_ENABLED
        try:
            harness.BATCH_CHECK_ENABLED = True
            harness._GOLDEN_CACHE.clear()
            fast = harness.check_candidate_source(problem, latch_source)
            harness.BATCH_CHECK_ENABLED = False
            harness._GOLDEN_CACHE.clear()
            slow = harness.check_candidate_source(problem, latch_source)
        finally:
            harness.BATCH_CHECK_ENABLED = previous
            harness._GOLDEN_CACHE.clear()
        assert fast == slow == (True, "")


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
            verdict = harness._check_against_trace(ref, golden, problem)
            reference = equivalence_check(
                build(problem.golden_source, problem.module.name),
                golden,
                ref.stimulus,
                clock=interface.clock,
                reset=interface.reset,
                reset_active_high=interface.reset_active_high,
            )
            assert verdict == reference


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
            harness._GOLDEN_CACHE.clear()
            warm = harness._golden_ref(problem)  # disk hit, new object
            assert warm is not cold
            assert warm.trace == cold.trace
            assert warm.output_names == cold.output_names
            assert warm.signature == cold.signature
            assert (warm.error, warm.error_phase) == (
                cold.error, cold.error_phase
            )
            passed, reason = harness.check_candidate_source(
                problem, problem.golden_source
            )
            assert passed, reason
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

    def test_design_batch_cache_not_pickled(self):
        design = build(
            "module m(input a, output y); assign y = ~a; endmodule", "m"
        )
        BatchSimulator(design, n_lanes=2)  # populates design._batch
        clone = pickle.loads(pickle.dumps(design))
        assert not hasattr(clone, "_batch")
        assert isinstance(
            Simulator(clone, backend="batch"), BatchSimulator
        )

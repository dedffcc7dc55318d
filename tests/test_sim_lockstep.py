"""Differential tests: ``check_candidates_lockstep`` vs the lockstep reference.

The pool entry point must be *verdict-identical, candidate for
candidate*, to the independent reference in ``tests/oracle.py``
(reference lexer, fresh elaboration, golden and candidate simulated in
lockstep by :func:`repro.sim.equivalence_check`): the same pass/fail
bits, the same failure-reason classification (``syntax`` /
``missing_module`` / ``elaboration`` / mismatch detail /
``SimulationError`` strings), and the same first-mismatch bookkeeping,
across vgen families, the vereval problem set, engineered error
scenarios (comb latches, division by zero, out-of-range dynamic writes,
unlevelizable and over-wide designs), hypothesis draws, the evalkit
chunk path and a warm ``sim.cache``.

The file also holds the lane-API validation cases and the cases for the
group builder :mod:`repro.sim.batch` keeps only because the frozen perf
ledger imports it (``lockstep_shape_digest`` / ``build_lockstep_group``).
"""

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import lockstep_result, lockstep_verdict
from repro.sim import (
    BatchSimulator,
    InterpreterSimulator,
    Simulator,
    UnbatchableDesign,
    UncompilableDesign,
    batch_design,
    build_lockstep_group,
    compile_design,
    elaborate,
    lockstep_shape_digest,
    sweep_random_stimulus,
)
from repro.sim import cache as sim_cache
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set, check_candidates_lockstep
from repro.vereval.problems import EvalProblem
from repro.vgen import FAMILIES, generate_family
from repro.vgen.base import GeneratedModule, ModuleInterface
from repro.verilog import parse_source

import repro.vereval.harness as harness

ALL_FAMILIES = sorted(FAMILIES)

SEQUENTIAL_FAMILIES = ["fifo", "traffic_fsm", "lfsr", "shift_register"]


def build(source, top):
    return elaborate(parse_source(source), top)


def _mutate(source: str, index: int) -> str:
    """A cheap, usually-still-parseable candidate variant per index."""
    replacements = [("+", "-"), ("&", "|"), ("<", ">="), ("^", "&")]
    for old, new in replacements[index % len(replacements):]:
        if old in source:
            return source.replace(old, new, 1)
    return source


def _problem_for(module, cycles=24, seed=5, problem_id="lockstep"):
    return EvalProblem(
        problem_id=problem_id, module=module,
        stimulus_cycles=cycles, stimulus_seed=seed,
    )


def assert_lockstep_identical(problem, sources):
    batch = check_candidates_lockstep(problem, sources)
    reference = [lockstep_verdict(problem, source) for source in sources]
    assert batch == reference
    return batch


# ---------------------------------------------------------------------------
# the custom sequential DUT used by the engineered scenarios
# ---------------------------------------------------------------------------

_DUT = """module dut(
  input clk,
  input rst,
  input en,
  input [7:0] a,
  input [7:0] b,
  output reg [15:0] acc,
  output [7:0] mix
);
  reg [7:0] stage;
  wire [8:0] sum;
  assign sum = {OP_SUM};
  assign mix = stage ^ ({OP_MIX});
  always @(posedge clk) begin
    if (rst) begin
      acc <= 16'd0;
      stage <= 8'd0;
    end else if (en) begin
      stage <= {OP_STAGE};
      acc <= acc + {7'b0, sum};
    end
  end
endmodule
"""


def _dut(op_sum="a + b", op_mix="a & b", op_stage="a ^ b"):
    return (
        _DUT.replace("{OP_SUM}", op_sum)
        .replace("{OP_MIX}", op_mix)
        .replace("{OP_STAGE}", op_stage)
    )


def _dut_problem(cycles=24, seed=3, problem_id="dut"):
    module = GeneratedModule(
        family="bench",
        source=_dut(),
        interface=ModuleInterface(
            module_name="dut", clock="clk", reset="rst",
            reset_active_high=True,
            inputs=[("en", 1), ("a", 8), ("b", 8)],
            outputs=[("acc", 16), ("mix", 8)],
        ),
        description="lockstep differential DUT",
    )
    return _problem_for(module, cycles, seed, problem_id)


# ---------------------------------------------------------------------------
# verdict identity across families and the problem set
# ---------------------------------------------------------------------------


class TestEveryFamilyVerdictIdentity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_candidates_identical(self, family):
        module = generate_family(
            family, DeterministicRNG(11).fork("lockdiff", family)
        )
        problem = _problem_for(module, problem_id=f"lk_{family}")
        golden = problem.golden_source
        sources = [
            golden,
            golden + "\n// comment-only variant\n",  # same AST, new text
            _mutate(golden, 0),
            _mutate(golden, 1),
            golden,  # duplicate of the first source
        ]
        assert_lockstep_identical(problem, sources)


class TestProblemSetVerdictIdentity:
    def test_vereval_problems_identical(self):
        problems = build_problem_set(n_problems=10)
        for index, problem in enumerate(problems):
            golden = problem.golden_source
            sources = [
                golden,
                golden + "\n// variant\n",
                _mutate(golden, index),
            ]
            assert_lockstep_identical(problem, sources)


@settings(max_examples=10, deadline=None)
@given(
    family=st.sampled_from(SEQUENTIAL_FAMILIES),
    seed=st.integers(0, 2**20),
    mutation=st.integers(0, 3),
)
def test_fuzz_verdict_identity(family, seed, mutation):
    module = generate_family(
        family, DeterministicRNG(seed).fork("lockfuzz", family)
    )
    problem = _problem_for(module, cycles=12, problem_id=f"lf_{family}")
    golden = problem.golden_source
    sources = [golden, golden + "\n// v\n", _mutate(golden, mutation)]
    assert_lockstep_identical(problem, sources)


# ---------------------------------------------------------------------------
# engineered error scenarios: one lane fails while siblings pass
# ---------------------------------------------------------------------------


class TestErrorClassificationPerCandidate:
    def test_division_by_zero_sibling(self):
        # Division by zero yields the two-state 0 in every backend and
        # surfaces as a plain mismatch, identically.
        problem = _dut_problem()
        sources = [
            _dut(),
            _dut(op_sum="b + a"),
            _dut(op_sum="{1'b0, b / (a - a)}"),
        ]
        outcomes = assert_lockstep_identical(problem, sources)
        assert outcomes[0] == (True, "")
        assert outcomes[1] == (True, "")
        assert outcomes[2][0] is False

    def test_comb_latch_sibling_takes_its_own_path(self):
        # `always @* if (en) ...` levelizes but holds state between
        # settles, unlike its siblings' continuous assign.
        problem = _dut_problem()
        latch = _dut().replace(
            "assign mix = stage ^ (a & b);",
            "reg [7:0] mix; always @(*) if (en) mix = stage ^ (a & b);",
        )
        assert "always @(*) if (en)" in latch
        sources = [_dut(), _dut(op_sum="b + a"), latch]
        assert_lockstep_identical(problem, sources)

    def test_write_above_bit_62_sibling(self):
        # One candidate's dynamic field write lands above its 63-bit
        # target; the scalar backends keep such bits in raw state.
        wide = """module dut(
  input clk, input rst, input [3:0] a, input [7:0] b,
  output reg [62:0] wide);
  always @(posedge clk) begin
    if (rst) wide <= 63'd0;
    else wide[{INDEX} +: 8] <= b;
  end
endmodule
"""
        safe = wide.replace("{INDEX}", "{1'b0, a}")       # lo <= 23
        diverging = wide.replace("{INDEX}", "{a, 3'b000}")  # lo up to 120
        module = GeneratedModule(
            family="bench", source=safe,
            interface=ModuleInterface(
                module_name="dut", clock="clk", reset="rst",
                reset_active_high=True,
                inputs=[("a", 4), ("b", 8)], outputs=[("wide", 63)],
            ),
            description="divergence DUT",
        )
        problem = _problem_for(module, cycles=24, problem_id="diverge")
        assert_lockstep_identical(problem, [safe, diverging])

    def test_unlevelizable_and_wide_siblings(self):
        problem = _dut_problem()
        multi_driver = _dut().replace(
            "assign sum = a + b;",
            "assign sum = a + b; assign sum = b - a;",
        )
        wide = _dut().replace(
            "reg [7:0] stage;", "reg [7:0] stage; reg [63:0] big;"
        ).replace(
            "stage <= a ^ b;", "stage <= a ^ b; big <= {56'd0, b};"
        )
        # the multi-driver sibling does not compile: it replays on the
        # interpreter
        with pytest.raises(UncompilableDesign, match="does not levelize"):
            compile_design(build(multi_driver, "dut"))
        assert isinstance(
            Simulator(build(multi_driver, "dut")), InterpreterSimulator
        )
        sources = [_dut(), _dut(op_mix="b & a"), multi_driver, wide]
        assert_lockstep_identical(problem, sources)

    def test_wide_datapath_family(self):
        # A >63-bit sequential family: python ints keep every candidate
        # exact on the scalar replay.
        source = """module dut(
  input clk, input rst, input [63:0] d,
  output reg [127:0] acc, output [127:0] mix);
  assign mix = acc ^ {d, d};
  always @(posedge clk) begin
    if (rst) acc <= 128'd0;
    else acc <= {acc[63:0], acc[127:64]} + {64'd0, d};
  end
endmodule
"""
        module = GeneratedModule(
            family="bench", source=source,
            interface=ModuleInterface(
                module_name="dut", clock="clk", reset="rst",
                reset_active_high=True,
                inputs=[("d", 64)], outputs=[("acc", 128), ("mix", 128)],
            ),
            description="wide-datapath DUT",
        )
        problem = _problem_for(module, cycles=24, problem_id="widepath")
        sources = [
            source,
            source + "\n// variant\n",
            source.replace("acc ^ {d, d}", "acc & {d, d}"),
            source.replace("+ {64'd0, d}", "- {64'd0, d}"),
        ]
        outcomes = assert_lockstep_identical(problem, sources)
        assert outcomes[0] == (True, "")
        assert outcomes[1] == (True, "")
        assert outcomes[2][0] is False
        assert outcomes[3][0] is False

    def test_golden_error_phases_propagate(self):
        # A golden that dies mid-trace (combinational loop poked into
        # oscillation is hard to build; use a for-loop bound instead)
        # must preempt candidate verdicts identically on the pool path.
        source = """module dut(
  input clk, input rst, input [7:0] a, output reg [15:0] acc);
  reg [7:0] i;
  always @(posedge clk) begin
    if (rst) acc <= 16'd0;
    else begin
      for (i = 8'd0; i < 8'd255; i = i + {7'd0, (a == 8'd0)})
        acc <= acc + 16'd1;
    end
  end
endmodule
"""
        module = GeneratedModule(
            family="bench", source=source,
            interface=ModuleInterface(
                module_name="dut", clock="clk", reset="rst",
                reset_active_high=True,
                inputs=[("a", 8)], outputs=[("acc", 16)],
            ),
            description="loop-bound DUT",
        )
        problem = _problem_for(module, cycles=16, problem_id="loopy")
        ref = harness._GoldenRef(problem)
        if ref.error is None:
            pytest.skip("stimulus never drove a == 0")
        assert_lockstep_identical(
            problem, [source, source + "\n// v\n", _mutate(source, 0)]
        )


class TestRetirementBookkeeping:
    def test_first_mismatch_details_match_scalar(self):
        problem = _dut_problem(cycles=32)
        ref = harness._golden_ref(problem)
        sources = [
            _dut(),                      # passes all 32 cycles
            _dut(op_stage="a & b"),      # diverges once stage differs
            _dut(op_mix="a | b"),        # diverges on mix immediately
            _dut(op_sum="a - b"),        # diverges on acc
        ]
        designs = [build(source, "dut") for source in sources]
        many = harness._check_many_against_trace(ref, designs, problem)
        reference = [lockstep_result(problem, design) for design in designs]
        assert many == reference  # full EquivalenceResult dataclass equality
        assert many[0].equivalent
        assert {v.equivalent for v in many[1:]} == {False}
        assert all(v.first_mismatch_cycle is not None for v in many[1:])


# ---------------------------------------------------------------------------
# the group builder the frozen perf ledger still imports
# ---------------------------------------------------------------------------


#: lanes are combinational, so a group the builder can lower is one
_COMB_DUT = """module cdut(
  input sel,
  input [7:0] a,
  input [7:0] b,
  output [8:0] sum,
  output reg [7:0] mix
);
  assign sum = {OP_SUM};
  always @(*) begin
    if (sel) mix = a & b;
    else mix = a ^ b;
  end
endmodule
"""


def _comb_dut(op_sum="a + b"):
    return _COMB_DUT.replace("{OP_SUM}", op_sum)


class TestGroupBuilder:
    def test_shifted_resamples_share_one_variant_and_one_image(
        self, monkeypatch
    ):
        # Fingerprints are structural: a comment or blank line above a
        # body moves its AST line numbers and nothing else.
        import repro.sim.batch as batch

        sources = [
            _comb_dut(),
            "// note\n" + _comb_dut(),
            _comb_dut().replace("\n", "\n\n", 3),
        ]
        designs = [build(source, "cdut") for source in sources]
        lowered = []
        original = batch.batch_design

        def spy(design, *args, **kwargs):
            lowered.append(design)
            return original(design, *args, **kwargs)

        monkeypatch.setattr(batch, "batch_design", spy)
        group = build_lockstep_group(designs)
        assert len(lowered) == 1
        assert [len(variants) for variants in group.comb_plan] == [1, 1]
        assert group.seq_plan == ()
        assert all(variants[0][0].all() for variants in group.comb_plan)

    def test_mismatched_shapes_rejected(self):
        latch = _comb_dut().replace(
            "assign sum = a + b;",
            "reg [8:0] sum; always @(*) if (sel) sum = a + b;",
        )
        with pytest.raises(UnbatchableDesign):
            build_lockstep_group(
                [build(_comb_dut(), "cdut"), build(latch, "cdut")]
            )

    def test_clocked_group_stops_at_lowering(self):
        # What the frozen ledger walk now counts as unbatchable.
        with pytest.raises(UnbatchableDesign, match="combinational"):
            build_lockstep_group(
                [build(_dut(), "dut"), build(_dut(op_sum="b + a"), "dut")]
            )


# ---------------------------------------------------------------------------
# up-front validation (the PR's bugfix satellite)
# ---------------------------------------------------------------------------


class TestLaneValidation:
    def _design(self):
        return build(
            "module m(input [3:0] a, output [3:0] y); assign y = ~a;"
            " endmodule", "m"
        )

    def test_zero_lanes_is_a_value_error(self):
        with pytest.raises(ValueError, match="n_lanes"):
            batch_design(self._design(), 0)
        with pytest.raises(ValueError, match="n_lanes"):
            BatchSimulator(self._design(), n_lanes=-3)

    def test_empty_lockstep_group_is_a_value_error(self):
        with pytest.raises(ValueError):
            build_lockstep_group([])

    def test_wrong_shape_poke_is_a_value_error(self):
        sim = BatchSimulator(self._design(), n_lanes=4)
        with pytest.raises(ValueError, match="4 lanes"):
            sim.poke_many({"a": np.array([1, 2, 3])})
        with pytest.raises(ValueError, match="shape"):
            sim.poke_many({"a": np.array([[1, 2], [3, 4]])})
        sim.poke_many({"a": np.array([1, 2, 3, 4])})  # the right shape works
        assert sim.peek_lanes("y").tolist() == [14, 13, 12, 11]

    def test_negative_cycles_is_a_value_error(self):
        with pytest.raises(ValueError, match="cycles"):
            sweep_random_stimulus(self._design(), -1, seeds=(0,), clock=None)


# ---------------------------------------------------------------------------
# the evalkit chunk path and the disk tier
# ---------------------------------------------------------------------------


class TestEvalkitLockstepWiring:
    """The chunk-level check path must be verdict- and number-identical."""

    def _records(self, problems, completions_per_problem):
        from repro.evalkit.records import SampleRecord

        records = []
        for unit_index, problem in enumerate(problems):
            prompt = problem.prompt()
            for sample_index, completion in enumerate(
                completions_per_problem
            ):
                records.append(
                    SampleRecord(
                        task_id="passk", model_name="m",
                        unit_id=problem.problem_id, unit_index=unit_index,
                        sample_index=sample_index, temperature=0.2,
                        max_new_tokens=64, prompt=prompt,
                        completion=completion,
                    )
                )
        return records

    def test_check_batch_matches_check(self):
        import copy

        from repro.evalkit.tasks import PassAtKChecker

        problems = build_problem_set(n_problems=3, seed=41)
        bodies = ["\nendmodule", "\n  garbage\nendmodule", "endmodule"]
        records = self._records(problems, bodies)
        batch_checker = PassAtKChecker(problems)
        single_checker = PassAtKChecker(problems)
        batched = batch_checker.check_batch(copy.deepcopy(records))
        singled = [single_checker.check(r) for r in copy.deepcopy(records)]
        reference = [
            lockstep_verdict(problems[r.unit_index], r.prompt + r.completion)
            for r in records
        ]
        assert [(r.passed, r.failure_reason) for r in batched] == reference
        assert [(r.passed, r.failure_reason) for r in singled] == reference
        # both paths fill the same memo keys
        assert set(batch_checker._verdicts) == set(single_checker._verdicts)

    def test_check_stage_routes_batches_and_singles(self):
        from repro.evalkit.stages import CheckStage
        from repro.evalkit.records import SampleRecord

        class BatchingChecker:
            def __init__(self):
                self.batches = []

            def check_batch(self, records):
                self.batches.append(len(records))
                for record in records:
                    record.passed = True
                return records

        class SingleChecker:
            def __init__(self):
                self.calls = 0

            def check(self, record):
                self.calls += 1
                record.passed = False
                return record

        batching, single = BatchingChecker(), SingleChecker()
        stage = CheckStage({"b": batching, "s": single}, cache_dir="")

        def rec(task_id, i):
            return SampleRecord(
                task_id=task_id, model_name="m", unit_id=str(i),
                unit_index=i, sample_index=0, temperature=0.2,
                max_new_tokens=8,
            )

        chunk = [rec("b", 0), rec("s", 1), rec("b", 2), rec("s", 3)]
        out = stage.process(chunk)
        assert [r.task_id for r in out] == ["b", "s", "b", "s"]  # order kept
        assert [r.passed for r in out] == [True, False, True, False]
        assert batching.batches == [2]
        assert single.calls == 2


class TestShapeCache:
    def test_design_round_trip_groups_identically(self, tmp_path):
        # A persisted design carries its shape digest as a plain value:
        # the loaded copy reports the same digest without re-deriving it
        # and joins a lockstep group with a freshly elaborated sibling.
        previous = sim_cache.configure(str(tmp_path))
        try:
            design = build(_comb_dut(), "cdut")
            digest = lockstep_shape_digest(design)
            assert sim_cache.put_design(_comb_dut(), "cdut", design)
            loaded = sim_cache.get_design(_comb_dut(), "cdut")
        finally:
            sim_cache.configure(previous)
        assert loaded is not design
        assert loaded._lockstep_digest == digest
        assert lockstep_shape_digest(loaded) == digest
        group = build_lockstep_group(
            [loaded, build(_comb_dut(op_sum="b + a"), "cdut")]
        )
        assert group.n_lanes == 2

    def test_lockstep_checking_with_warm_cache_identical(self, tmp_path):
        problem = _dut_problem(problem_id="cached")
        sources = [_dut(), _dut(op_sum="b + a"), _mutate(_dut(), 0)]
        baseline = check_candidates_lockstep(problem, sources)
        previous = sim_cache.configure(str(tmp_path))
        try:
            harness._GOLDEN_CACHE.clear()
            cold = check_candidates_lockstep(problem, sources)
            harness._GOLDEN_CACHE.clear()
            warm = check_candidates_lockstep(problem, sources)
        finally:
            sim_cache.configure(previous)
            harness._GOLDEN_CACHE.clear()
        assert cold == warm == baseline


# ---------------------------------------------------------------------------
# front-end failure verdicts in sim.cache
# ---------------------------------------------------------------------------


_ALT = """module alt(input clk, input rst, input [7:0] a, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= {Q};
  end
endmodule
"""


class TestFrontendFailureCache:
    """A front-end failure is cached like any verdict: the golden entry's
    table holds ``syntax`` / ``missing_module`` / ``elaboration``, so a
    warm check lexes and parses nothing it already saw."""

    SYNTAX = "module dut(input clk"
    MISSING = _dut().replace("module dut(", "module other(")
    ELABORATION = _dut(op_mix="a & zz")
    #: one source per front-end reason, then a pass and a mismatch
    SOURCES = [SYNTAX, MISSING, ELABORATION, _dut(), _dut(op_sum="a - b")]
    REASONS = ["syntax", "missing_module", "elaboration"]

    @pytest.fixture
    def cache(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        harness.reset_caches()
        try:
            yield tmp_path
        finally:
            sim_cache.configure(previous)
            harness.reset_caches()

    @staticmethod
    def _counts(*names):
        from repro import obs

        return {name: obs.counter_value(name) for name in names}

    @classmethod
    def _delta(cls, before):
        after = cls._counts(*before)
        return {name: after[name] - before[name] for name in before}

    @staticmethod
    def _entry(problem):
        key = harness._golden_disk_key(problem)
        return sim_cache.load("golden", *key, accept=harness._is_golden_entry)

    @classmethod
    def _verdict(cls, problem, source):
        entry = cls._entry(problem)
        return entry and entry[0].get(harness._source_key(source))

    def test_cold_warm_and_oracle_agree(self, cache):
        problem = _dut_problem(problem_id="frontend")
        sources = self.SOURCES + self.SOURCES[:3]  # duplicates decide once
        reference = [lockstep_verdict(problem, s) for s in sources]
        assert [r for _, r in reference[:3]] == self.REASONS
        names = (
            "verilog.tokens", "vereval.cached_verdicts", "sim.cache.hit",
            "sim.cache.miss",
        )
        before = self._counts(*names)
        assert check_candidates_lockstep(problem, sources) == reference
        cold = self._delta(before)
        assert cold["vereval.cached_verdicts"] == 0
        # one golden entry, read once
        assert cold["sim.cache.miss"] == 1
        for source, verdict in zip(self.SOURCES, reference):
            assert self._verdict(problem, source) == verdict
        harness.reset_caches()
        before = self._counts(*names)
        assert check_candidates_lockstep(problem, sources) == reference
        assert self._delta(before) == {
            "verilog.tokens": 0,
            "vereval.cached_verdicts": 5,
            "sim.cache.hit": 1,
            "sim.cache.miss": 0,
        }

    def test_a_call_where_every_source_fails_writes_one_entry(self, cache):
        problem = _dut_problem(problem_id="frontend")
        assert check_candidates_lockstep(problem, self.SOURCES[:3]) == [
            (False, reason) for reason in self.REASONS
        ]
        # three verdicts and the golden bundle (the elaboration failure got
        # past parse, so the golden was built): one entry
        assert len(list(cache.iterdir())) == 1
        table, blob = self._entry(problem)
        assert len(table) == 3 and blob is not None
        # the checker writes no design entries
        assert sim_cache.get_design(self.ELABORATION, "dut") is None

    def test_a_golden_elaboration_error_is_every_candidate_verdict(
        self, cache
    ):
        module = GeneratedModule(
            family="bench", source=_dut(op_mix="a & zz"),
            interface=ModuleInterface(
                module_name="dut", clock="clk", reset="rst",
                reset_active_high=True,
                inputs=[("en", 1), ("a", 8), ("b", 8)],
                outputs=[("acc", 16), ("mix", 8)],
            ),
            description="a golden that does not elaborate",
        )
        problem = _problem_for(module, problem_id="broken-golden")
        sources = [_dut(), self.SYNTAX]
        reference = [lockstep_verdict(problem, s) for s in sources]
        assert reference == [(False, "elaboration"), (False, "syntax")]
        assert check_candidates_lockstep(problem, sources) == reference
        # both verdicts, keyed by the golden that failed; no bundle
        assert len(list(cache.iterdir())) == 1
        assert self._entry(problem)[1] is None
        for source, verdict in zip(sources, reference):
            assert self._verdict(problem, source) == verdict
        tokens = self._counts("verilog.tokens")
        harness.reset_caches()
        assert check_candidates_lockstep(problem, sources) == reference
        assert self._delta(tokens)["verilog.tokens"] == 0  # nothing parsed

    def test_an_internal_parse_error_stores_nothing(
        self, cache, monkeypatch
    ):
        problem = _dut_problem(problem_id="frontend")

        def broken(source):
            raise RuntimeError("parser bug")

        monkeypatch.setattr(harness, "lex_source_digest", broken)
        assert check_candidates_lockstep(problem, [_dut()]) == [
            (False, "internal")
        ]
        assert not list(cache.iterdir())

    def test_an_unknown_reason_is_corrupt_evicted_and_reparsed(self, cache):
        problem = _dut_problem(problem_id="frontend")
        key = harness._golden_disk_key(problem)
        assert sim_cache.store(
            "golden", ({harness._source_key(self.SYNTAX): "bogus"}, None),
            *key,
        )
        before = self._counts(
            "sim.cache.corrupt", "sim.cache.miss", "sim.cache.hit",
            "verilog.tokens", "vereval.cached_verdicts",
        )
        assert check_candidates_lockstep(problem, [self.SYNTAX]) == [
            lockstep_verdict(problem, self.SYNTAX)
        ]
        delta = self._delta(before)
        assert delta["sim.cache.corrupt"] == 1
        assert delta["sim.cache.miss"] == 1
        assert delta["sim.cache.hit"] == 0
        assert delta["verilog.tokens"] > 0
        assert delta["vereval.cached_verdicts"] == 0
        # the pool stored the real verdict in the evicted entry's place
        assert self._verdict(problem, self.SYNTAX) == (False, "syntax")

    def test_a_version_13_reason_is_a_version_mismatch(
        self, cache, monkeypatch
    ):
        problem = _dut_problem(problem_id="frontend")
        key = harness._golden_disk_key(problem)
        with monkeypatch.context() as patch:
            patch.setattr(sim_cache, "BACKEND_VERSION", 13)
            assert sim_cache.store(
                "golden",
                ({harness._source_key(self.SYNTAX): (False, "syntax")}, None),
                *key,
            )
        before = self._counts(
            "sim.cache.version_mismatch", "sim.cache.miss",
            "sim.cache.corrupt",
        )
        assert self._verdict(problem, self.SYNTAX) is None
        assert self._delta(before) == {
            "sim.cache.version_mismatch": 1,
            "sim.cache.miss": 1,
            "sim.cache.corrupt": 0,
        }

    def test_the_oracle_catches_a_key_without_the_module_name(
        self, cache, monkeypatch
    ):
        # One golden text defines `dut` and `alt`; two problems check its
        # two modules under one stimulus and protocol, so their keys
        # differ in the module name alone.  `candidate` gets `dut` right
        # and `alt` wrong: keyed without the module name, the first
        # verdict leaks to the second problem.
        golden = _dut() + _ALT.replace("{Q}", "a")
        candidate = _dut(op_sum="b + a") + _ALT.replace("{Q}", "~a")
        dut = _dut_problem()
        alt = GeneratedModule(
            family="bench", source=golden,
            interface=ModuleInterface(
                module_name="alt", clock="clk", reset="rst",
                reset_active_high=True, inputs=[("a", 8)],
                outputs=[("q", 8)],
            ),
            description="the second module of a two-module golden",
        )
        problems = [
            _problem_for(
                dataclasses.replace(dut.module, source=golden),
                dut.stimulus_cycles, dut.stimulus_seed, "two-modules",
            ),
            _problem_for(
                alt, dut.stimulus_cycles, dut.stimulus_seed, "two-modules"
            ),
        ]
        keys = [harness._golden_disk_key(p) for p in problems]
        assert keys[0][1] != keys[1][1]
        assert keys[0][:1] + keys[0][2:] == keys[1][:1] + keys[1][2:]
        real_key = sim_cache._key

        def naive_key(kind, *parts):
            if kind == "golden":
                parts = parts[:1] + parts[2:]
            return real_key(kind, *parts)

        def verdicts():
            harness.reset_caches()
            return [
                check_candidates_lockstep(p, [candidate])[0] for p in problems
            ]

        reference = [lockstep_verdict(p, candidate) for p in problems]
        assert reference == [(True, ""), (False, "mismatch")]
        assert verdicts() == reference
        for name in cache.iterdir():
            name.unlink()
        monkeypatch.setattr(sim_cache, "_key", naive_key)
        leaked = verdicts()
        assert leaked != reference
        assert leaked[1] == (True, "")

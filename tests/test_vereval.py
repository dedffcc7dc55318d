"""Tests for pass@k, problems, and the functional-eval harness."""

import math
import pickle
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import lockstep_result, lockstep_verdict
from repro import obs
from repro.errors import ConfigError
from repro.llm import LanguageModel
from repro.vereval import (
    CegisConfig,
    EvalConfig,
    EvalProblem,
    build_problem_set,
    cegis_configure,
    check_candidate_source,
    check_candidates_lockstep,
    check_completion,
    evaluate_model,
    pass_at_k,
    reset_caches,
)
from repro.sim import elaborate
from repro.utils.rng import DeterministicRNG
from repro.vereval import harness
from repro.vereval.passk import mean_pass_at_k
from repro.verilog import parse_source
from repro.vgen import (
    GeneratedModule, ModuleInterface, generate_family, mutate,
)


class TestPassAtK:
    def test_known_values(self):
        assert pass_at_k(10, 0, 1) == 0.0
        assert pass_at_k(10, 10, 1) == 1.0
        assert pass_at_k(10, 1, 1) == pytest.approx(0.1)
        assert pass_at_k(10, 1, 10) == 1.0
        # 1 - C(8,5)/C(10,5) = 1 - 56/252
        assert pass_at_k(10, 2, 5) == pytest.approx(1 - 56 / 252)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pass_at_k(5, 0, 6)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 3, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 30), st.integers(1, 30))
    def test_in_unit_interval_and_monotone_in_c(self, n, c, k):
        if k > n or c > n:
            return
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0
        if c + 1 <= n:
            assert pass_at_k(n, c + 1, k) >= value

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 20), st.integers(1, 19))
    def test_monotone_in_k(self, n, c, k):
        if c > n or k + 1 > n:
            return
        assert pass_at_k(n, c, k + 1) >= pass_at_k(n, c, k)

    def test_matches_binomial_formula(self):
        n, c, k = 12, 4, 3
        expected = 1 - (
            math.comb(n - c, k) / math.comb(n, k)
        )
        assert pass_at_k(n, c, k) == pytest.approx(expected)

    def test_mean(self):
        assert mean_pass_at_k([10, 0], 10, 1) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            mean_pass_at_k([], 10, 1)


class TestProblemSet:
    def test_size_and_unique_ids(self):
        problems = build_problem_set(n_problems=20, seed=1)
        assert len(problems) == 20
        ids = [p.problem_id for p in problems]
        assert len(set(ids)) == 20

    def test_prompt_format(self):
        problem = build_problem_set(n_problems=1, seed=2)[0]
        prompt = problem.prompt()
        assert prompt.startswith("// ")
        assert f"module {problem.module.name}" in prompt
        assert prompt.rstrip().endswith(");")

    def test_golden_passes_its_own_check(self):
        for problem in build_problem_set(n_problems=8, seed=3):
            golden_body = problem.golden_source[
                len(problem.module.header_prompt()) - 1:
            ]
            ok, reason = check_completion(problem, golden_body)
            assert ok, (problem.problem_id, reason)

    def test_problems_deterministic(self):
        a = build_problem_set(n_problems=6, seed=9)
        b = build_problem_set(n_problems=6, seed=9)
        assert [p.golden_source for p in a] == [p.golden_source for p in b]

    def test_family_coverage(self):
        problems = build_problem_set(n_problems=40, seed=4)
        families = {p.module.family for p in problems}
        assert len(families) >= 25


class TestCheckCompletion:
    def _problem(self):
        return build_problem_set(n_problems=4, seed=5, families=["adder"])[0]

    def test_syntax_failure(self):
        ok, reason = check_completion(self._problem(), "\n  garbage (((")
        assert not ok and reason == "syntax"

    def test_wrong_logic_fails(self):
        problem = self._problem()
        golden_body = problem.golden_source[
            len(problem.module.header_prompt()) - 1:
        ]
        broken = golden_body.replace("a + b", "a - b")
        ok, reason = check_completion(problem, broken)
        assert not ok

    def test_interface_change_fails(self):
        problem = self._problem()
        ok, reason = check_completion(
            problem, "\n    assign nonexistent = 1;\nendmodule"
        )
        assert not ok


class TestEvaluateModel:
    def test_finetuned_beats_base_and_passk_monotone(
        self, tiny_verilog_corpus, module_pool
    ):
        base = LanguageModel.pretrain(
            "eval-base", tiny_verilog_corpus[:20], num_merges=150
        )
        tuned = base.continual_pretrain("eval-tuned", tiny_verilog_corpus)
        problems = build_problem_set(n_problems=8, seed=6)
        config = EvalConfig(
            n_samples=4, ks=(1, 4), temperatures=(0.2, 0.8),
            max_new_tokens=350, seed=0,
        )
        base_result = evaluate_model(base, problems, config)
        tuned_result = evaluate_model(tuned, problems, config)
        base_best = base_result.best()
        tuned_best = tuned_result.best()
        assert tuned_best[4] >= tuned_best[1]  # pass@k monotone in k
        assert tuned_best[4] >= base_best[4]   # fine-tuning helps
        assert tuned_best[4] > 0               # the tuned model solves some

    def test_n_samples_validated(self, tiny_model):
        problems = build_problem_set(n_problems=1, seed=7)
        with pytest.raises(ConfigError, match="max k"):
            evaluate_model(
                tiny_model, problems, EvalConfig(n_samples=2, ks=(5,))
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_samples": 2, "ks": (5,)}, "max k"),
            ({"n_samples": 0, "ks": (1,)}, "max k"),
            ({"n_samples": -3, "ks": (1,)}, "max k"),
            ({"ks": ()}, "ks must be non-empty"),
            ({"ks": (0,)}, "every k >= 1"),
            ({"ks": (1, -1)}, "every k >= 1"),
            ({"temperatures": ()}, "temperatures must be non-empty"),
        ],
    )
    def test_config_refuses_what_a_plan_cannot_aggregate(self, kwargs, match):
        # refused at construction: before this, ks=() died in PassAtKTask,
        # ks=(0,) after every sample was generated and checked, and
        # temperatures=() returned an empty EvalResult
        with pytest.raises(ConfigError, match=match):
            EvalConfig(**kwargs)

    def test_outcome_bookkeeping(self, tiny_model):
        problems = build_problem_set(n_problems=2, seed=8)
        config = EvalConfig(
            n_samples=2, ks=(1, 2), temperatures=(0.8,), max_new_tokens=150
        )
        result = evaluate_model(tiny_model, problems, config)
        outcomes = result.outcomes[0.8]
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.passes + sum(outcome.failures.values()) == 2
        assert "pass@1" in result.summary()


# ---------------------------------------------------------------------------
# check_candidates_lockstep: the pool path vs the independent lockstep
# reference (tests/oracle.py), one candidate at a time
# ---------------------------------------------------------------------------

_ACC = """module acc(
  input clk,
  input rst,
  input [7:0] a,
  input [7:0] b,
  output reg [15:0] total
);
  wire [8:0] sum;
  assign sum = {SUM};
  always @(posedge clk) begin
    if (rst) total <= 16'd0;
    else total <= total + {7'b0, sum};
  end
endmodule
"""


def _acc(op_sum="a + b"):
    return _ACC.replace("{SUM}", op_sum)


def _clocked_problem():
    interface = ModuleInterface(
        module_name="acc", clock="clk", reset="rst", reset_active_high=True,
        inputs=[("a", 8), ("b", 8)], outputs=[("total", 16)],
    )
    module = GeneratedModule(
        family="bench", source=_acc(), interface=interface,
        description="pool DUT",
    )
    return EvalProblem(
        problem_id="acc", module=module, stimulus_cycles=24, stimulus_seed=7,
    )


def _reference(problem, sources):
    return [lockstep_verdict(problem, source) for source in sources]


def _widecomb_problem():
    """A combinational datapath wider than 63 bits."""
    source = (
        "module widecomb(input [95:0] a, input [95:0] b,"
        " output [96:0] s, output [95:0] x);"
        " assign s = a + b; assign x = a ^ {b[47:0], b[95:48]};"
        " endmodule"
    )
    module = GeneratedModule(
        family="widecomb", source=source,
        interface=ModuleInterface(
            module_name="widecomb", clock=None, reset=None,
            reset_active_high=True,
            inputs=[("a", 96), ("b", 96)], outputs=[("s", 97), ("x", 96)],
        ),
        description="wide combinational datapath",
    )
    return EvalProblem(
        problem_id="widecomb", module=module, stimulus_cycles=24,
        stimulus_seed=2,
    )


def _latchy_problem():
    """An unclocked problem whose golden is a combinational latch."""
    module = generate_family("mux", DeterministicRNG(3).fork("latchy", "mux"))
    module.source = (
        f"module {module.name}(input en, input [3:0] a,"
        " output reg [3:0] y); always @(*) if (en) y = a; endmodule"
    )
    return EvalProblem(
        problem_id="latchy", module=module, stimulus_cycles=16,
        stimulus_seed=9,
    )


def _assert_replay_is_the_reference(problem, sources):
    """Each source's replay against the golden trace equals the lockstep
    reference field for field, and the pool equals it verdict for
    verdict; the replays' ``equivalent`` fields are returned."""
    ref = harness._GoldenRef(problem)
    name = problem.module.name
    replays = []
    for source in sources:
        design = elaborate(parse_source(source), name)
        (replay,) = harness._check_many_against_trace(ref, [design], problem)
        assert replay == lockstep_result(problem, design), source
        replays.append(replay.equivalent)
    assert check_candidates_lockstep(problem, sources) == _reference(
        problem, sources
    )
    return replays


def _resample_pool(problem):
    """A low-temperature sample set: the golden and each near-miss under
    several spellings, plus the failure classes that never elaborate."""
    golden = problem.golden_source
    name = problem.module.name
    pool = [golden, "// resample\n" + golden, golden.replace("\n", "\n  ", 1)]
    for mutant in mutate(problem.module)[:3]:
        pool.append(mutant.source)
        pool.append(mutant.source.replace(";", " ; // same\n", 1))
    pool.append(golden[: len(golden) * 2 // 3])
    pool.append(golden.replace(f"module {name}", f"module {name}_x", 1))
    pool.append(golden)
    return pool


class TestIdentityWithThePerCandidateLoop:
    def test_forty_same_shape_sequential_candidates(self):
        # One schedule shape, pairwise different ASTs, wider than any
        # pass@k pool: every distinct design is replayed exactly once,
        # except the golden's own source, which passes on its digest.
        problem = _clocked_problem()
        passing = [_acc()] + [
            _acc(f"({spelling}) {tail}")
            for spelling in ("a + b", "b + a")
            for tail in ("+ 9'd0", "| 9'd0", "^ 9'd0", "- 9'd0")
        ]
        mutants = [_acc(f"a + b + 9'd{k}") for k in range(1, 29)]
        div_by_zero = _acc("{1'b0, b / (a - a)}")  # two-state: 0
        sources = passing + mutants + [div_by_zero, passing[3], mutants[0]]
        assert len(sources) == 40
        before = obs.counter_value("vereval.scalar_checks")
        golden_equal = obs.counter_value("vereval.golden_equal")
        verdicts = check_candidates_lockstep(problem, sources)
        assert obs.counter_value("vereval.scalar_checks") - before == len(
            set(sources)
        ) - 1
        assert obs.counter_value("vereval.golden_equal") == golden_equal + 1
        assert verdicts == _reference(problem, sources)
        assert verdicts[: len(passing)] == [(True, "")] * len(passing)
        assert not any(ok for ok, _ in verdicts[len(passing):-2])
        assert verdicts[-2:] == [(True, ""), verdicts[len(passing)]]

    def test_every_problem_with_resample_variants(self):
        # the library default depth and the perf ledger's pool depth
        for cycles in (24, 384):
            for problem in build_problem_set(stimulus_cycles=cycles):
                pool = _resample_pool(problem)
                assert check_candidates_lockstep(problem, pool) == _reference(
                    problem, pool
                ), (problem.problem_id, cycles)

    def test_wide_combinational_problem(self):
        # values past int64 are python ints end to end
        problem = _widecomb_problem()
        golden = problem.golden_source
        sources = [golden, golden.replace("a + b", "a - b")]
        assert _assert_replay_is_the_reference(problem, sources) == [
            True, False,
        ]

    def test_latchy_golden(self):
        # the golden holds y while en is low; a stateless candidate and
        # the inverted latch do not
        problem = _latchy_problem()
        golden = problem.golden_source
        sources = [
            golden,
            golden.replace("if (en) ", ""),
            golden.replace("if (en)", "if (!en)"),
        ]
        assert _assert_replay_is_the_reference(problem, sources) == [
            True, False, False,
        ]

    def test_cegis_stays_a_strict_refinement(self, tmp_path):
        from repro.sim import cache as sim_cache

        config = CegisConfig(enabled=True, search_rounds=2, search_lanes=8)
        previous_dir = sim_cache.configure(str(tmp_path))
        try:
            for problem in build_problem_set():
                pool = _resample_pool(problem)
                legacy = check_candidates_lockstep(problem, pool)
                previous = cegis_configure(config)
                try:
                    reset_caches()
                    adversarial = check_candidates_lockstep(problem, pool)
                finally:
                    cegis_configure(previous)
                    reset_caches()
                assert adversarial[:3] == [(True, "")] * 3, problem.problem_id
                for old, new in zip(legacy, adversarial):
                    assert new[0] <= old[0], (problem.problem_id, old, new)
                # each near-miss and its respelling share one verdict
                for at in range(3, len(pool) - 3, 2):
                    assert adversarial[at] == adversarial[at + 1]
        finally:
            sim_cache.configure(previous_dir)
            reset_caches()


# ---------------------------------------------------------------------------
# The golden-equal rule: a candidate whose whole file has the golden's
# token stream passes on its digest, with no lowering and no replay
# ---------------------------------------------------------------------------

#: the right-hand side of every one-line assignment (``=`` or ``<=``,
#: not a comparison): wrapped in parentheses it is the same AST from a
#: different token stream
_RHS = re.compile(r"(?<![<>=!])(<=|=)(?!=)[ \t]*([^;\n]+);")


def _golden_variants(problem):
    """The golden verbatim, a comment/whitespace respelling (its token
    twin) and an over-parenthesised respelling (not its token twin)."""
    golden = problem.golden_source
    return [
        golden,
        "// resample\n" + golden.replace("\n", "\n  ", 1),
        _RHS.sub(r"\1 (\2);", golden),
    ]


@pytest.fixture
def sim_cache_dir(tmp_path):
    from repro.sim import cache as sim_cache

    previous = sim_cache.configure(str(tmp_path))
    reset_caches()
    try:
        yield tmp_path
    finally:
        sim_cache.configure(previous)
        reset_caches()


def _counted(names, run):
    before = {name: obs.counter_value(name) for name in names}
    result = run()
    return result, {
        name: obs.counter_value(name) - before[name] for name in names
    }


def _golden_entry(problem):
    """The problem's ``(verdicts, bundle bytes)`` golden entry, or None."""
    from repro.sim import cache as sim_cache

    return sim_cache.load(
        "golden", *harness._golden_disk_key(problem),
        accept=harness._is_golden_entry,
    )


def _stored_verdict(problem, source):
    """The verdict the problem's golden entry holds for ``source``."""
    entry = _golden_entry(problem)
    return entry and entry[0].get(harness._source_key(source))


class TestGoldenEqualIdentity:
    COUNTERS = ("vereval.golden_equal", "vereval.scalar_checks")

    def _check_every_family(self, warm=False):
        for problem in build_problem_set():
            pool = _golden_variants(problem) + [problem.golden_source]
            assert pool[2] != pool[0], problem.problem_id
            verdicts, moved = _counted(
                self.COUNTERS + ("vereval.cached_verdicts",),
                lambda: check_candidates_lockstep(problem, pool),
            )
            assert verdicts == _reference(problem, pool), problem.problem_id
            assert verdicts == [(True, "")] * 4, problem.problem_id
            if warm:
                # three distinct sources, three stored verdicts
                assert moved == {
                    "vereval.golden_equal": 0, "vereval.scalar_checks": 0,
                    "vereval.cached_verdicts": 3,
                }, problem.problem_id
                continue
            # the verbatim golden and its respelling pass on the digest;
            # only the over-parenthesised file is checked
            assert moved["vereval.golden_equal"] == 2, problem.problem_id
            assert moved["vereval.scalar_checks"] == 1, problem.problem_id

    def test_every_family_with_the_cache_off(self):
        from repro.sim import cache as sim_cache

        assert sim_cache.cache_dir() is None
        self._check_every_family()

    def test_every_family_cold_then_warm(self, sim_cache_dir):
        self._check_every_family()
        reset_caches()
        self._check_every_family(warm=True)

    def test_token_twins_share_one_check(self):
        problem = _clocked_problem()
        mutant = _acc("a - b")
        twin = "// twin\n" + mutant.replace("\n", "\n\n")
        pool = [mutant, twin, _acc(), twin]
        verdicts, moved = _counted(
            self.COUNTERS, lambda: check_candidates_lockstep(problem, pool)
        )
        assert verdicts == _reference(problem, pool)
        assert moved == {"vereval.golden_equal": 1, "vereval.scalar_checks": 1}


_HIER = """module top(input [3:0] a, input [3:0] b, output [3:0] y);
  sub u0(.a(a), .b(b), .y(y));
endmodule
module sub(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a {OP} b;
endmodule
"""

_SPIN = """module spin(
  input clk, input rst, input [7:0] a, output reg [15:0] acc);
  reg [7:0] i;
  always @(posedge clk) begin
    if (rst) acc <= 16'd0;
    else begin
      for (i = 8'd0; i < 8'd255; i = i)
        acc <= acc + {8'd0, a};
    end
  end
endmodule
"""


def _problem(source, name, inputs, outputs, clocked):
    interface = ModuleInterface(
        module_name=name,
        clock="clk" if clocked else None,
        reset="rst" if clocked else None,
        reset_active_high=True,
        inputs=inputs, outputs=outputs,
    )
    module = GeneratedModule(
        family="bench", source=source, interface=interface,
        description="golden-equal rule",
    )
    return EvalProblem(
        problem_id=f"golden-equal-{name}", module=module,
        stimulus_cycles=24, stimulus_seed=5,
    )


class TestGoldenEqualAdversarial:
    def test_a_differing_submodule_fails(self, monkeypatch):
        from repro.vereval import harness
        from repro.verilog import lex_source_digest

        problem = _problem(
            _HIER.replace("{OP}", "&"), "top",
            [("a", 4), ("b", 4)], [("y", 4)], clocked=False,
        )
        candidate = _HIER.replace("{OP}", "|")
        expected = lockstep_verdict(problem, candidate)
        assert expected == (False, "mismatch")
        reset_caches()
        assert check_candidate_source(problem, candidate) == expected

        def top_module_only(source):
            # the naive digest: the tokens of the top module alone
            stream, _ = lex_source_digest(source)
            top = source[: source.index("endmodule") + len("endmodule")]
            return stream, lex_source_digest(top)[1]

        monkeypatch.setattr(harness, "lex_source_digest", top_module_only)
        reset_caches()
        try:
            assert check_candidate_source(problem, candidate) == (True, "")
        finally:
            reset_caches()

    def test_a_golden_simulation_error_is_the_twin_verdict(
        self, monkeypatch
    ):
        from repro.vereval import harness

        problem = _problem(
            _SPIN, "spin", [("a", 8)], [("acc", 16)], clocked=True
        )
        pool = [_SPIN, "// twin\n" + _SPIN]
        reference = _reference(problem, pool)
        assert reference == [
            (False, "for-loop exceeded 65536 iterations")
        ] * 2
        reset_caches()
        verdicts, moved = _counted(
            ("vereval.golden_equal",),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert verdicts == reference
        assert moved == {"vereval.golden_equal": 0}

        # the naive rule, without the precondition, passes both
        monkeypatch.setattr(
            harness, "_golden_equal_digest",
            lambda ref: ref.digest,
        )
        reset_caches()
        try:
            assert check_candidates_lockstep(problem, pool) == [(True, "")] * 2
        finally:
            reset_caches()

    def test_a_warm_hit_skips_the_bundle_and_replays_nothing(
        self, sim_cache_dir, monkeypatch
    ):
        from repro.sim import cache as sim_cache

        problem = _clocked_problem()
        pool = [_acc(), "// twin\n" + _acc(), _acc("b + a")]
        cold = check_candidates_lockstep(problem, pool)
        assert cold == _reference(problem, pool) == [(True, "")] * 3
        reset_caches()
        loaded = []
        real_load = sim_cache.load

        def recording(kind, *parts, **options):
            loaded.append((kind, parts[0]))
            return real_load(kind, *parts, **options)

        monkeypatch.setattr(sim_cache, "load", recording)
        warm, moved = _counted(
            (
                "vereval.golden_equal", "retire.scalar_replays",
                "vereval.cached_verdicts", "verilog.tokens",
            ),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert warm == cold
        assert moved == {
            "vereval.golden_equal": 0, "retire.scalar_replays": 0,
            "vereval.cached_verdicts": 3, "verilog.tokens": 0,
        }
        # one load, of the golden entry, whose table decides every source,
        # the verbatim golden included; its bundle is never unpickled
        assert loaded == [("golden", problem.golden_source)]
        assert harness._golden_disk_key(problem) not in harness._GOLDEN_CACHE


def _spans(run, names=("verilog.parse", "sim.elaborate", "vereval.golden")):
    """``run()`` under summary-mode spans: its result, the number of
    spans of each of ``names`` and the counters it moved."""
    obs.configure(obs.MODE_SUMMARY)
    obs.reset()
    result = run()
    snap = obs.snapshot()
    return result, {
        name: snap.agg[name][0] if name in snap.agg else 0 for name in names
    }, snap.counters


class TestGoldenTwinsBeforeTheFrontEnd:
    """With the golden bundle fetched before the front end, the golden's
    text passes with no parse or elaboration, and so does a token twin;
    every other outcome is the parent's."""

    @pytest.mark.parametrize("cache", ["off", "on"])
    def test_twins_parse_and_elaborate_nothing(self, cache, tmp_path):
        from repro.sim import cache as sim_cache

        sim_cache.configure(str(tmp_path) if cache == "on" else "")
        problem = _clocked_problem()
        golden = problem.golden_source
        pool = [golden, "// twin\n" + golden.replace("\n", "\n\n"), golden]
        reference = _reference(problem, pool)
        assert reference == [(True, "")] * 3

        def check(golden_equal=2):
            verdicts, spans, counters = _spans(
                lambda: check_candidates_lockstep(problem, pool)
            )
            assert verdicts == reference
            assert counters.get("vereval.golden_equal", 0) == golden_equal
            assert "vereval.scalar_checks" not in counters
            return spans

        try:
            reset_caches()
            # cold: the golden bundle's own parse and elaboration only
            assert check() == {
                "verilog.parse": 1, "sim.elaborate": 1, "vereval.golden": 1,
            }
            if cache == "on":
                for source in pool:
                    assert _stored_verdict(problem, source) == (True, "")
                    assert sim_cache.get_design(source, "acc") is None
                # a later call decides both from their verdicts
                reset_caches()
                assert check(golden_equal=0) == {
                    "verilog.parse": 0, "sim.elaborate": 0,
                    "vereval.golden": 0,
                }
                return
            # the bundle in memory: nothing at all
            assert check() == {
                "verilog.parse": 0, "sim.elaborate": 0, "vereval.golden": 0,
            }
            reset_caches()
            # a fresh process builds the bundle again
            assert check() == {
                "verilog.parse": 1, "sim.elaborate": 1, "vereval.golden": 1,
            }
        finally:
            reset_caches()

    def test_a_golden_simulation_error_replays_the_twins(self, sim_cache_dir):
        problem = _problem(
            _SPIN, "spin", [("a", 8)], [("acc", 16)], clocked=True
        )
        pool = [_SPIN, "// twin\n" + _SPIN, _SPIN]
        reference = _reference(problem, pool)
        assert reference == [
            (False, "for-loop exceeded 65536 iterations")
        ] * 3
        names = (
            "vereval.golden_equal", "vereval.scalar_checks",
            "vereval.cached_verdicts",
        )
        reset_caches()
        verdicts, moved = _counted(
            names, lambda: check_candidates_lockstep(problem, pool)
        )
        assert verdicts == reference
        # the two spellings share one digest, so one check
        assert moved == {
            "vereval.golden_equal": 0, "vereval.scalar_checks": 1,
            "vereval.cached_verdicts": 0,
        }
        reset_caches()
        verdicts, moved = _counted(
            names, lambda: check_candidates_lockstep(problem, pool)
        )
        assert verdicts == reference
        assert moved == {
            "vereval.golden_equal": 0, "vereval.scalar_checks": 0,
            "vereval.cached_verdicts": 2,
        }

    def test_a_golden_elaboration_failure_is_the_twin_verdict(
        self, sim_cache_dir
    ):
        broken = _acc("a + zz")
        interface = _clocked_problem().module.interface
        problem = EvalProblem(
            problem_id="acc-broken",
            module=GeneratedModule(
                family="bench", source=broken, interface=interface,
                description="a golden that does not elaborate",
            ),
            stimulus_cycles=24, stimulus_seed=7,
        )
        pool = [broken, "// twin\n" + broken, _acc(), "module"]
        reference = _reference(problem, pool)
        assert reference == [(False, "elaboration")] * 3 + [(False, "syntax")]
        for _ in ("cold", "again"):
            reset_caches()
            assert check_candidates_lockstep(problem, pool) == reference
        # every verdict in one entry, keyed by the golden that failed; no
        # bundle
        assert len(list(sim_cache_dir.iterdir())) == 1
        assert _golden_entry(problem)[1] is None
        for source, verdict in zip(pool, reference):
            assert _stored_verdict(problem, source) == verdict

    def test_sources_that_all_fail_to_parse_fetch_no_bundle(
        self, sim_cache_dir
    ):
        problem = _clocked_problem()
        pool = ["module", "garbage (((", "module"]
        reset_caches()
        verdicts, spans, counters = _spans(
            lambda: check_candidates_lockstep(problem, pool)
        )
        assert verdicts == _reference(problem, pool) == [(False, "syntax")] * 3
        assert spans["vereval.golden"] == 0
        assert counters["sim.cache.miss"] == 1  # the golden entry, once
        assert harness._golden_disk_key(problem) not in harness._GOLDEN_CACHE
        # one entry: the two verdicts and no bundle
        assert len(list(sim_cache_dir.iterdir())) == 1
        table, blob = _golden_entry(problem)
        assert len(table) == 2 and blob is None
        # a later call that gets past the front end adds the bundle and
        # keeps the table
        reset_caches()
        more = pool + [_acc("a - b")]
        assert check_candidates_lockstep(problem, more) == _reference(
            problem, more
        )
        table, blob = _golden_entry(problem)
        assert len(table) == 3 and blob is not None
        assert len(list(sim_cache_dir.iterdir())) == 1


# ---------------------------------------------------------------------------
# The verdict tier: with the disk tier on and CEGIS off, every decided
# source's (passed, reason) joins the table in its golden bundle's entry,
# and a warm check is one load per call
# ---------------------------------------------------------------------------

#: the perf ledger's body-only operator swaps (``build_pool``)
_SWAPS = (
    (" + ", " - "), (" - ", " + "), (" & ", " | "), (" | ", " & "),
    (" ^ ", " | "), (" == ", " != "), (" != ", " == "), (" << ", " >> "),
    (" >> ", " << "), (" < ", " > "), (" > ", " < "), (" && ", " || "),
)


def _check_pool(problem, rng, size=12):
    """One ``check_cold`` pool, as the perf ledger builds it: the golden,
    a whitespace/comment resample, every ``mutate`` near-miss, up to
    three operator swaps, a truncated and a renamed source, padded with
    verbatim duplicates and shuffled."""
    source = problem.golden_source
    name = problem.module.name
    pool = [source, "// resample\n" + source.replace("\n", "\n  ", 1)]
    pool.extend(m.source for m in mutate(problem.module))
    body_at = source.index(");") + 2
    sites = []
    for old, new in _SWAPS:
        at = source.find(old, body_at)
        while at != -1:
            sites.append((at, old, new))
            at = source.find(old, at + len(old))
    sites.sort()
    for at, old, new in sorted(rng.sample(sites, min(3, len(sites)))):
        pool.append(source[:at] + new + source[at + len(old):])
    pool.append(source[: len(source) * 2 // 3])
    pool.append(source.replace(f"module {name}", f"module {name}_x", 1))
    while len(pool) < size:
        pool.append(source)
    rng.shuffle(pool)
    return pool


def _check_pools(seed):
    """Every ``check_cold`` pool at ``seed``: 60 problems at 384 cycles,
    each under the seed's stimulus (seed 0: the problems' own)."""
    import dataclasses

    from repro.utils.rng import DeterministicRNG

    rng = DeterministicRNG(seed)
    problems = build_problem_set(n_problems=60, stimulus_cycles=384)
    if seed:
        stimulus = rng.fork("stimulus")
        problems = [
            dataclasses.replace(
                p, stimulus_seed=stimulus.fork(p.problem_id).seed
            )
            for p in problems
        ]
    pools = rng.fork("pools")
    return [(p, _check_pool(p, pools.fork(p.problem_id))) for p in problems]


def _near_misses(pool):
    """A new spelling of every distinct source: each is a verdict miss
    with its original's tokens, so its original's verdict."""
    distinct = dict.fromkeys(pool)
    return [f"// near-miss {i}\n" + s for i, s in enumerate(distinct)]


def _replaced(problem, **changes):
    """``problem`` with one verdict-key input changed."""
    import dataclasses

    module, interface = problem.module, problem.module.interface
    if "source" in changes:
        module = dataclasses.replace(module, source=changes.pop("source"))
    fields = {
        name: changes.pop(name)
        for name in ("module_name", "clock", "reset", "reset_active_high")
        if name in changes
    }
    if fields:
        module = dataclasses.replace(
            module, interface=dataclasses.replace(interface, **fields)
        )
    return dataclasses.replace(problem, module=module, **changes)


class TestVerdictEntries:
    """The verdict tier against the checker with the cache off: equal
    verdicts cold, warm and on a partial hit; a miss whenever one key
    input changes; untouched under CEGIS; never an ``internal``; an
    unusable entry evicted and recomputed; one load and at most one store
    per call; and a bounded table."""

    COUNTERS = (
        "vereval.cached_verdicts", "retire.scalar_replays", "verilog.tokens",
        "sim.cache.hit", "sim.cache.miss", "sim.cache.store",
    )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_off_cold_warm_and_partial_hit_agree(self, seed, tmp_path):
        from repro.sim import cache as sim_cache

        pools = _check_pools(seed)
        extended = [(p, pool + _near_misses(pool)) for p, pool in pools]

        def run(checks):
            reset_caches()
            return _counted(
                self.COUNTERS,
                lambda: [check_candidates_lockstep(p, s) for p, s in checks],
            )

        sim_cache.configure("")
        off, _ = run(extended)
        want = [v[: len(pool)] for v, (_, pool) in zip(off, pools)]
        for verdicts, (_, pool) in zip(off, pools):
            # a respelling has its original's verdict
            originals = dict(zip(pool, verdicts))
            assert verdicts[len(pool):] == [
                originals[s] for s in dict.fromkeys(pool)
            ]
        distinct = sum(len(set(pool)) for _, pool in pools)
        sim_cache.configure(str(tmp_path))
        cold, moved = run(pools)
        assert cold == want
        assert moved["vereval.cached_verdicts"] == 0
        # one entry per golden: one load (a miss) and one store per call
        assert moved["sim.cache.miss"] == moved["sim.cache.store"] == len(
            pools
        )
        assert len(list(tmp_path.iterdir())) == len(pools)
        warm, moved = run(pools)
        assert warm == want
        # one hit per call, every distinct source decided by its table, and
        # nothing else: no bundle, no lex, no replay, no write
        assert moved == {
            "vereval.cached_verdicts": distinct, "retire.scalar_replays": 0,
            "verilog.tokens": 0, "sim.cache.hit": len(pools),
            "sim.cache.miss": 0, "sim.cache.store": 0,
        }
        partial, moved = run(extended)
        assert partial == off
        assert moved["vereval.cached_verdicts"] == distinct
        assert moved["sim.cache.hit"] == moved["sim.cache.store"] == len(
            pools
        )
        # the new spellings were merged into the tables the entries held
        again, moved = run(extended)
        assert again == off
        assert moved["vereval.cached_verdicts"] == 2 * distinct
        assert moved["sim.cache.store"] == moved["verilog.tokens"] == 0

    def test_each_key_input_changed_alone_misses(self, sim_cache_dir):
        from repro.sim import cache as sim_cache

        problem = _clocked_problem()
        # passes under stimulus seed 7, fails under seed 8
        rare = _acc("(a == 8'd99) ? 9'd0 : a + b")
        pool = _resample_pool(problem) + [rare]
        golden = problem.golden_source
        variants = {
            "golden text": _replaced(problem, source="// v\n" + golden),
            "module name": _replaced(
                problem, source=golden.replace("module acc", "module acc2"),
                module_name="acc2",
            ),
            "stimulus_cycles": _replaced(problem, stimulus_cycles=25),
            "stimulus_seed": _replaced(problem, stimulus_seed=8),
            "clock": _replaced(problem, clock=None),
            "reset": _replaced(problem, reset=None),
            "polarity": _replaced(problem, reset_active_high=False),
        }
        key = harness._golden_disk_key(problem)
        for label, variant in variants.items():
            changed = [
                a != b for a, b in zip(key, harness._golden_disk_key(variant))
            ]
            assert any(changed), label
        sim_cache.configure("")
        want = {
            label: check_candidates_lockstep(variant, pool)
            for label, variant in variants.items()
        }
        sim_cache.configure(str(sim_cache_dir))
        check_candidates_lockstep(problem, pool)
        for label, variant in variants.items():
            assert _golden_entry(variant) is None, label
            reset_caches()
            verdicts, moved = _counted(
                ("vereval.cached_verdicts",),
                lambda: check_candidates_lockstep(variant, pool),
            )
            assert verdicts == want[label], label
            assert moved == {"vereval.cached_verdicts": 0}, label
        # the stimulus seed alone turns a verdict: a key without it would
        # serve the wrong one
        assert _reference(problem, [rare]) == [(True, "")]
        assert want["stimulus_seed"][-1] == (False, "mismatch")

    def test_cegis_reads_and_writes_no_verdict(self, tmp_path):
        from repro.sim import cache as sim_cache

        config = CegisConfig(enabled=True, search_rounds=2, search_lanes=8)
        checks = [(p, _resample_pool(p)) for p in build_problem_set()[::12]]

        def run():
            reset_caches()
            return _counted(
                ("vereval.cached_verdicts",),
                lambda: [check_candidates_lockstep(p, s) for p, s in checks],
            )

        def verdict_entries():
            return [
                _stored_verdict(p, source)
                for p, pool in checks for source in pool
            ]

        previous = cegis_configure(config)
        try:
            sim_cache.configure(str(tmp_path / "cegis"))
            cegis_cold, _ = run()
            assert not any(verdict_entries())  # no verdict written
            # the bundles CEGIS built are stored, with empty tables
            assert all(_golden_entry(p)[1] for p, _ in checks)
        finally:
            cegis_configure(previous)
        sim_cache.configure(str(tmp_path / "fill"))
        legacy, _ = run()
        run()  # a CEGIS-off warm fill
        filled = verdict_entries()
        assert all(filled)
        assert legacy != cegis_cold  # CEGIS kills a near-miss legacy passes
        # drop the bundles: CEGIS builds them again and keeps the tables
        for p, _ in checks:
            table, _ = _golden_entry(p)
            assert sim_cache.store(
                "golden", (table, None), *harness._golden_disk_key(p)
            )
        previous = cegis_configure(config)
        try:
            after_fill, moved = run()
            assert after_fill == cegis_cold
            assert moved == {"vereval.cached_verdicts": 0}
        finally:
            cegis_configure(previous)
        assert verdict_entries() == filled
        assert all(_golden_entry(p)[1] for p, _ in checks)

    def test_internal_is_never_stored(self, sim_cache_dir, monkeypatch):
        problem = _clocked_problem()
        broken = _acc("a - b")
        pool = [broken, _acc(), _acc("b + a"), "module"]
        want = _reference(problem, pool)
        real = harness.lex_source_digest

        def buggy(source):
            if source == broken:
                raise RuntimeError("lexer bug")
            return real(source)

        monkeypatch.setattr(harness, "lex_source_digest", buggy)
        reset_caches()
        got = check_candidates_lockstep(problem, pool)
        assert got == [(False, "internal")] + want[1:]
        assert _stored_verdict(problem, broken) is None
        for source, verdict in zip(pool[1:], want[1:]):
            assert _stored_verdict(problem, source) == verdict
        monkeypatch.undo()
        reset_caches()
        verdicts, moved = _counted(
            ("vereval.cached_verdicts",),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert verdicts == want
        assert moved == {"vereval.cached_verdicts": 3}

    @pytest.mark.parametrize("payload", [
        "mismatch", [False, "mismatch"], (0, "mismatch"), (False, None),
        (False, "mismatch", ""), (True, "mismatch"), (False, ""),
    ])
    def test_an_unusable_entry_is_evicted_and_recomputed(
        self, payload, sim_cache_dir
    ):
        from repro.sim import cache as sim_cache

        problem = _clocked_problem()
        source = _acc("a - b")
        key = harness._golden_disk_key(problem)
        assert sim_cache.store(
            "golden", ({harness._source_key(source): payload}, None), *key
        )
        reset_caches()
        verdicts, moved = _counted(
            ("sim.cache.corrupt", "vereval.cached_verdicts"),
            lambda: check_candidates_lockstep(problem, [source]),
        )
        assert verdicts == _reference(problem, [source]) == [
            (False, "mismatch")
        ]
        assert moved == {"sim.cache.corrupt": 1, "vereval.cached_verdicts": 0}
        assert _stored_verdict(problem, source) == (False, "mismatch")

    @pytest.mark.parametrize("damage", [
        "not a pickle", "truncated", "not an entry", "bundle not bytes",
    ])
    def test_a_corrupt_entry_is_evicted_and_recomputed(
        self, damage, sim_cache_dir
    ):
        from repro.sim import cache as sim_cache

        problem = _clocked_problem()
        pool = [_acc("a - b"), _acc()]
        want = _reference(problem, pool)
        key = harness._golden_disk_key(problem)
        if damage == "not an entry":
            assert sim_cache.store("golden", {"verdicts": {}}, *key)
        elif damage == "bundle not bytes":
            assert sim_cache.store("golden", ({}, "bundle"), *key)
        else:
            assert check_candidates_lockstep(problem, pool) == want
            (path,) = sim_cache_dir.iterdir()
            if damage == "truncated":
                with open(path, "r+b") as handle:
                    handle.truncate(path.stat().st_size // 2)
            else:
                path.write_bytes(b"not a pickle")
        reset_caches()
        verdicts, moved = _counted(
            ("sim.cache.corrupt", "vereval.cached_verdicts"),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert verdicts == want
        assert moved == {"sim.cache.corrupt": 1, "vereval.cached_verdicts": 0}
        # recomputed and written whole again
        table, blob = _golden_entry(problem)
        assert len(table) == 2 and blob is not None

    def test_a_stale_version_is_evicted_and_recomputed(self, sim_cache_dir):
        from repro.sim import cache as sim_cache

        problem = _clocked_problem()
        source = _acc("a - b")
        key = harness._golden_disk_key(problem)
        # an entry at the current name whose envelope says 19: the last
        # version whose bundles pickled the golden's Design
        record = sim_cache._path_for(
            str(sim_cache_dir), sim_cache._key("golden", *key)
        )
        with open(record, "wb") as handle:
            pickle.dump(
                (19, ({harness._source_key(source): (True, "")}, None)),
                handle,
            )
        reset_caches()
        verdicts, moved = _counted(
            (
                "sim.cache.version_mismatch", "sim.cache.evict",
                "vereval.cached_verdicts",
            ),
            lambda: check_candidates_lockstep(problem, [source]),
        )
        assert verdicts == [(False, "mismatch")]
        assert moved == {
            "sim.cache.version_mismatch": 1, "sim.cache.evict": 1,
            "vereval.cached_verdicts": 0,
        }
        assert _stored_verdict(problem, source) == (False, "mismatch")

    def test_a_torn_write_leaves_no_entry(self, sim_cache_dir):
        from repro.testing import faults

        problem = _clocked_problem()
        pool = [_acc("a - b"), _acc(), "module"]
        want = _reference(problem, pool)
        reset_caches()
        faults.arm("sim.cache.store", "raise", nth=1)
        try:
            assert check_candidates_lockstep(problem, pool) == want
        finally:
            faults.disarm("sim.cache.store")
        # the store died between writing the entry and naming it
        assert not list(sim_cache_dir.iterdir())
        reset_caches()
        verdicts, moved = _counted(
            ("vereval.cached_verdicts", "sim.cache.store"),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert verdicts == want
        assert moved == {
            "vereval.cached_verdicts": 0, "sim.cache.store": 1,
        }
        assert [p.suffix for p in sim_cache_dir.iterdir()] == [".pkl"]

    def test_a_warm_call_does_one_load_and_unpickles_no_bundle(
        self, sim_cache_dir, monkeypatch
    ):
        problem = _clocked_problem()
        pool = _resample_pool(problem)
        cold = check_candidates_lockstep(problem, pool)
        reset_caches()
        unpickled = []
        real_loads = pickle.loads

        def recording(data, *args, **kwargs):
            value = real_loads(data, *args, **kwargs)
            unpickled.append(type(value))
            return value

        monkeypatch.setattr(pickle, "loads", recording)
        warm, moved = _counted(
            ("sim.cache.hit", "sim.cache.miss", "sim.cache.store"),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert warm == cold
        assert moved == {
            "sim.cache.hit": 1, "sim.cache.miss": 0, "sim.cache.store": 0,
        }
        # the entry's envelope, and no bundle
        assert unpickled == [tuple]
        assert harness._golden_disk_key(problem) not in harness._GOLDEN_CACHE

    def test_verdicts_of_calls_on_one_golden_merge(self, sim_cache_dir):
        problem = _clocked_problem()
        pool = _resample_pool(problem)
        halves = [pool[::2], pool[1::2]]
        for half in halves:
            reset_caches()
            check_candidates_lockstep(problem, half)
        reset_caches()
        verdicts, moved = _counted(
            ("vereval.cached_verdicts", "verilog.tokens"),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert verdicts == _reference(problem, pool)
        assert moved == {
            "vereval.cached_verdicts": len(set(pool)), "verilog.tokens": 0,
        }

    def test_the_table_bound_holds(self, sim_cache_dir, monkeypatch):
        monkeypatch.setattr(harness, "_VERDICTS_MAX", 5)
        problem = _clocked_problem()
        pool = list(dict.fromkeys(_resample_pool(problem)))
        assert len(pool) > 5
        want = dict(zip(pool, _reference(problem, pool)))
        calls = [pool[:3], pool[3:5], pool[5:8]]
        sizes = []
        for call in calls:
            reset_caches()
            assert check_candidates_lockstep(problem, call) == [
                want[s] for s in call
            ]
            table, _ = _golden_entry(problem)
            sizes.append(len(table))
            # every verdict the table holds is the source's own
            for source in pool:
                stored = table.get(harness._source_key(source))
                assert stored in (None, want[source])
        # 3, then 3 + 2, then past the bound: this call's verdicts only
        assert sizes == [3, 5, len(calls[2])]
        assert all(size <= 5 for size in sizes)

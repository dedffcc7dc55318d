"""Tests for pass@k, problems, and the functional-eval harness."""

import math
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import lockstep_verdict
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
from repro.vereval.passk import mean_pass_at_k
from repro.vgen import GeneratedModule, ModuleInterface, mutate


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


class TestGoldenEqualIdentity:
    COUNTERS = ("vereval.golden_equal", "vereval.scalar_checks")

    def _check_every_family(self):
        for problem in build_problem_set():
            pool = _golden_variants(problem) + [problem.golden_source]
            assert pool[2] != pool[0], problem.problem_id
            verdicts, moved = _counted(
                self.COUNTERS, lambda: check_candidates_lockstep(problem, pool)
            )
            assert verdicts == _reference(problem, pool), problem.problem_id
            assert verdicts == [(True, "")] * 4, problem.problem_id
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
        self._check_every_family()

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
            lambda ref: ref.design.token_digest,
        )
        reset_caches()
        try:
            assert check_candidates_lockstep(problem, pool) == [(True, "")] * 2
        finally:
            reset_caches()

    def test_a_warm_hit_thaws_nothing_and_replays_nothing(
        self, sim_cache_dir, monkeypatch
    ):
        from repro.sim import cache as sim_cache
        from repro.sim.elaborate import _AST_FIELDS, Design

        problem = _clocked_problem()
        pool = [_acc(), "// twin\n" + _acc(), _acc("b + a")]
        cold = check_candidates_lockstep(problem, pool)
        assert cold == _reference(problem, pool) == [(True, "")] * 3
        reset_caches()
        loaded = {}
        get_frontend = sim_cache.get_frontend

        def recording(source, module):
            loaded[source] = outcome = get_frontend(source, module)
            return outcome

        monkeypatch.setattr(sim_cache, "get_frontend", recording)
        warm, moved = _counted(
            ("vereval.golden_equal", "retire.scalar_replays"),
            lambda: check_candidates_lockstep(problem, pool),
        )
        assert warm == cold
        assert moved == {"vereval.golden_equal": 2, "retire.scalar_replays": 1}
        # the verbatim golden is never looked up; the twin's entry is the
        # golden's design, and it and the replayed candidate carry code,
        # so they were stored with their source text and no AST, and
        # nothing derived it again
        assert set(loaded) == set(pool[1:])
        for source in pool[1:]:
            design = loaded[source]
            assert isinstance(design, Design)
            assert design._compiled.code is not None
            assert "_ast" not in design.__dict__
            assert not set(_AST_FIELDS) & set(design.__dict__)
        assert loaded[pool[1]].source_text == problem.golden_source
        assert loaded[pool[2]].source_text == pool[2]


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
    text passes with no lookup, parse or elaboration, and a token twin
    with no parse or elaboration; every other outcome is the parent's."""

    @pytest.mark.parametrize("cache", ["off", "on"])
    def test_twins_parse_and_elaborate_nothing(self, cache, tmp_path):
        from repro.sim import cache as sim_cache
        from repro.vereval import harness

        sim_cache.configure(str(tmp_path) if cache == "on" else "")
        problem = _clocked_problem()
        golden = problem.golden_source
        pool = [golden, "// twin\n" + golden.replace("\n", "\n\n"), golden]
        reference = _reference(problem, pool)
        assert reference == [(True, "")] * 3

        def check():
            verdicts, spans, counters = _spans(
                lambda: check_candidates_lockstep(problem, pool)
            )
            assert verdicts == reference
            assert counters["vereval.golden_equal"] == 2
            assert "vereval.scalar_checks" not in counters
            return spans

        try:
            reset_caches()
            # cold: the golden bundle's own parse and elaboration only
            assert check() == {
                "verilog.parse": 1, "sim.elaborate": 1, "vereval.golden": 1,
            }
            # the bundle in memory: nothing at all
            assert check() == {
                "verilog.parse": 0, "sim.elaborate": 0, "vereval.golden": 0,
            }
            reset_caches()
            # a fresh process: the bundle and the twin's entry (the
            # golden's design) from disk, or built again with no cache
            built = 1 if cache == "off" else 0
            assert check() == {
                "verilog.parse": built, "sim.elaborate": built,
                "vereval.golden": built,
            }
            if cache == "on":
                assert sim_cache.get_frontend(golden, "acc") is None
                twin = sim_cache.get_frontend(pool[1], "acc")
                assert twin.source_text == golden
                assert twin.token_digest == (
                    harness._golden_ref(problem).design.token_digest
                )
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
        for _ in ("cold", "warm"):
            reset_caches()
            verdicts, moved = _counted(
                ("vereval.golden_equal", "vereval.scalar_checks"),
                lambda: check_candidates_lockstep(problem, pool),
            )
            assert verdicts == reference
            # the two spellings share one digest, so one check
            assert moved == {
                "vereval.golden_equal": 0, "vereval.scalar_checks": 1,
            }

    def test_a_golden_elaboration_failure_is_the_twin_verdict(
        self, sim_cache_dir
    ):
        from repro.sim import cache as sim_cache

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
        # only the syntax reason is stored: the golden's failure is no
        # candidate's outcome
        assert len(list(sim_cache_dir.iterdir())) == 1
        assert sim_cache.get_frontend("module", "acc") == "syntax"
        for source in pool[:3]:
            assert sim_cache.get_frontend(source, "acc") is None

    def test_sources_that_all_fail_to_parse_fetch_no_bundle(
        self, sim_cache_dir
    ):
        from repro.vereval import harness

        problem = _clocked_problem()
        pool = ["module", "garbage (((", "module"]
        reset_caches()
        verdicts, spans, counters = _spans(
            lambda: check_candidates_lockstep(problem, pool)
        )
        assert verdicts == _reference(problem, pool) == [(False, "syntax")] * 3
        assert spans["vereval.golden"] == 0
        assert counters["sim.cache.miss"] == 2  # the two sources only
        assert harness._golden_key(problem) not in harness._GOLDEN_CACHE
        assert len(list(sim_cache_dir.iterdir())) == 2

"""Tests for the engine-backed evaluation layer (repro.evalkit).

The load-bearing guarantees:

* facades (``evaluate_model``, ``CopyrightBenchmark.evaluate``,
  ``FreeVTrainer.headline``) are numerically identical to the seed-era
  serial harnesses — same pass@k, same violation rate, same per-sample
  seeds (the frozen serial loops are reproduced verbatim below);
* a killed run resumes from its :class:`CheckpointStore` snapshot and
  finishes with a :class:`RunResult` identical to an uninterrupted run;
* a multi-model plan shares the problem set and the similarity index and
  still matches per-model facade runs.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from oracle import lockstep_verdict
from repro.copyright import CopyrightBenchmark
from repro.core.freev import HeadlineReport
from repro.engine import CheckpointStore, ParallelExecutor
from repro.errors import ConfigError, EvaluationError
from repro.evalkit import CopyrightTask, EvalPlan, PassAtKTask
from repro.llm import LanguageModel
from repro.llm.sampler import GenerationConfig
from repro.sim import set_default_backend
from repro.testing import faults
from repro.utils.rng import DeterministicRNG
from repro.vereval import (
    EvalConfig,
    EvalResult,
    ProblemOutcome,
    build_problem_set,
    check_completion,
    evaluate_model,
    reset_caches,
)
from repro.vereval import cegis
from repro.vereval.passk import mean_pass_at_k
from repro.vgen import mutate


# ---------------------------------------------------------------------------
# The seed-era serial harnesses, frozen verbatim (pre-evalkit behavior);
# the per-sample check is the lockstep reference in tests/oracle.py.
# ---------------------------------------------------------------------------


def _seed_evaluate_model(model, problems, config):
    result = EvalResult(model_name=model.name)
    for temperature in config.temperatures:
        outcomes = []
        for problem in problems:
            gen_config = GenerationConfig(
                temperature=temperature,
                max_new_tokens=config.max_new_tokens,
                stop_strings=("endmodule",),
            )
            passes = 0
            failures = {}
            prompt = problem.prompt()
            for sample_index in range(config.n_samples):
                seed = DeterministicRNG(config.seed).fork(
                    model.name, temperature, problem.problem_id, sample_index
                ).seed
                completion = model.generate(prompt, gen_config, seed=seed)
                ok, reason = lockstep_verdict(problem, prompt + completion)
                if ok:
                    passes += 1
                else:
                    failures[reason] = failures.get(reason, 0) + 1
            outcomes.append(
                ProblemOutcome(
                    problem_id=problem.problem_id,
                    passes=passes,
                    samples=config.n_samples,
                    failures=failures,
                )
            )
        result.outcomes[temperature] = outcomes
        counts = [o.passes for o in outcomes]
        result.per_temperature[temperature] = {
            k: mean_pass_at_k(counts, config.n_samples, k) for k in config.ks
        }
    return result


def _seed_copyright_evaluate(benchmark, model, temperature=0.2,
                             max_new_tokens=512, seed=0):
    from repro.copyright.benchmark import PromptResult, ViolationReport
    from repro.copyright.prompts import build_prompt

    report = ViolationReport(model_name=model.name, threshold=benchmark.threshold)
    config = GenerationConfig(
        temperature=temperature,
        max_new_tokens=max_new_tokens,
        stop_strings=("endmodule",),
    )
    for i, key in enumerate(benchmark.prompt_keys):
        prompt = build_prompt(benchmark.corpus.text(key), benchmark.prompt_spec)
        if not prompt:
            continue
        completion = model.generate(
            prompt, config, seed=DeterministicRNG(seed).fork(key, i).seed
        )
        match = benchmark.index.best_match(prompt + completion)
        similarity = match.score if match else 0.0
        report.results.append(
            PromptResult(
                source_key=key,
                prompt=prompt,
                completion=completion,
                best_match_key=match.key if match else None,
                similarity=similarity,
                violation=similarity >= benchmark.threshold,
            )
        )
    return report


class _FlakyModel:
    """Delegates to a real model until ``fail_after`` generations."""

    def __init__(self, inner, fail_after):
        self._inner = inner
        self._fail_after = fail_after
        self.calls = 0
        self.name = inner.name
        self.counts = inner.counts  # same identity for plan fingerprints

    def generate(self, *args, **kwargs):
        if self.calls >= self._fail_after:
            raise RuntimeError("simulated kill")
        self.calls += 1
        return self._inner.generate(*args, **kwargs)

    def encode_prompt(self, prompt):
        return self._inner.encode_prompt(prompt)


class _NearMissModel:
    """Completes each problem's prompt with the body of its golden or of
    one of its near-miss mutants, picked by the sample seed."""

    name = "near-miss"

    def __init__(self, problems):
        self._bodies = {}
        for problem in problems:
            golden = problem.golden_source
            header = golden[: golden.index(");\n") + 3]
            assert problem.prompt().endswith(header)
            sources = [golden] + [m.source for m in mutate(problem.module)]
            self._bodies[problem.prompt()] = [
                source[len(header):] for source in sources
            ]

    def encode_prompt(self, prompt):
        return None

    def generate(self, prompt, config, seed, prompt_tokens=None):
        bodies = self._bodies[prompt]
        return bodies[seed % len(bodies)]


#: two sequence detectors whose near-misses pass at the default 24
#: cycles and fail by 384 (6 of 8 samples of p036), a FIFO and an LFSR
_DEEP_PROBLEMS = (
    "p036_sequence_detector", "p043_sequence_detector", "p047_fifo",
    "p053_lfsr",
)

_CONFIG = EvalConfig(
    n_samples=4, ks=(1, 4), temperatures=(0.2, 0.8), max_new_tokens=250
)


def _make_plan(n_problems=4, n_samples=4, chunk_size=4):
    model = LanguageModel.pretrain(
        "demo",
        ["module m(input a, output y); assign y = ~a; endmodule"] * 6,
    )
    task = PassAtKTask(
        build_problem_set(n_problems=n_problems),
        EvalConfig(n_samples=n_samples, ks=(1,), temperatures=(0.4,),
                   max_new_tokens=64),
    )
    return EvalPlan([model], [task], chunk_size=chunk_size)


def _verdicts(run):
    return [
        (r.model_name, r.task_id, r.unit_id, r.sample_index, r.passed,
         r.completion)
        for r in run.records
    ]


@pytest.fixture(scope="module")
def plan():
    return _make_plan()


@pytest.fixture(scope="module")
def serial_run(plan):
    return plan.run()


_RESUME_TAG = "pool-resume"


def _resume_child_main(root: str) -> None:
    """Run the plan on a process pool, dying hard mid-run like a lost host.

    The death is an armed ``checkpoint.save`` fault, not a monkeypatched
    store: the 5th save (the third block's segment) hard-exits with
    :data:`faults.EXIT_CODE` *before* any bytes move, leaving saves 1-4
    (two complete segment+head pairs) on disk for the parent to resume.
    The child leads its own process group, so the test can reap the pool
    workers the hard exit orphans.
    """
    os.setpgrp()
    os.environ[faults.ENV_VAR] = "checkpoint.save:exit:5"
    _make_plan().run(
        store=CheckpointStore(root), tag=_RESUME_TAG, checkpoint_every=4,
        executor="pool",
    )
    os._exit(1)  # finishing means the kill never fired


class TestFacadeIdentity:
    def test_passk_matches_seed_serial_harness(self, tiny_model):
        problems = build_problem_set(n_problems=5, seed=21)
        serial = _seed_evaluate_model(tiny_model, problems, _CONFIG)
        kit = evaluate_model(tiny_model, problems, _CONFIG)
        assert kit == serial

    def test_copyright_matches_seed_serial_loop(self, copyrighted_corpus,
                                                tiny_model):
        benchmark = CopyrightBenchmark(copyrighted_corpus, num_prompts=12,
                                       seed=7)
        serial = _seed_copyright_evaluate(benchmark, tiny_model, seed=3)
        kit = benchmark.evaluate(tiny_model, seed=3)
        assert kit == serial

    def test_duplicate_temperatures_match_serial(self, tiny_model):
        # Degenerate but legal config: the serial loop recomputed and
        # overwrote the repeated temperature's entry; the plan must too.
        problems = build_problem_set(n_problems=2, seed=31)
        config = EvalConfig(n_samples=3, ks=(1, 3), temperatures=(0.8, 0.8),
                            max_new_tokens=120)
        serial = _seed_evaluate_model(tiny_model, problems, config)
        assert evaluate_model(tiny_model, problems, config) == serial

    def test_interp_backend_identical_at_deep_stimulus(self):
        # The compiled backend changes no pass@k, outcome or failure
        # reason at production-depth stimulus (a compiled replay that
        # stops after 24 cycles fails this).
        problems = [
            p for p in build_problem_set(stimulus_cycles=384)
            if p.problem_id in _DEEP_PROBLEMS
        ]
        model = _NearMissModel(problems)
        config = EvalConfig(n_samples=8, ks=(1, 8), temperatures=(0.8,))
        results = {}
        for backend in ("interp", "auto"):
            reset_caches()  # each backend traces its own goldens
            previous = set_default_backend(backend)
            try:
                results[backend] = evaluate_model(model, problems, config)
            finally:
                set_default_backend(previous)
        interp = results["interp"]
        assert results["auto"] == interp
        assert any(
            outcome.failures.get("mismatch")
            for outcome in interp.outcomes[0.8]
        )

    def test_parallel_executor_identical(self, tiny_model):
        problems = build_problem_set(n_problems=3, seed=22)
        config = EvalConfig(n_samples=2, ks=(1, 2), temperatures=(0.8,),
                            max_new_tokens=150)
        serial = evaluate_model(tiny_model, problems, config)
        with ParallelExecutor(workers=2) as executor:
            pooled = evaluate_model(
                tiny_model, problems, config, executor=executor
            )
        assert pooled == serial


class TestEvalPlan:
    def test_multi_model_plan_matches_per_model_facades(
        self, tiny_model, tiny_verilog_corpus, copyrighted_corpus
    ):
        other = tiny_model.continual_pretrain(
            "tiny-tuned", tiny_verilog_corpus[60:]
        )
        problems = build_problem_set(n_problems=3, seed=23)
        config = EvalConfig(n_samples=2, ks=(1, 2), temperatures=(0.2,),
                            max_new_tokens=150)
        benchmark = CopyrightBenchmark(copyrighted_corpus, num_prompts=6,
                                       seed=9)
        passk = PassAtKTask(problems, config)
        copyright_task = CopyrightTask(benchmark, seed=1)
        run = EvalPlan(
            [tiny_model, other], [passk, copyright_task]
        ).run()
        for model in (tiny_model, other):
            assert run.result(model.name, "passk") == evaluate_model(
                model, problems, config
            )
            assert run.result(model.name, "copyright") == benchmark.evaluate(
                model, seed=1
            )
        # shared index/problems: one plan, both models' records present
        assert set(run.model_names) == {tiny_model.name, other.name}
        assert len(run.samples(tiny_model.name, "passk")) == 6

    def test_run_result_json(self, tiny_model):
        problems = build_problem_set(n_problems=2, seed=24)
        config = EvalConfig(n_samples=2, ks=(1, 2), temperatures=(0.2,),
                            max_new_tokens=120)
        run = EvalPlan([tiny_model], [PassAtKTask(problems, config)]).run()
        payload = json.loads(run.to_json())
        assert payload["models"] == [tiny_model.name]
        assert payload["tasks"] == ["passk"]
        assert len(payload["samples"]) == 4  # 2 problems x 2 samples
        aggregate = payload["aggregates"][tiny_model.name]["passk"]
        assert set(aggregate["best"]) == {"1", "2"}
        for sample in payload["samples"]:
            assert sample["seed"] != 0
        compact = json.loads(run.to_json(include_text=False))
        assert "completion" not in compact["samples"][0]

    def test_plan_validation(self, tiny_model):
        problems = build_problem_set(n_problems=1, seed=25)
        task = PassAtKTask(problems, EvalConfig(n_samples=2, ks=(1,),
                                                temperatures=(0.2,)))
        with pytest.raises(ValueError):
            EvalPlan([], [task])
        with pytest.raises(ValueError):
            EvalPlan([tiny_model], [])
        with pytest.raises(ValueError):
            EvalPlan([tiny_model, tiny_model], [task])
        with pytest.raises(ValueError):
            EvalPlan([tiny_model], [task, task])
        with pytest.raises(ConfigError, match="max k"):
            PassAtKTask(problems, EvalConfig(n_samples=2, ks=(5,)))

    def test_progress_streams_during_run(self, plan, serial_run):
        events = []
        result = plan.run(on_progress=events.append)
        assert _verdicts(result) == _verdicts(serial_run)
        assert [e.done for e in events] == [4, 8, 12, 16]
        assert all(e.total == 16 for e in events)
        assert events[-1].passed == sum(
            1 for r in serial_run.records if r.passed
        )
        assert events[-1].frac == 1.0


class TestResume:
    def _plan(self, model, problems, benchmark):
        config = EvalConfig(n_samples=3, ks=(1, 3), temperatures=(0.2, 0.8),
                            max_new_tokens=150)
        return EvalPlan(
            [model],
            [PassAtKTask(problems, config), CopyrightTask(benchmark, seed=2)],
        )

    def test_killed_run_resumes_to_identical_result(
        self, tmp_path, tiny_model, copyrighted_corpus
    ):
        problems = build_problem_set(n_problems=3, seed=26)
        benchmark = CopyrightBenchmark(copyrighted_corpus, num_prompts=5,
                                       seed=4)
        uninterrupted = self._plan(tiny_model, problems, benchmark).run()

        store = CheckpointStore(tmp_path / "ckpt")
        flaky = _FlakyModel(tiny_model, fail_after=8)
        with pytest.raises(RuntimeError, match="simulated kill"):
            self._plan(flaky, problems, benchmark).run(
                store=store, tag="resume", checkpoint_every=4
            )
        # the kill landed mid-problem: some but not all work checkpointed
        snapshot = store.load("resume")
        assert snapshot is not None
        assert 0 < snapshot["engine"]["items_in"] < 23  # 18 passk + 5 cr

        resumed = self._plan(tiny_model, problems, benchmark).run(
            store=store, tag="resume", checkpoint_every=4
        )
        assert resumed.records == uninterrupted.records
        assert resumed.result(tiny_model.name, "passk") == uninterrupted.result(
            tiny_model.name, "passk"
        )
        assert resumed.result(
            tiny_model.name, "copyright"
        ) == uninterrupted.result(tiny_model.name, "copyright")
        assert resumed.seeds(tiny_model.name, "passk") == uninterrupted.seeds(
            tiny_model.name, "passk"
        )
        # ... and the resumed numbers still match the seed-era harnesses
        config = EvalConfig(n_samples=3, ks=(1, 3), temperatures=(0.2, 0.8),
                            max_new_tokens=150)
        assert resumed.result(tiny_model.name, "passk") == _seed_evaluate_model(
            tiny_model, problems, config
        )
        assert resumed.result(
            tiny_model.name, "copyright"
        ) == _seed_copyright_evaluate(benchmark, tiny_model, seed=2)

    def test_completed_checkpoint_replays_without_generation(
        self, tmp_path, tiny_model, copyrighted_corpus
    ):
        problems = build_problem_set(n_problems=2, seed=27)
        benchmark = CopyrightBenchmark(copyrighted_corpus, num_prompts=3,
                                       seed=5)
        store = CheckpointStore(tmp_path / "ckpt")
        first = self._plan(tiny_model, problems, benchmark).run(
            store=store, tag="done"
        )
        # a model that refuses every call: replay must not need it
        dead = _FlakyModel(tiny_model, fail_after=0)
        replay = self._plan(dead, problems, benchmark).run(
            store=store, tag="done"
        )
        assert replay.records == first.records
        assert dead.calls == 0

    def test_checkpoint_from_different_plan_rejected(
        self, tmp_path, tiny_model, copyrighted_corpus
    ):
        problems = build_problem_set(n_problems=2, seed=28)
        benchmark = CopyrightBenchmark(copyrighted_corpus, num_prompts=3,
                                       seed=6)
        store = CheckpointStore(tmp_path / "ckpt")
        self._plan(tiny_model, problems, benchmark).run(store=store, tag="x")
        other_config = EvalConfig(n_samples=2, ks=(1,), temperatures=(0.2,),
                                  max_new_tokens=100)
        other = EvalPlan([tiny_model], [PassAtKTask(problems, other_config)])
        with pytest.raises(EvaluationError, match="different plan"):
            other.run(store=store, tag="x")
        # a protocol change that keeps the spec count is rejected too
        shifted_config = EvalConfig(n_samples=3, ks=(1, 3),
                                    temperatures=(0.2, 0.8),
                                    max_new_tokens=150, seed=99)
        shifted = EvalPlan(
            [tiny_model],
            [PassAtKTask(problems, shifted_config),
             CopyrightTask(benchmark, seed=2)],
        )
        assert shifted.total_specs() == self._plan(
            tiny_model, problems, benchmark
        ).total_specs()
        with pytest.raises(EvaluationError, match="different plan"):
            shifted.run(store=store, tag="x")
        # so is the same plan under another checker configuration
        previous = cegis.configure(cegis.CegisConfig(enabled=True))
        try:
            with pytest.raises(EvaluationError, match="different plan"):
                self._plan(tiny_model, problems, benchmark).run(
                    store=store, tag="x"
                )
        finally:
            cegis.configure(previous)

    def test_killed_coordinator_resumes_from_checkpoint(
        self, plan, serial_run, tmp_path
    ):
        root = str(tmp_path / "ckpt")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_resume_child_main, args=(root,))
        child.start()
        # Not join(): the orphaned pool workers hold the child's sentinel
        # open, so poll its exit status, then kill the whole group.
        deadline = time.monotonic() + 120
        while child.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.05)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        assert child.exitcode == faults.EXIT_CODE

        store = CheckpointStore(root)
        head = store.load(_RESUME_TAG)
        assert head is not None
        # 16 specs / checkpoint_every=4 would be 4 segments; the child
        # died mid-run, so the head references only a prefix.
        assert 0 < head["segments"] < 4

        resumed = plan.run(
            store=store, tag=_RESUME_TAG, checkpoint_every=4,
            executor="pool",
        )
        assert _verdicts(resumed) == _verdicts(serial_run)
        assert store.load(_RESUME_TAG)["segments"] == 4


class TestSatelliteFixes:
    def test_passk_delta_iterates_shared_keys(self):
        base = EvalResult("base", per_temperature={0.2: {1: 0.10, 5: 0.20}})
        tuned = EvalResult("tuned", per_temperature={0.2: {1: 0.15, 10: 0.60}})
        report = HeadlineReport(
            base_eval=base,
            freev_eval=tuned,
            base_violation_rate=0.0,
            freev_violation_rate=0.0,
        )
        # base has k=5, tuned has k=10: only the shared k=1 is compared
        assert report.passk_delta() == {1: pytest.approx(0.05)}

    def test_parse_crash_is_internal_not_syntax(self, monkeypatch):
        problem = build_problem_set(n_problems=1, seed=29)[0]

        def boom(source):
            raise RuntimeError("parser bug")

        monkeypatch.setattr("repro.vereval.harness.lex_source_digest", boom)
        ok, reason = check_completion(problem, "\nendmodule")
        assert not ok
        assert reason == "internal"

    def test_lex_and_parse_errors_still_syntax(self):
        problem = build_problem_set(n_problems=1, seed=30)[0]
        ok, reason = check_completion(problem, "\n  garbage (((")
        assert not ok and reason == "syntax"

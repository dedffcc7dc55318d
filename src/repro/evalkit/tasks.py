"""Evaluation tasks: what to ask a model and how to score the answers.

An :class:`EvalTask` declares one benchmark protocol as data the engine
can execute: it enumerates bare sample specs, expands each with its
prompt and :class:`~repro.utils.rng.DeterministicRNG` fork seed (the
exact chains the seed-era serial harnesses used, so results are
numerically identical), provides a picklable *checker* that the engine
fans across the process pool, and aggregates the checked records into
the benchmark's reporting object.

Two implementations cover the paper's evaluations:

* :class:`PassAtKTask` — mini-VerilogEval functional correctness
  (Table II), aggregating to :class:`~repro.vereval.EvalResult`;
* :class:`CopyrightTask` — the infringement benchmark (Fig. 3),
  aggregating to :class:`~repro.copyright.ViolationReport`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.copyright.benchmark import (
    CopyrightBenchmark,
    PromptResult,
    ViolationReport,
)
from repro.copyright.prompts import build_prompt
from repro.llm.sampler import check_max_new_tokens, check_temperature
from repro.utils.rng import fork_seed
from repro.vereval.harness import (
    EvalConfig,
    EvalResult,
    ProblemOutcome,
    check_candidates_lockstep,
)
from repro.vereval.passk import mean_pass_at_k
from repro.vereval.problems import EvalProblem
from repro.evalkit.records import SampleRecord


class EvalTask:
    """Protocol for one benchmark wired through the engine.

    Implementations must be deterministic: ``specs`` and ``expand`` may
    depend only on construction arguments and the model name, so a
    resumed run re-derives the exact stream a fresh run would see.
    """

    task_id: str

    def spec_count(self, model_name: str) -> int:
        """Number of specs :meth:`specs` yields (resume bookkeeping)."""
        raise NotImplementedError

    def protocol_fingerprint(self) -> str:
        """Digest of everything that shapes this task's sample stream.

        Two tasks with equal fingerprints must produce identical specs,
        prompts, and seeds — it is what stops a checkpoint taken under
        one protocol from silently resuming under another.
        """
        raise NotImplementedError

    def specs(self, model_name: str) -> Iterator[SampleRecord]:
        """Bare sample records in canonical stream order."""
        raise NotImplementedError

    def expand(self, record: SampleRecord) -> Optional[SampleRecord]:
        """Fill prompt + seed; return None to drop the sample."""
        raise NotImplementedError

    def checker(self) -> Any:
        """A picklable object with ``check(record) -> record``."""
        raise NotImplementedError

    def aggregate(self, model_name: str, records: Sequence[SampleRecord]):
        """Fold checked records into the task's reporting object."""
        raise NotImplementedError

    def result_json(self, result: Any) -> Dict[str, Any]:
        """Plain-dict summary of an :meth:`aggregate` result."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pass@k (mini-VerilogEval)
# ---------------------------------------------------------------------------


class PassAtKChecker:
    """Functional-equivalence verdict for one completion record.

    Holds the problem table so worker processes receive it once per
    fused phase (the executor pickles stages per phase, not per chunk);
    the golden parse/elaboration/trace cache in
    :mod:`repro.vereval.harness` then fills per worker, once per problem.

    :meth:`check_batch` is the chunk-level entry point
    :class:`~repro.evalkit.stages.CheckStage` prefers: all distinct
    completions of one problem inside a chunk check together through
    :func:`~repro.vereval.harness.check_candidates_lockstep` (one golden
    lookup and one stimulus-row derivation per problem, one check per
    distinct source); :meth:`check` is a chunk of one.
    """

    _VERDICT_CACHE_MAX = 8192

    def __init__(self, problems: Sequence[EvalProblem]) -> None:
        self.problems = list(problems)
        #: verdict memo: the check is a pure function of (problem,
        #: completion) and low-temperature sampling repeats completions
        #: verbatim, so duplicate samples skip parse+simulate entirely
        self._verdicts: Dict[Tuple[int, str], Tuple[bool, str]] = {}

    def _memoize(self, key: Tuple[int, str],
                 verdict: Tuple[bool, str]) -> None:
        if len(self._verdicts) >= self._VERDICT_CACHE_MAX:
            self._verdicts.clear()
        self._verdicts[key] = verdict

    def check(self, record: SampleRecord) -> SampleRecord:
        return self.check_batch([record])[0]

    def check_batch(self, records: Sequence[SampleRecord]):
        """Verdicts for a whole chunk, pooled per problem.

        Memoized completions reuse their verdict; the unmemoized
        completions of one problem are checked in one
        ``check_candidates_lockstep`` call.  Records come back in order.
        """
        records = list(records)
        # Snapshot the verdicts this chunk needs before inserting fresh
        # ones: a memo-capacity clear mid-batch must not lose them.
        needed: Dict[Tuple[int, str], Tuple[bool, str]] = {}
        fresh: Dict[int, Dict[Tuple[int, str], str]] = {}
        for record in records:
            key = (record.unit_index, record.completion)
            if key in needed:
                continue
            verdict = self._verdicts.get(key)
            if verdict is not None:
                needed[key] = verdict
            else:
                fresh.setdefault(record.unit_index, {})[key] = (
                    record.prompt + record.completion
                )
        for unit_index, by_key in fresh.items():
            keys = list(by_key)
            verdicts = check_candidates_lockstep(
                self.problems[unit_index], [by_key[k] for k in keys]
            )
            for key, verdict in zip(keys, verdicts):
                needed[key] = verdict
                self._memoize(key, verdict)
        for record in records:
            record.passed, record.failure_reason = needed[
                (record.unit_index, record.completion)
            ]
        return records

    def __getstate__(self):
        # Worker processes build their own memo; don't ship it.
        state = self.__dict__.copy()
        state["_verdicts"] = {}
        return state


class PassAtKTask(EvalTask):
    """The paper's pass@k protocol as an engine task."""

    def __init__(
        self,
        problems: Sequence[EvalProblem],
        config: Optional[EvalConfig] = None,
        task_id: str = "passk",
    ) -> None:
        self.task_id = task_id
        self.problems = list(problems)
        self.config = config or EvalConfig()
        #: hoisted out of the sample loop: one prompt per problem
        self._prompts = [p.prompt() for p in self.problems]

    def spec_count(self, model_name: str) -> int:
        return (
            len(self.config.temperatures)
            * len(self.problems)
            * self.config.n_samples
        )

    def protocol_fingerprint(self) -> str:
        digest = hashlib.sha256()
        config = self.config
        digest.update(
            repr(
                (
                    self.task_id,
                    config.n_samples,
                    tuple(config.ks),
                    tuple(config.temperatures),
                    config.max_new_tokens,
                    config.seed,
                )
            ).encode("utf-8")
        )
        for problem, prompt in zip(self.problems, self._prompts):
            interface = problem.module.interface
            digest.update(
                repr(
                    (
                        problem.problem_id,
                        problem.module.name,
                        problem.stimulus_cycles,
                        problem.stimulus_seed,
                        interface.clock,
                        interface.reset,
                        interface.reset_active_high,
                    )
                ).encode("utf-8")
            )
            digest.update(prompt.encode("utf-8"))
            digest.update(b"\x1f")
            digest.update(problem.golden_source.encode("utf-8"))
        return digest.hexdigest()

    def specs(self, model_name: str) -> Iterator[SampleRecord]:
        for temperature in self.config.temperatures:
            for unit_index, problem in enumerate(self.problems):
                for sample_index in range(self.config.n_samples):
                    yield SampleRecord(
                        task_id=self.task_id,
                        model_name=model_name,
                        unit_id=problem.problem_id,
                        unit_index=unit_index,
                        sample_index=sample_index,
                        temperature=temperature,
                        max_new_tokens=self.config.max_new_tokens,
                    )

    def expand(self, record: SampleRecord) -> SampleRecord:
        record.prompt = self._prompts[record.unit_index]
        # The seed-era fork chain, verbatim: one independent stream per
        # (model, temperature, problem, sample).
        record.seed = fork_seed(
            self.config.seed,
            record.model_name,
            record.temperature,
            record.unit_id,
            record.sample_index,
        )
        return record

    def checker(self) -> PassAtKChecker:
        return PassAtKChecker(self.problems)

    def aggregate(
        self, model_name: str, records: Sequence[SampleRecord]
    ) -> EvalResult:
        # Records arrive in spec order (temperature-major, then problem,
        # then sample), so aggregation slices by position — duplicate
        # temperature values then overwrite their dict entries exactly
        # like the serial loop did, instead of double-counting a bucket.
        config = self.config
        per_temperature = len(self.problems) * config.n_samples
        result = EvalResult(model_name=model_name)
        for t_index, temperature in enumerate(config.temperatures):
            block = records[
                t_index * per_temperature:(t_index + 1) * per_temperature
            ]
            outcomes = []
            for u_index, problem in enumerate(self.problems):
                samples = block[
                    u_index * config.n_samples:(u_index + 1) * config.n_samples
                ]
                passes = 0
                failures: Dict[str, int] = {}
                for record in samples:
                    if record.passed:
                        passes += 1
                    else:
                        failures[record.failure_reason] = (
                            failures.get(record.failure_reason, 0) + 1
                        )
                outcomes.append(
                    ProblemOutcome(
                        problem_id=problem.problem_id,
                        passes=passes,
                        samples=len(samples),
                        failures=failures,
                    )
                )
            result.outcomes[temperature] = outcomes
            counts = [o.passes for o in outcomes]
            result.per_temperature[temperature] = {
                k: mean_pass_at_k(counts, config.n_samples, k)
                for k in config.ks
            }
        return result

    def result_json(self, result: EvalResult) -> Dict[str, Any]:
        return {
            "type": "passk",
            "best": {str(k): v for k, v in sorted(result.best().items())},
            "per_temperature": {
                str(t): {str(k): v for k, v in sorted(scores.items())}
                for t, scores in result.per_temperature.items()
            },
            "summary": result.summary(),
        }


# ---------------------------------------------------------------------------
# copyright violation rate
# ---------------------------------------------------------------------------


class CopyrightChecker:
    """Similarity lookup of prompt+completion against the whole corpus.

    Carries the (shared) :class:`~repro.textsim.SimilarityIndex`; in a
    multi-model plan every model's samples hit the same index instance
    instead of rebuilding it per model.
    """

    def __init__(self, index, threshold: float) -> None:
        self.index = index
        self.threshold = threshold

    def check(self, record: SampleRecord) -> SampleRecord:
        match = self.index.best_match(record.prompt + record.completion)
        record.similarity = match.score if match else 0.0
        record.best_match_key = match.key if match else None
        record.violation = record.similarity >= self.threshold
        record.passed = not record.violation
        return record


class CopyrightTask(EvalTask):
    """The infringement benchmark as an engine task.

    Wraps a :class:`~repro.copyright.CopyrightBenchmark` (its sampled
    prompt keys and its similarity index), reproducing the serial
    ``evaluate`` loop: prompts built from each protected file, one
    completion per prompt at the given temperature, seed forked per
    (key, position) — independent of the model, exactly as before.
    """

    def __init__(
        self,
        benchmark: CopyrightBenchmark,
        temperature: float = 0.2,
        max_new_tokens: int = 512,
        seed: int = 0,
        task_id: str = "copyright",
    ) -> None:
        check_temperature(temperature)
        check_max_new_tokens(max_new_tokens)
        self.task_id = task_id
        self.benchmark = benchmark
        self.temperature = temperature
        self.max_new_tokens = max_new_tokens
        self.seed = seed
        self._prompts: Dict[int, str] = {}

    def _prompt(self, unit_index: int) -> str:
        prompt = self._prompts.get(unit_index)
        if prompt is None:
            key = self.benchmark.prompt_keys[unit_index]
            prompt = build_prompt(
                self.benchmark.corpus.text(key), self.benchmark.prompt_spec
            )
            self._prompts[unit_index] = prompt
        return prompt

    def spec_count(self, model_name: str) -> int:
        return len(self.benchmark.prompt_keys)

    def protocol_fingerprint(self) -> str:
        benchmark = self.benchmark
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    self.task_id,
                    self.temperature,
                    self.max_new_tokens,
                    self.seed,
                    benchmark.threshold,
                    benchmark.prompt_spec,
                    tuple(benchmark.prompt_keys),
                )
            ).encode("utf-8")
        )
        for key in benchmark.prompt_keys:
            digest.update(benchmark.corpus.text(key).encode("utf-8"))
        return digest.hexdigest()

    def specs(self, model_name: str) -> Iterator[SampleRecord]:
        for unit_index, key in enumerate(self.benchmark.prompt_keys):
            yield SampleRecord(
                task_id=self.task_id,
                model_name=model_name,
                unit_id=str(key),
                unit_index=unit_index,
                sample_index=0,
                temperature=self.temperature,
                max_new_tokens=self.max_new_tokens,
            )

    def expand(self, record: SampleRecord) -> Optional[SampleRecord]:
        prompt = self._prompt(record.unit_index)
        if not prompt:
            return None  # comment-only file: the serial loop skipped it too
        record.prompt = prompt
        record.seed = fork_seed(
            self.seed,
            self.benchmark.prompt_keys[record.unit_index],
            record.unit_index,
        )
        return record

    def checker(self) -> CopyrightChecker:
        return CopyrightChecker(self.benchmark.index, self.benchmark.threshold)

    def aggregate(
        self, model_name: str, records: Sequence[SampleRecord]
    ) -> ViolationReport:
        report = ViolationReport(
            model_name=model_name, threshold=self.benchmark.threshold
        )
        for record in records:
            report.results.append(
                PromptResult(
                    source_key=self.benchmark.prompt_keys[record.unit_index],
                    prompt=record.prompt,
                    completion=record.completion,
                    best_match_key=record.best_match_key,
                    similarity=record.similarity,
                    violation=record.violation,
                )
            )
        return report

    def result_json(self, result: ViolationReport) -> Dict[str, Any]:
        return {
            "type": "copyright",
            "violations": result.violations,
            "prompts": len(result.results),
            "violation_rate": result.violation_rate,
            "threshold": result.threshold,
            "summary": result.summary(),
        }

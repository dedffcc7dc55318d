"""The four engine stages an :class:`~repro.evalkit.EvalPlan` compiles to.

Stream shape::

    specs -> eval_expand -> eval_generate -> eval_check -> eval_aggregate

``eval_expand`` runs inline (it needs the task tables and is trivial);
``eval_generate`` and ``eval_check`` are parallel-safe pure functions of
the record, so the graph fuses them into one pooled phase with the
engine's order-preserving merge; ``eval_aggregate`` is the stateful sink
whose state — every checked record so far — is exactly what a
checkpoint needs to resume a killed run mid-problem.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro import obs
from repro.engine import MapStage, Stage, StatefulStage, register_stage
from repro.evalkit.records import SampleRecord
from repro.llm.model import LanguageModel
from repro.llm.sampler import GenerationConfig
from repro.sim import cache as sim_cache


@register_stage("eval_expand")
class ExpandStage(Stage):
    """Fill prompt and fork seed per spec; drop samples the task skips."""

    name = "eval_expand"
    # Inline: needs the task tables (problem sets, corpora) and is cheap,
    # so shipping them to workers for this stage would be pure overhead.
    parallel_safe = False

    def __init__(self, tasks: Mapping[str, Any]) -> None:
        self.tasks = dict(tasks)

    def process(self, chunk: Sequence[SampleRecord]) -> List[SampleRecord]:
        out: List[SampleRecord] = []
        for record in chunk:
            expanded = self.tasks[record.task_id].expand(record)
            if expanded is not None:
                out.append(expanded)
        return out


@register_stage("eval_generate")
class GenerationStage(MapStage):
    """Sample one completion per record at the record's seed.

    Pure given the record (n-gram decoding is deterministic per seed), so
    it is parallel-safe and fuses with checking; the executor ships the
    model table once per phase and workers cache the deserialized stages.
    """

    name = "eval_generate"
    parallel_safe = True

    def __init__(self, models: Mapping[str, LanguageModel]) -> None:
        self.models = dict(models)
        self._configs: Dict[Any, GenerationConfig] = {}
        #: encoded-prompt cache: the pass@k protocol samples every prompt
        #: n_samples x len(temperatures) times, the serial loop re-encoded
        #: it each time (worker-local; not part of the pickled stage)
        self._prompt_tokens: Dict[Any, List[int]] = {}

    def _config(self, record: SampleRecord) -> GenerationConfig:
        # Hoisted out of the sample loop: one config per protocol point
        # rather than one per generated sample.
        key = (record.temperature, record.max_new_tokens)
        config = self._configs.get(key)
        if config is None:
            config = GenerationConfig(
                temperature=record.temperature,
                max_new_tokens=record.max_new_tokens,
                stop_strings=("endmodule",),
            )
            self._configs[key] = config
        return config

    def map_item(self, record: SampleRecord) -> SampleRecord:
        model = self.models[record.model_name]
        # Keyed by the prompt text itself (tasks share one string object
        # per unit, so hashing is cheap): a task whose prompt varies per
        # sample must never see another sample's tokens.
        key = (record.model_name, record.prompt)
        tokens = self._prompt_tokens.get(key)
        if tokens is None:
            if len(self._prompt_tokens) >= 4096:
                self._prompt_tokens.clear()
            tokens = model.encode_prompt(record.prompt)
            self._prompt_tokens[key] = tokens
        with obs.span(
            "eval.generate",
            model=record.model_name,
            unit=record.unit_id,
            sample=record.sample_index,
        ):
            record.completion = model.generate(
                record.prompt,
                self._config(record),
                seed=record.seed,
                prompt_tokens=tokens,
            )
        return record

    def __getstate__(self):
        # Worker processes rebuild their own caches; shipping them would
        # bloat the per-phase stage payload.
        state = self.__dict__.copy()
        state["_prompt_tokens"] = {}
        return state


@register_stage("eval_check")
class CheckStage(Stage):
    """Score each completion via its task's checker (the hot stage).

    Chunks are checked *per task, per chunk* rather than per record:
    when a checker exposes ``check_batch`` (see
    :class:`~repro.evalkit.tasks.PassAtKChecker`), all of the chunk's
    records for that task are handed over together, so the pass@k
    candidates of one problem share one golden lookup, one stimulus-row
    derivation and one check per distinct source.  Checkers without a
    batch entry point keep the per-record ``check`` path; either way the
    output is 1:1 and order-preserving, with verdicts identical to a
    per-record loop.

    Captures the active :mod:`repro.sim.cache` directory at construction
    and re-activates it after unpickling, so process-pool workers share
    the run's persistent compile cache (golden artifacts and duplicate
    candidate elaborations hit disk instead of being rederived) even
    under executor start methods that
    do not inherit the parent's environment.  The resolved CEGIS checking
    configuration (:func:`repro.vereval.cegis.active_config`) is captured
    and re-applied the same way, so every worker renders the same verdict
    semantics the coordinator fingerprinted.
    """

    name = "eval_check"
    parallel_safe = True

    def __init__(self, checkers: Mapping[str, Any],
                 cache_dir: str = None) -> None:
        from repro.vereval import cegis

        self.checkers = dict(checkers)
        self.cache_dir = (
            cache_dir if cache_dir is not None else sim_cache.cache_dir()
        )
        if self.cache_dir:
            sim_cache.configure(self.cache_dir)
        self.cegis_config = cegis.active_config()

    @staticmethod
    def _note_candidate(record: SampleRecord) -> None:
        # One zero-duration trace event + one counter per verdict: the
        # per-candidate accounting the acceptance check compares against
        # the scalar bookkeeping.  Same call under the batched and the
        # per-record path, so both executors and both check paths emit
        # identical per-candidate streams.
        obs.event(
            "eval.candidate",
            task=record.task_id,
            unit=record.unit_id,
            sample=record.sample_index,
            passed=record.passed,
            reason=record.failure_reason,
        )
        obs.count("eval.candidates")
        if record.passed:
            obs.count("eval.candidates_passed")

    def process(self, chunk: Sequence[SampleRecord]) -> List[SampleRecord]:
        by_task: Dict[str, List[int]] = {}
        for index, record in enumerate(chunk):
            by_task.setdefault(record.task_id, []).append(index)
        results: List[SampleRecord] = [None] * len(chunk)  # type: ignore
        for task_id, indices in by_task.items():
            checker = self.checkers[task_id]
            check_batch = getattr(checker, "check_batch", None)
            with obs.span(
                "eval.check_chunk", task=task_id, records=len(indices)
            ):
                if check_batch is not None:
                    checked = check_batch([chunk[i] for i in indices])
                    for index, record in zip(indices, checked):
                        results[index] = record
                        self._note_candidate(record)
                else:
                    for index in indices:
                        record = checker.check(chunk[index])
                        results[index] = record
                        self._note_candidate(record)
        return results

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.cache_dir:
            sim_cache.configure(self.cache_dir)
        if getattr(self, "cegis_config", None) is not None:
            from repro.vereval import cegis

            cegis.configure(self.cegis_config)


@register_stage("eval_aggregate")
class AggregateStage(StatefulStage):
    """Order-preserving sink collecting every checked record.

    Its ``state_dict`` is the run's progress payload: restoring it (plus
    the graph's ``items_in`` counter) resumes an interrupted plan exactly
    where the last checkpoint left off.
    """

    name = "eval_aggregate"

    def __init__(self) -> None:
        self.records: List[SampleRecord] = []
        #: transient streaming hook — called as ``on_records(new, total)``
        #: after each chunk lands; not part of the checkpoint payload, so
        #: a resumed run re-attaches its own observer
        self.on_records = None

    def reset(self) -> None:
        self.records = []

    def process(self, chunk: Sequence[SampleRecord]) -> List[SampleRecord]:
        self.records.extend(chunk)
        if self.on_records is not None:
            self.on_records(list(chunk), len(self.records))
        return list(chunk)

    def state_dict(self) -> List[SampleRecord]:
        return list(self.records)

    def load_state(self, state: List[SampleRecord]) -> None:
        self.records = list(state)

"""EvalPlan: models x tasks, compiled to the execution engine.

Exactly like :class:`repro.curation.CurationPipeline` on the curation
side, a plan is *data*: it declares which models run which tasks under
which protocol, compiles that into a registry-built
:class:`~repro.engine.StageGraph`, and streams sample-level work units
through it.  Because samples are independent, the whole plan — every
model, every task, every temperature — is one flat stream: generation
and checking fan across a pool when given one; a multi-model plan shares the
problem set and the copyright similarity index across models instead of
rebuilding them per model.

Runs checkpoint through :class:`~repro.engine.CheckpointStore`: the
snapshot carries the engine's progress counter plus every checked record,
so a killed sweep resumes mid-problem and completes with a
:class:`~repro.evalkit.RunResult` identical to an uninterrupted run.

Checking is chunk-batched: :class:`~repro.evalkit.stages.CheckStage`
hands each chunk's records to their task's checker together, so pass@k
candidates of one problem check as one batch (duplicates once, golden
artifacts and stimulus rows derived once; see
:func:`repro.vereval.check_candidates_lockstep`) before pool fan-out.

Example (runnable; ``docs/architecture.md`` carries the resumable
variant, executed by ``tools/check_docs.py``)::

    from repro.evalkit import EvalPlan, PassAtKTask
    from repro.llm import LanguageModel
    from repro.vereval import EvalConfig, build_problem_set

    model = LanguageModel.pretrain("demo", [
        "module m(input a, output y); assign y = ~a; endmodule",
    ] * 4)
    task = PassAtKTask(
        build_problem_set(n_problems=2),
        EvalConfig(n_samples=2, ks=(1,), temperatures=(0.4,),
                   max_new_tokens=64),
    )
    run = EvalPlan([model], [task]).run()
    print(run.result(model.name, task.task_id).summary())
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.engine import (
    CheckpointStore,
    StageGraph,
    build_stages,
    iter_chunks,
)
from repro.errors import EvaluationError
from repro.llm.model import LanguageModel
from repro.evalkit.records import RunResult, SampleRecord
from repro.evalkit.stages import AggregateStage
from repro.evalkit.tasks import EvalTask
from repro.vereval import cegis

#: one work unit is a full generate+simulate sample, so dispatch chunks
#: are much smaller than curation's (a chunk is the pool's unit of work)
DEFAULT_EVAL_CHUNK_SIZE = 8

#: specs between checkpoint writes when a store is attached
DEFAULT_CHECKPOINT_EVERY = 64


def _segment_key(tag: str, index: int) -> str:
    return f"{tag}-seg{index:05d}"


@dataclass
class PlanProgress:
    """A live snapshot of a running plan, streamed to ``on_progress``.

    Emitted as checked records land in the aggregation sink — including
    the replayed records of a resumed run — so a long sweep reports
    partial results while later chunks are still generating.
    """

    done: int
    total: int
    passed: int

    @property
    def frac(self) -> float:
        return self.done / self.total if self.total else 1.0


class EvalPlan:
    """A declarative evaluation run: models x tasks x protocol params."""

    def __init__(
        self,
        models: Sequence[LanguageModel],
        tasks: Sequence[EvalTask],
        chunk_size: Optional[int] = None,
        executor=None,
    ) -> None:
        if not models:
            raise ValueError("EvalPlan needs at least one model")
        if not tasks:
            raise ValueError("EvalPlan needs at least one task")
        names = [m.name for m in models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names: {names}")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate task ids: {ids}")
        self.models = list(models)
        self.tasks = list(tasks)
        self.chunk_size = (
            chunk_size if chunk_size is not None else DEFAULT_EVAL_CHUNK_SIZE
        )
        self.executor = executor

    # -- compilation --------------------------------------------------------

    def stage_specs(self) -> List[Tuple[str, Mapping]]:
        """The declarative stage list this plan compiles to."""
        return [
            ("eval_expand", {"tasks": {t.task_id: t for t in self.tasks}}),
            ("eval_generate", {"models": {m.name: m for m in self.models}}),
            (
                "eval_check",
                {"checkers": {t.task_id: t.checker() for t in self.tasks}},
            ),
            ("eval_aggregate", {}),
        ]

    def compile(self) -> StageGraph:
        """Build the engine :class:`StageGraph` for this plan."""
        return StageGraph(
            build_stages(self.stage_specs()),
            chunk_size=self.chunk_size,
            executor=self.executor,
        )

    # -- the spec stream ----------------------------------------------------

    def specs(self) -> Iterator[SampleRecord]:
        """Every sample spec of the plan, in canonical stream order."""
        for model in self.models:
            for task in self.tasks:
                yield from task.specs(model.name)

    def total_specs(self) -> int:
        return sum(
            task.spec_count(model.name)
            for model in self.models
            for task in self.tasks
        )

    def fingerprint(self) -> str:
        """Identity of the plan's sample stream, guarding resume mismatches.

        Covers the models (name plus training-scale descriptors — a
        retrained same-name model almost surely differs in these), each
        task's :meth:`~EvalTask.protocol_fingerprint` and the active
        CEGIS checking configuration (which changes verdicts without
        changing any task), so a checkpoint cannot silently resume under
        a changed protocol even when the spec *count* happens to match.
        """
        digest = hashlib.sha256()
        digest.update(f"cegis:{cegis.fingerprint_token()}".encode("utf-8"))
        for model in self.models:
            counts = getattr(model, "counts", None)
            descriptor = (
                model.name,
                getattr(counts, "tokens_trained", None),
                getattr(counts, "pair_count", None),
            )
            digest.update(repr(descriptor).encode("utf-8"))
        for task in self.tasks:
            digest.update(task.protocol_fingerprint().encode("utf-8"))
            for model in self.models:
                digest.update(str(task.spec_count(model.name)).encode("utf-8"))
        return digest.hexdigest()[:16]

    # -- execution ----------------------------------------------------------

    def run(
        self,
        store: Optional[CheckpointStore] = None,
        tag: str = "evalkit",
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        executor=None,
        on_progress=None,
    ) -> RunResult:
        """Execute the plan, resuming from ``store``/``tag`` if a snapshot
        exists; a completed snapshot just replays its result.

        ``executor`` overrides the plan's executor for this run: a
        :class:`~repro.engine.ParallelExecutor` the caller owns fans the
        generate+check phase across its process pool.
        ``on_progress`` receives a :class:`PlanProgress` as checked
        records stream into the sink.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        with obs.run_capture(
            "eval_plan",
            models=len(self.models),
            tasks=len(self.tasks),
            specs=self.total_specs(),
        ) as capture:
            run = self._run(
                store, tag, checkpoint_every, executor, on_progress
            )
        # Built when the capture closes; the summary travels on the
        # result so callers see it without touching the obs module.
        run.telemetry = capture.telemetry
        return run

    def _run(
        self,
        store: Optional[CheckpointStore],
        tag: str,
        checkpoint_every: int,
        executor,
        on_progress,
    ) -> RunResult:
        graph = self.compile()
        if executor is not None:
            graph.executor = executor
        sink = graph.stages[-1]
        assert isinstance(sink, AggregateStage)
        fingerprint = self.fingerprint()
        done = 0
        segments = 0
        if store is not None:
            head = store.load(tag)
            if head is not None:
                if head.get("fingerprint") != fingerprint:
                    raise EvaluationError(
                        f"checkpoint {tag!r} belongs to a different plan "
                        "(models/tasks/protocol changed); delete it or use "
                        "another tag"
                    )
                # Records are checkpointed as append-only segments (one
                # per completed block) so each save pickles O(block), not
                # the whole history; the head holds counters + metrics.
                segments = head["segments"]
                engine_state = head["engine"]
                records = []
                for index in range(segments):
                    segment = store.load(_segment_key(tag, index))
                    if segment is None:
                        raise EvaluationError(
                            f"checkpoint {tag!r} is missing segment "
                            f"{index} of {segments}; delete the tag and "
                            "restart the run"
                        )
                    records.extend(segment)
                engine_state["stages"][sink.name] = records
                graph.restore_state(engine_state)
                done = graph.items_in
                obs.count("checkpoint.resume_skipped", done)
        if on_progress is not None:
            total = self.total_specs()
            passed_sofar = sum(1 for r in sink.records if r.passed)

            def _emit(new_records, collected):
                nonlocal passed_sofar
                passed_sofar += sum(1 for r in new_records if r.passed)
                on_progress(
                    PlanProgress(
                        done=collected, total=total, passed=passed_sofar
                    )
                )

            sink.on_records = _emit
            if sink.records:  # a resumed run reports its restored floor
                on_progress(
                    PlanProgress(
                        done=len(sink.records),
                        total=total,
                        passed=passed_sofar,
                    )
                )
        stream: Iterator[SampleRecord] = self.specs()
        if done:
            stream = islice(stream, done, None)
        if store is None:
            graph.ingest(stream)
        else:
            for block in iter_chunks(stream, checkpoint_every):
                collected = len(sink.records)
                graph.ingest(block)
                # Segment first, then the head that references it: a
                # crash between the two leaves an orphan segment the old
                # head ignores, never a head pointing at missing data.
                store.save(
                    _segment_key(tag, segments), sink.records[collected:]
                )
                segments += 1
                engine_state = graph.checkpoint_state(exclude=(sink.name,))
                store.save(
                    tag,
                    {
                        "fingerprint": fingerprint,
                        "engine": engine_state,
                        "segments": segments,
                    },
                )
        if graph.items_in != self.total_specs():
            raise EvaluationError(
                f"plan consumed {graph.items_in} specs, expected "
                f"{self.total_specs()} — corrupt checkpoint?"
            )
        return self._collect(graph)

    def _collect(self, graph: StageGraph) -> RunResult:
        sink = graph.stages[-1]
        assert isinstance(sink, AggregateStage)
        records = list(sink.records)
        grouped = {}
        for record in records:
            key = (record.model_name, record.task_id)
            grouped.setdefault(key, []).append(record)
        run = RunResult(
            model_names=[m.name for m in self.models],
            task_ids=[t.task_id for t in self.tasks],
            records=records,
            engine_report=graph.to_text(),
            stage_stats=graph.stage_stats(),
        )
        for model in self.models:
            for task in self.tasks:
                result = task.aggregate(
                    model.name, grouped.get((model.name, task.task_id), [])
                )
                run.results[(model.name, task.task_id)] = result
                run.aggregates.setdefault(model.name, {})[task.task_id] = (
                    task.result_json(result)
                )
        return run

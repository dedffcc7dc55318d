"""The streaming stage-graph runner.

A :class:`StageGraph` pushes items through an ordered list of stages in
fixed-size chunks, so no intermediate stage ever materializes the whole
corpus.  Consecutive parallel-safe stages are fused and dispatched
through the executor (a no-op fusion under :class:`SerialExecutor`);
stateful stages run inline, in stream order, and keep their state across
:meth:`ingest` calls — which is what makes incremental re-curation
possible without reprocessing history.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.checkpoint import CheckpointStore
from repro.engine.executor import SerialExecutor, StageStat
from repro.engine.stage import Stage, StageMetrics

DEFAULT_CHUNK_SIZE = 512


def iter_chunks(items: Iterable[Any], size: int) -> Iterator[List[Any]]:
    """Slice any iterable into lists of at most ``size`` items."""
    chunk: List[Any] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class StageGraph:
    """Runs a linear pipeline of stages over chunked item streams.

    ``executor`` is an executor instance (a :class:`ParallelExecutor`
    the caller owns and closes) or None for :class:`SerialExecutor`.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        executor=None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages: List[Stage] = list(stages)
        self.chunk_size = chunk_size
        self.executor = executor or SerialExecutor()
        self.metrics: List[StageMetrics] = [
            StageMetrics(stage.name) for stage in self.stages
        ]
        self._metrics_by_name = {m.name: m for m in self.metrics}
        #: total items fed through :meth:`run`/:meth:`ingest` so far
        self.items_in = 0

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Clear stage state and metrics for a fresh full run."""
        for stage in self.stages:
            stage.reset()
        for metric in self.metrics:
            metric.reset()
        self.items_in = 0

    def run(self, items: Iterable[Any]) -> List[Any]:
        """Full run: reset all state, then stream ``items`` through."""
        self.reset()
        return self.ingest(items)

    def ingest(self, items: Iterable[Any]) -> List[Any]:
        """Stream an (additional) batch through without resetting state.

        Stateful stages continue from where the previous batch left off,
        so feeding batches B1, B2 produces exactly the items a single run
        over B1+B2 would keep.
        Returns the items of this batch that survive every stage.
        """
        stream: Iterator[List[Any]] = self._counting_chunks(items)
        for parallel, group in self._phases():
            if parallel:
                stream = self._pooled_phase(group, stream)
            else:
                stream = self._inline_phase(group[0], stream)
        out: List[Any] = []
        for chunk in stream:
            out.extend(chunk)
        return out

    # -- internals --------------------------------------------------------

    def _counting_chunks(self, items: Iterable[Any]) -> Iterator[List[Any]]:
        for chunk in iter_chunks(items, self.chunk_size):
            self.items_in += len(chunk)
            yield chunk

    def _phases(self) -> List[Tuple[bool, List[Stage]]]:
        """Group consecutive parallel-safe stages into fused phases."""
        phases: List[Tuple[bool, List[Stage]]] = []
        for stage in self.stages:
            if (
                stage.parallel_safe
                and phases
                and phases[-1][0]
            ):
                phases[-1][1].append(stage)
            else:
                phases.append((stage.parallel_safe, [stage]))
        return phases

    def _pooled_phase(
        self, stages: List[Stage], stream: Iterator[List[Any]]
    ) -> Iterator[List[Any]]:
        for out_chunk, trace in self.executor.map_chunks(stages, stream):
            for stat in trace.stats:
                self._metrics_by_name[stat.stage].record_chunk(
                    stat.n_in, stat.n_out, stat.seconds
                )
            # A pool worker's spans/metrics fold into the run trace here,
            # in submission order: pooled traces end up as complete (and
            # as deterministic) as serial ones, whose chunks recorded in
            # place (``trace.obs`` is None).
            obs.merge_buffer(trace.obs)
            yield out_chunk

    def _inline_phase(
        self, stage: Stage, stream: Iterator[List[Any]]
    ) -> Iterator[List[Any]]:
        metric = self._metrics_by_name[stage.name]
        for chunk in stream:
            with obs.span(
                f"engine.stage.{stage.name}", n_in=len(chunk), inline=True
            ) as sp:
                start = time.perf_counter()
                out = stage.process(chunk)
                seconds = time.perf_counter() - start
                sp.set(n_out=len(out))
            metric.record_chunk(len(chunk), len(out), seconds)
            yield out

    # -- introspection ----------------------------------------------------

    def metric(self, name: str) -> Optional[StageMetrics]:
        return self._metrics_by_name.get(name)

    def stage_stats(self) -> List[StageStat]:
        """Aggregate per-stage accounting as typed :class:`StageStat` rows."""
        return [
            StageStat(m.name, m.in_count, m.out_count, m.wall_seconds)
            for m in self.metrics
        ]

    def to_text(self) -> str:
        """Human-readable per-stage throughput table."""
        return "\n".join(m.to_text() for m in self.metrics)

    # -- checkpointing ----------------------------------------------------

    def checkpoint_state(self, exclude: Sequence[str] = ()) -> dict:
        """Picklable snapshot: progress counters, metrics, stage state.

        Callers holding extra state of their own should embed this dict
        in a single :meth:`CheckpointStore.save` so the whole snapshot
        stays atomic.  Stages named in ``exclude`` snapshot as None —
        for callers that persist that state through their own channel
        (e.g. append-only record segments) and would otherwise pay for a
        full copy per checkpoint.
        """
        return {
            "items_in": self.items_in,
            "metrics": [
                (m.name, m.in_count, m.out_count, m.wall_seconds, m.chunks)
                for m in self.metrics
            ],
            "stages": {
                stage.name: (
                    None if stage.name in exclude else stage.state_dict()
                )
                for stage in self.stages
            },
        }

    def save_checkpoint(self, store: CheckpointStore, tag: str = "engine") -> None:
        """Persist :meth:`checkpoint_state` under ``tag``."""
        store.save(tag, self.checkpoint_state())

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`checkpoint_state`.

        Raises :class:`ValueError` when the snapshot's stage set differs
        from this graph's — a half-restored graph (some stages fresh,
        some resumed) would silently produce wrong results.
        """
        snapshot_stages = set(state["stages"])
        graph_stages = {stage.name for stage in self.stages}
        if snapshot_stages != graph_stages:
            raise ValueError(
                "checkpoint stage set does not match graph: snapshot has "
                f"{sorted(snapshot_stages)}, graph has {sorted(graph_stages)}"
            )
        self.items_in = state["items_in"]
        for name, in_count, out_count, wall_seconds, chunks in state["metrics"]:
            metric = self._metrics_by_name.get(name)
            if metric is None:
                continue
            metric.in_count = in_count
            metric.out_count = out_count
            metric.wall_seconds = wall_seconds
            metric.chunks = chunks
        for stage in self.stages:
            if stage.name in state["stages"]:
                stage.load_state(state["stages"][stage.name])

    def load_checkpoint(self, store: CheckpointStore, tag: str = "engine") -> bool:
        """Restore a snapshot saved by :meth:`save_checkpoint`.

        Returns False (leaving the graph untouched) when no snapshot with
        ``tag`` exists.
        """
        state = store.load(tag)
        if state is None:
            return False
        self.restore_state(state)
        return True

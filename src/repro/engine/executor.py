"""Chunk executors: serial in-process and order-preserving process-pool.

The graph hands an executor a *fused run* of parallel-safe stages plus a
stream of chunks; the executor yields, **in submission order**, one
``(out_chunk, trace)`` pair per input chunk, where ``trace`` is a
:class:`ChunkTrace`: one typed :class:`StageStat` per stage measured
where the work actually ran.  :class:`SerialExecutor` runs each chunk in
place, so its spans and metrics land in the caller's obs frame as they
are recorded.  A :class:`ParallelExecutor` worker records into a frame
of its own and ships the drained :class:`~repro.obs.ObsBuffer` home on
the trace; order preservation is what lets the pooled path stay
byte-identical to the serial one, and what makes trace merging
deterministic: the coordinator folds each chunk's buffer into the run
trace in submission order, so a pooled trace carries exactly the spans
a serial run would, re-parented under the dispatching phase.

An executor is an instance or None (serial); whoever wants a pool
constructs a :class:`ParallelExecutor` and owns its lifetime.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import TransientError
from repro.testing import faults


class WorkerDiedError(TransientError):
    """A worker died and the chunk's requeue budget ran out.

    Raised by :class:`ParallelExecutor` in place of a bare
    ``BrokenProcessPool`` traceback, naming the chunk
    index and the fused stage run so the failure reads as *"chunk 12 of
    [eval_generate -> eval_check] failed twice"*, with the chunk having
    been requeued once before the run gave up.
    """

    def __init__(
        self,
        chunk_index: int,
        stage: str,
        attempts: int = 1,
        detail: str = "",
    ) -> None:
        self.chunk_index = chunk_index
        self.stage = stage
        self.attempts = attempts
        self.detail = detail
        message = (
            f"worker died running chunk {chunk_index} of stage run "
            f"[{stage}] ({attempts} attempt(s))"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


@dataclass
class StageStat:
    """One stage's accounting for one chunk (or one aggregated run).

    Replaces the untyped ``(stage_name, n_in, n_out, seconds)`` tuples
    the executors used to emit.
    """

    stage: str
    n_in: int
    n_out: int
    seconds: float

    @property
    def removed(self) -> int:
        return self.n_in - self.n_out


@dataclass
class ChunkTrace:
    """Everything one chunk's execution reported back."""

    stats: List[StageStat] = field(default_factory=list)
    #: spans/metrics a pool worker recorded while the chunk ran (None
    #: when nothing was, and always on the serial path, which records
    #: into the caller's frame)
    obs: Optional[obs.ObsBuffer] = None


ChunkResult = Tuple[List[Any], ChunkTrace]

#: per-worker-process cache of deserialized fused stage lists, so the
#: same stages are unpickled once per worker instead of once per chunk
_WORKER_STAGE_CACHE: Dict[bytes, List] = {}


def _apply_pickled_stages(
    stage_blob: bytes, chunk: Sequence[Any], obs_mode: str = "off"
) -> ChunkResult:
    obs.ensure_mode(obs_mode)
    # The pool-worker fault point: an armed ``exit`` here is the
    # deterministic replacement for the old poison-stage os._exit races
    # (the parent sees BrokenProcessPool and requeues the chunk once).
    faults.fire("pool.chunk")
    stages = _WORKER_STAGE_CACHE.get(stage_blob)
    if stages is None:
        if len(_WORKER_STAGE_CACHE) > 8:
            _WORKER_STAGE_CACHE.clear()
        stages = pickle.loads(stage_blob)
        _WORKER_STAGE_CACHE[stage_blob] = stages
    # Everything the chunk records goes into a fresh frame that travels
    # home on the trace: that is what keeps pool-worker traces lossless.
    obs.push_frame()
    try:
        out, trace = apply_stages(stages, chunk)
    finally:
        buffer = obs.pop_frame()
    trace.obs = buffer
    return out, trace


def apply_stages(stages: Sequence, chunk: Sequence[Any]) -> ChunkResult:
    """Run ``chunk`` through ``stages`` sequentially, timing each stage.

    The chunk/stage spans opened here, and anything the stages
    themselves record, go to the current obs frame.
    """
    out: List[Any] = list(chunk)
    stats: List[StageStat] = []
    with obs.span("engine.chunk", n_in=len(out), stages=len(stages)):
        for stage in stages:
            n_in = len(out)
            with obs.span(f"engine.stage.{stage.name}", n_in=n_in) as sp:
                start = time.perf_counter()
                out = stage.process(out)
                seconds = time.perf_counter() - start
                sp.set(n_out=len(out))
            stats.append(StageStat(stage.name, n_in, len(out), seconds))
    return out, ChunkTrace(stats=stats)


class SerialExecutor:
    """Runs every chunk inline in the driving process, recording into
    the caller's obs frame."""

    workers = 1

    def map_chunks(
        self, stages: Sequence, chunks: Iterable[Sequence[Any]]
    ) -> Iterator[ChunkResult]:
        for chunk in chunks:
            yield apply_stages(stages, chunk)

    def close(self) -> None:
        """Nothing to release."""


class ParallelExecutor:
    """Fans chunks across a process pool with an order-preserving merge.

    A bounded window of in-flight futures keeps memory flat on long
    streams; results are yielded strictly in submission order regardless
    of completion order, so downstream stages observe the same stream the
    serial executor would produce.
    """

    #: attempts per chunk before a broken pool is a typed failure: one
    #: rebuild+resubmit, no backoff (the pool restart is the delay)
    MAX_ATTEMPTS = 2

    def __init__(self, workers: int = 0, window: int = 0) -> None:
        self.workers = workers if workers > 0 else (os.cpu_count() or 1)
        self.window = window if window > 0 else 2 * self.workers
        self._pool = None
        #: last fused-stage list and its pickle, so checkpointed runs
        #: (one map_chunks call per block) serialize heavy stage payloads
        #: once per run instead of once per block; holding the stage
        #: references keeps the identity comparison sound
        self._blob_stages: list = []
        self._blob: bytes = b""

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def map_chunks(
        self, stages: Sequence, chunks: Iterable[Sequence[Any]]
    ) -> Iterator[ChunkResult]:
        pool = self._ensure_pool()
        # Serialize the fused stage list once per phase (reused across
        # calls while the same stage objects are passed); workers cache
        # the deserialized stages, so per-chunk payloads are data only.
        stages = list(stages)
        if len(stages) != len(self._blob_stages) or any(
            a is not b for a, b in zip(stages, self._blob_stages)
        ):
            self._blob_stages = stages
            self._blob = pickle.dumps(stages, protocol=pickle.HIGHEST_PROTOCOL)
        stage_blob = self._blob
        # The mode travels with every chunk (cheap: one short string), so
        # workers under any pool start method — and workers forked before
        # a configure() call — record exactly what the coordinator wants.
        obs_mode = obs.mode()
        from concurrent.futures.process import BrokenProcessPool

        # Entries are mutable [future, chunk_index, chunk, attempts]; a
        # None future marks a chunk to (re)submit.  Every submit sits
        # under the one guard below: ``submit`` itself raises
        # ``BrokenProcessPool`` once the pool is flagged broken, and that
        # must spend the same requeue budget as a lost result.
        pending: deque = deque()
        iterator = iter(chunks)
        exhausted = False
        index = 0
        while True:
            try:
                for entry in pending:
                    if entry[0] is None:
                        entry[0] = pool.submit(
                            _apply_pickled_stages, stage_blob, entry[2],
                            obs_mode,
                        )
                while not exhausted and len(pending) < self.window:
                    try:
                        chunk = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    # joins the window first, so a raising submit
                    # leaves the chunk marked instead of losing it
                    pending.append([None, index, chunk, 0])
                    index += 1
                    pending[-1][0] = pool.submit(
                        _apply_pickled_stages, stage_blob, chunk, obs_mode
                    )
                if not pending:
                    return
                result = pending[0][0].result()
            except BrokenProcessPool:
                pool = self._requeue_pending(pending, stages)
                continue
            pending.popleft()
            yield result

    def _requeue_pending(self, pending: deque, stages: Sequence):
        """Rebuild a broken pool and mark its lost chunks for resubmit.

        The head chunk — the one the merge was blocked on — carries the
        attempt count; after :attr:`MAX_ATTEMPTS` (one requeue) a
        typed :class:`WorkerDiedError` names the chunk and the stage
        run instead of a bare ``BrokenProcessPool``.
        """
        head = pending[0]
        head[3] += 1
        stage_names = " -> ".join(s.name for s in stages)
        if head[3] >= self.MAX_ATTEMPTS:
            self._pool = None  # broken; nothing worth keeping
            raise WorkerDiedError(
                chunk_index=head[1],
                stage=stage_names,
                attempts=head[3],
                detail=(
                    f"the process pool broke {head[3]} times on this "
                    "chunk"
                ),
            )
        broken = self._pool
        self._pool = None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        obs.count("engine.pool.requeues")
        obs.event(
            "engine.pool.requeue", chunk=head[1], stages=stage_names
        )
        for entry in pending:
            future = entry[0]
            # a result that finished before the crash survives
            if (
                future is None
                or not future.done()
                or future.exception() is not None
            ):
                entry[0] = None
        return self._ensure_pool()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._blob_stages = []
        self._blob = b""

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self):
        # Checkpoints may pickle objects holding an executor; the pool
        # and the blob cache are process-local and rebuilt on demand.
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_blob_stages"] = []
        state["_blob"] = b""
        return state

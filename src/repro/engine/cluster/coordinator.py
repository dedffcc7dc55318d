"""The cluster coordinator: lease tracking, fault recovery, streaming.

:class:`ClusterExecutor` is a drop-in chunk executor (the same
``map_chunks`` contract as :class:`~repro.engine.SerialExecutor` and
:class:`~repro.engine.ParallelExecutor`) that shards pooled phases
across N worker *processes behind a socket*, speaking the typed
protocol of :mod:`repro.engine.cluster.protocol`.  What the extra layer
buys over the in-process pool:

* **Leases, not futures.**  Every dispatched chunk is a tracked lease;
  a worker death (connection EOF) or a heartbeat timeout requeues the
  worker's leases onto the survivors, bounded by ``max_requeues`` per
  chunk, after which the run fails with a typed
  :class:`~repro.engine.WorkerDiedError` naming the chunk and stages.
* **Fingerprint handshake.**  Each fused stage list is identified by
  :func:`~.protocol.plan_fingerprint`; a worker whose independently
  computed fingerprint disagrees (stale build, different simulator
  backend version) is rejected at handshake and the run continues on
  the honest workers (:class:`~.protocol.StaleWorkerError` only when
  none remain).
* **Shape-aware routing.**  Chunks whose items all share one
  ``(model, task, unit)`` coordinate — the pass@k candidates of one
  problem — are routed *sticky*: every chunk of the unit lands on the
  same worker, so that worker's in-memory golden artifacts and its
  ``sim.cache`` entries stay hot.
* **Live progress.**  Results stream back in submission order while
  later chunks are still running; ``progress()`` snapshots the run and
  ``cluster.*`` counters/gauges/spans land in the ambient
  :mod:`repro.obs` trace.

Coordinator loss is survived one layer up: runs checkpoint through
:class:`~repro.engine.CheckpointStore` (see ``EvalPlan.run``), whose
saves are fsync-atomic, so killing the *coordinator* process mid-run
and rerunning with the same store resumes from the last completed
block — asserted by the fault-injection suite in
``tests/test_cluster.py``.

Multiple ``map_chunks`` generators may be live at once (a graph with
several pooled phases runs them as a lazy chain), so all connection
traffic flows through one shared pump that routes results to the run
owning each lease.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Listener, wait as connection_wait
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.cluster.protocol import (
    PROTOCOL_VERSION,
    ChunkLease,
    ChunkResult,
    ClusterError,
    Heartbeat,
    Hello,
    PlanAck,
    PlanHandshake,
    Requeue,
    Shutdown,
    StaleWorkerError,
    decode,
    encode,
    plan_fingerprint,
)
from repro.engine.cluster.worker import DEFAULT_HEARTBEAT_S, cluster_worker_main
from repro.engine.executor import WorkerDiedError
from repro.engine.policy import Deadline, RetryPolicy, env_float, env_int
from repro.testing import faults

__all__ = [
    "ClusterExecutor",
    "ClusterProgress",
    "default_route_key",
]

_ENV_WORKERS = "REPRO_CLUSTER_WORKERS"
_ENV_HEARTBEAT = "REPRO_CLUSTER_HEARTBEAT_S"
_ENV_TIMEOUT = "REPRO_CLUSTER_TIMEOUT_S"
_ENV_MAX_RETRIES = "REPRO_CLUSTER_MAX_RETRIES"

#: how long to wait for Hello/PlanAck during handshakes
_HANDSHAKE_TIMEOUT_S = 30.0
#: multiplex tick; also bounds how stale a heartbeat check can be
_TICK_S = 0.02


def default_route_key(chunk: Sequence[Any]) -> Optional[Tuple]:
    """Sticky-routing key for a chunk, or None for any-worker dispatch.

    When every item in the chunk carries the same
    ``(model_name, task_id, unit_id)`` — the pass@k candidates of one
    problem — that coordinate is the key, so the whole pool (and any
    sibling chunk of the same unit) lands on one worker.  What that
    keeps hot is per problem, not per candidate: the golden artifacts
    (parse, elaboration, compiled code, recorded trace —
    ``harness._GOLDEN_CACHE``) and the checker's verdict memo, which a
    second worker would rebuild from scratch.
    """
    key = None
    for item in chunk:
        task_id = getattr(item, "task_id", None)
        unit_id = getattr(item, "unit_id", None)
        if task_id is None or unit_id is None:
            return None
        item_key = (getattr(item, "model_name", None), task_id, unit_id)
        if key is None:
            key = item_key
        elif item_key != key:
            return None
    return key


@dataclass
class ClusterProgress:
    """A live snapshot of one cluster executor's work so far."""

    chunks_done: int = 0
    items_out: int = 0
    requeues: int = 0
    worker_deaths: int = 0
    heartbeat_timeouts: int = 0
    workers_rejected: int = 0
    workers_alive: int = 0
    leases_inflight: int = 0


@dataclass
class _Lease:
    lease_id: int
    chunk_index: int
    items: List[Any]
    worker_id: int
    attempts: int


@dataclass
class _Worker:
    worker_id: int
    process: Any
    conn: Any
    last_seen: float
    alive: bool = True
    load: int = 0
    plan_acks: Dict[int, str] = field(default_factory=dict)


class _MapRun:
    """Per-``map_chunks``-invocation state (several may interleave)."""

    __slots__ = (
        "plan_id", "stage_names", "iterator", "exhausted",
        "queue", "inflight", "done", "next_pull", "next_yield",
    )

    def __init__(self, plan_id: int, stage_names: List[str],
                 iterator: Iterator[Sequence[Any]]) -> None:
        self.plan_id = plan_id
        self.stage_names = stage_names
        self.iterator = iterator
        self.exhausted = False
        #: chunks waiting for a worker: (index, items, attempts, key)
        self.queue: deque = deque()
        #: lease ids currently out for this run
        self.inflight: set = set()
        #: chunk_index -> (out_items, trace), completed but unyielded
        self.done: Dict[int, Tuple[List[Any], Any]] = {}
        self.next_pull = 0
        self.next_yield = 0

    def outstanding(self) -> int:
        return len(self.queue) + len(self.inflight) + len(self.done)

    def finished(self) -> bool:
        return self.exhausted and not self.outstanding()


class ClusterExecutor:
    """Coordinator for N socket-connected worker processes.

    Parameters mirror the environment surface (`REPRO_CLUSTER_*`):
    ``workers`` (worker process count), ``heartbeat_s`` (worker beat
    interval), ``timeout_s`` (silence after which a worker is declared
    dead; defaults to ``5 x heartbeat_s``), ``max_requeues`` (per-chunk
    requeue budget on worker death), ``window`` (chunks outstanding per
    pooled phase, default ``2 x workers``), ``lease_depth`` (leases one
    worker holds at once), ``route`` (chunk -> sticky key, default
    :func:`default_route_key`).

    ``worker_faults`` maps worker index to a fault-injection dict (see
    :func:`~repro.engine.cluster.worker.cluster_worker_main`) — the
    deterministic kill/hang/stale-build switchboard the fault tests and
    the CI smoke example use.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        heartbeat_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        max_requeues: Optional[int] = None,
        window: int = 0,
        lease_depth: int = 2,
        route: Optional[Callable[[Sequence[Any]], Optional[Tuple]]] = None,
        worker_faults: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        # Environment knobs go through the validated helpers: a bad
        # REPRO_CLUSTER_* value raises ConfigError naming the variable
        # here, at construction, not as a ValueError mid-run.
        count = workers if workers else env_int(_ENV_WORKERS, 0, minimum=0)
        self.workers = count if count > 0 else (os.cpu_count() or 1)
        self.heartbeat_s = (
            heartbeat_s
            if heartbeat_s is not None
            else env_float(_ENV_HEARTBEAT, DEFAULT_HEARTBEAT_S,
                           minimum=0.01)
        )
        self.timeout_s = (
            timeout_s
            if timeout_s is not None
            else env_float(_ENV_TIMEOUT, 5.0 * self.heartbeat_s,
                           minimum=0.01)
        )
        self.max_requeues = (
            max_requeues
            if max_requeues is not None
            else env_int(_ENV_MAX_RETRIES, 2, minimum=0)
        )
        #: one shared retry implementation decides the requeue budget
        #: (max_requeues requeues = max_requeues + 1 total attempts)
        self.retry = RetryPolicy(
            max_attempts=self.max_requeues + 1,
            base_delay_s=0.0,
            jitter=0.0,
        )
        self.window = window if window > 0 else 2 * self.workers
        self.lease_depth = max(1, lease_depth)
        self.route = route if route is not None else default_route_key
        self.worker_faults = dict(worker_faults or {})
        #: (chunk_index, route_key, worker_id) per lease, in lease order —
        #: the routing audit trail the tests and reports read
        self.lease_log: List[Tuple[int, Optional[Tuple], int]] = []
        self._stats = ClusterProgress()
        self._listener = None
        self._workers: Dict[int, _Worker] = {}
        self._leases: Dict[int, Tuple[_MapRun, _Lease]] = {}
        self._runs: List[_MapRun] = []
        self._plans: Dict[bytes, Tuple[int, str]] = {}
        self._lease_seq = itertools.count(1)
        self._plan_seq = itertools.count(1)
        self._sticky: Dict[Tuple, int] = {}
        self._started = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn workers and complete the Hello handshake with each."""
        if self._started:
            return
        self._started = True
        authkey = os.urandom(16)
        with obs.span("cluster.start", workers=self.workers):
            self._listener = Listener(("127.0.0.1", 0), authkey=authkey)
            self._set_accept_timeout(_HANDSHAKE_TIMEOUT_S)
            ctx = get_context(
                "fork" if "fork" in get_all_start_methods() else None
            )
            procs = []
            for index in range(self.workers):
                process = ctx.Process(
                    target=cluster_worker_main,
                    kwargs={
                        "address": self._listener.address,
                        "authkey": authkey,
                        "worker_id": index,
                        "heartbeat_s": self.heartbeat_s,
                        "fault": self.worker_faults.get(index),
                    },
                    name=f"repro-cluster-worker-{index}",
                    daemon=True,
                )
                process.start()
                procs.append(process)
            for _ in range(self.workers):
                try:
                    conn = self._listener.accept()
                except Exception as exc:
                    raise ClusterError(
                        f"worker failed to connect: {exc}"
                    ) from exc
                if not conn.poll(_HANDSHAKE_TIMEOUT_S):
                    conn.close()
                    continue
                message = decode(conn.recv_bytes())
                if (
                    not isinstance(message, Hello)
                    or message.protocol != PROTOCOL_VERSION
                ):
                    conn.send_bytes(
                        encode(Shutdown(reason="protocol mismatch"))
                    )
                    conn.close()
                    self._stats.workers_rejected += 1
                    obs.count("cluster.workers_rejected")
                    continue
                self._workers[message.worker_id] = _Worker(
                    worker_id=message.worker_id,
                    process=procs[message.worker_id],
                    conn=conn,
                    last_seen=time.monotonic(),
                )
        if not self._workers:
            raise ClusterError("no cluster workers completed the handshake")
        self._update_gauges()

    def _set_accept_timeout(self, seconds: float) -> None:
        # Listener has no public accept timeout; best-effort on the
        # underlying socket so a worker that dies pre-connect fails the
        # run instead of hanging it.
        try:
            self._listener._listener._socket.settimeout(seconds)
        except AttributeError:
            pass

    def close(self) -> None:
        """Shut every worker down and release the listener."""
        for worker in self._workers.values():
            if worker.alive:
                try:
                    worker.conn.send_bytes(encode(Shutdown(reason="close")))
                except (OSError, ValueError):
                    pass
        deadline = Deadline(5.0)
        for worker in self._workers.values():
            worker.process.join(deadline.remaining())
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.alive = False
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._workers.clear()
        self._leases.clear()
        self._runs.clear()
        self._plans.clear()
        self._sticky.clear()
        self._started = False

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self):
        # Checkpoints may pickle objects holding an executor; every
        # runtime handle is process-local and rebuilt on demand.
        state = self.__dict__.copy()
        for key in ("_listener", "_workers", "_leases", "_runs", "_plans",
                    "_sticky", "lease_log"):
            state[key] = type(state[key])()
        state["_started"] = False
        return state

    # -- introspection ----------------------------------------------------

    def progress(self) -> ClusterProgress:
        """A copy of the live counters (safe to hold across chunks)."""
        snap = ClusterProgress(**self._stats.__dict__)
        snap.workers_alive = sum(
            1 for w in self._workers.values() if w.alive
        )
        snap.leases_inflight = len(self._leases)
        return snap

    # -- the executor contract --------------------------------------------

    def map_chunks(
        self, stages: Sequence[Any], chunks: Iterable[Sequence[Any]]
    ) -> Iterator[Tuple[List[Any], Any]]:
        """Yield ``(out_chunk, trace)`` in submission order, clustered."""
        self.start()
        stages = list(stages)
        plan_id = self._handshake_plan(stages)
        run = _MapRun(plan_id, [s.name for s in stages], iter(chunks))
        self._runs.append(run)
        try:
            while not run.finished():
                self._pull(run)
                self._dispatch()
                self._pump(_TICK_S)
                self._reap_timeouts()
                self._check_liveness(run)
                while run.next_yield in run.done:
                    out, trace = run.done.pop(run.next_yield)
                    run.next_yield += 1
                    self._stats.chunks_done += 1
                    self._stats.items_out += len(out)
                    obs.count("cluster.chunks_done")
                    obs.count("cluster.items_out", len(out))
                    yield out, trace
        finally:
            self._retire_run(run)

    # -- plan handshake ---------------------------------------------------

    def _handshake_plan(self, stages: List[Any]) -> int:
        blob = pickle.dumps(stages, protocol=pickle.HIGHEST_PROTOCOL)
        cached = self._plans.get(blob)
        if cached is not None:
            return cached[0]
        plan_id = next(self._plan_seq)
        expected = plan_fingerprint(stages, blob)
        handshake = PlanHandshake(
            plan_id=plan_id,
            fingerprint=expected,
            stage_blob=blob,
            obs_mode=obs.mode(),
            obs_dir=obs.obs_dir(),
        )
        with obs.span(
            "cluster.handshake", plan=plan_id, stages=len(stages)
        ) as sp:
            for worker in self._alive_workers():
                self._send(worker, handshake)
            rejected = 0
            for worker in self._alive_workers():
                ack = self._await_plan_ack(worker, plan_id)
                if ack is None:
                    continue  # died during handshake; handled as death
                if ack != expected:
                    self._reject_worker(
                        worker,
                        f"stale plan fingerprint: worker computed {ack}, "
                        f"coordinator expects {expected}",
                    )
                    rejected += 1
            sp.set(rejected=rejected)
        if not self._alive_workers():
            raise StaleWorkerError(
                "every cluster worker was rejected at the plan-fingerprint "
                "handshake (stale build or mismatched backend version)"
            )
        self._plans[blob] = (plan_id, expected)
        self._update_gauges()
        return plan_id

    def _await_plan_ack(self, worker: _Worker, plan_id: int) -> Optional[str]:
        deadline = Deadline(_HANDSHAKE_TIMEOUT_S)
        while worker.alive and plan_id not in worker.plan_acks:
            if deadline.expired():
                self._on_worker_death(worker, "plan handshake timeout")
                return None
            self._pump(deadline.remaining(_TICK_S))
        return worker.plan_acks.get(plan_id)

    def _reject_worker(self, worker: _Worker, reason: str) -> None:
        self._stats.workers_rejected += 1
        obs.count("cluster.workers_rejected")
        obs.event("cluster.worker_rejected", worker=worker.worker_id,
                  reason=reason)
        try:
            self._send(worker, Shutdown(reason=reason))
        except ClusterError:
            return  # already counted as a death by _send
        worker.alive = False
        worker.process.join(1.0)
        if worker.process.is_alive():
            worker.process.terminate()
        self._requeue_worker_leases(worker)
        self._update_gauges()

    # -- dispatch and routing ---------------------------------------------

    def _pull(self, run: _MapRun) -> None:
        while not run.exhausted and run.outstanding() < self.window:
            try:
                chunk = next(run.iterator)
            except StopIteration:
                run.exhausted = True
                return
            key = self.route(chunk) if self.route else None
            run.queue.append((run.next_pull, list(chunk), 0, key))
            run.next_pull += 1

    def _target_for(self, key: Optional[Tuple]) -> Optional[_Worker]:
        alive = self._alive_workers()
        if not alive:
            return None
        if key is not None:
            worker_id = self._sticky.get(key)
            worker = self._workers.get(worker_id) if worker_id is not None else None
            if worker is not None and worker.alive:
                # Sticky chunks wait for their worker rather than spill
                # elsewhere — locality is the point of the key.
                return worker if worker.load < self.lease_depth else None
        candidates = [w for w in alive if w.load < self.lease_depth]
        if not candidates:
            return None
        worker = min(candidates, key=lambda w: (w.load, w.worker_id))
        if key is not None:
            self._sticky[key] = worker.worker_id
        return worker

    def _dispatch(self) -> None:
        for run in self._runs:
            undispatched: deque = deque()
            while run.queue:
                index, items, attempts, key = run.queue.popleft()
                worker = self._target_for(key)
                if worker is None:
                    undispatched.append((index, items, attempts, key))
                    continue
                lease = _Lease(
                    lease_id=next(self._lease_seq),
                    chunk_index=index,
                    items=items,
                    worker_id=worker.worker_id,
                    attempts=attempts,
                )
                self._leases[lease.lease_id] = (run, lease)
                run.inflight.add(lease.lease_id)
                worker.load += 1
                self.lease_log.append((index, key, worker.worker_id))
                obs.count("cluster.leases")
                try:
                    self._send(
                        worker,
                        ChunkLease(
                            lease_id=lease.lease_id,
                            plan_id=run.plan_id,
                            chunk_index=index,
                            items=items,
                        ),
                    )
                except ClusterError:
                    pass  # death handler already requeued the lease
            run.queue = undispatched

    # -- the shared message pump ------------------------------------------

    def _send(self, worker: _Worker, message: Any) -> None:
        try:
            # An armed "raise" here simulates a connection lost at send
            # time; the handler below treats it exactly like an OSError.
            faults.fire("cluster.send")
            worker.conn.send_bytes(encode(message))
        except (OSError, ValueError, faults.InjectedFault) as exc:
            self._on_worker_death(worker, f"send failed: {exc}")
            raise ClusterError(
                f"worker {worker.worker_id} connection lost"
            ) from exc

    def _pump(self, timeout: float) -> None:
        """Drain every readable connection, routing messages by type."""
        conns = {
            w.conn: w for w in self._workers.values() if w.alive
        }
        if not conns:
            time.sleep(timeout)
            return
        for conn in connection_wait(list(conns), timeout=timeout):
            worker = conns[conn]
            while worker.alive:
                try:
                    if not conn.poll(0):
                        break
                    faults.fire("cluster.recv")
                    message = decode(conn.recv_bytes())
                except (EOFError, OSError, faults.InjectedFault):
                    self._on_worker_death(worker, "connection closed")
                    break
                worker.last_seen = time.monotonic()
                self._handle_message(worker, message)

    def _handle_message(self, worker: _Worker, message: Any) -> None:
        if isinstance(message, Heartbeat):
            return
        if isinstance(message, ChunkResult):
            entry = self._leases.pop(message.lease_id, None)
            if entry is None:
                obs.count("cluster.orphan_results")
                return
            run, lease = entry
            run.inflight.discard(lease.lease_id)
            worker.load = max(0, worker.load - 1)
            run.done[message.chunk_index] = (message.items, message.trace)
            return
        if isinstance(message, PlanAck):
            worker.plan_acks[message.plan_id] = message.fingerprint
            return
        if isinstance(message, Requeue):
            entry = self._leases.pop(message.lease_id, None)
            if entry is None:
                return
            run, lease = entry
            run.inflight.discard(lease.lease_id)
            worker.load = max(0, worker.load - 1)
            self._requeue_chunk(run, lease, message.reason or "handed back")
            return
        # Hello after start, or anything else: tolerated, never fatal.

    # -- fault recovery ---------------------------------------------------

    def _requeue_chunk(self, run: _MapRun, lease: _Lease, reason: str) -> None:
        attempts = lease.attempts + 1
        if not self.retry.grant(attempts):
            raise WorkerDiedError(
                chunk_index=lease.chunk_index,
                stage=" -> ".join(run.stage_names),
                attempts=attempts,
                detail=reason,
            )
        self._stats.requeues += 1
        obs.count("cluster.requeues")
        obs.event(
            "cluster.requeue",
            chunk=lease.chunk_index,
            attempts=attempts,
            reason=reason,
        )
        key = self.route(lease.items) if self.route else None
        run.queue.appendleft((lease.chunk_index, lease.items, attempts, key))

    def _requeue_worker_leases(self, worker: _Worker) -> None:
        lost = sorted(
            (
                (run, lease)
                for run, lease in self._leases.values()
                if lease.worker_id == worker.worker_id
            ),
            key=lambda entry: entry[1].chunk_index,
            reverse=True,  # appendleft keeps ascending order up front
        )
        for run, lease in lost:
            del self._leases[lease.lease_id]
            run.inflight.discard(lease.lease_id)
            self._requeue_chunk(
                run, lease, f"worker {worker.worker_id} lost"
            )
        # The dead worker's sticky keys migrate on next dispatch.
        for key, worker_id in list(self._sticky.items()):
            if worker_id == worker.worker_id:
                del self._sticky[key]
        worker.load = 0

    def _on_worker_death(self, worker: _Worker, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        self._stats.worker_deaths += 1
        obs.count("cluster.worker_deaths")
        obs.event(
            "cluster.worker_death", worker=worker.worker_id, reason=reason
        )
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        self._requeue_worker_leases(worker)
        self._update_gauges()

    def _reap_timeouts(self) -> None:
        now = time.monotonic()
        for worker in self._alive_workers():
            if now - worker.last_seen > self.timeout_s:
                self._stats.heartbeat_timeouts += 1
                obs.count("cluster.heartbeat_timeouts")
                self._on_worker_death(
                    worker,
                    f"heartbeat timeout ({self.timeout_s:.1f}s silent)",
                )

    def _check_liveness(self, run: _MapRun) -> None:
        if self._alive_workers():
            return
        if run.outstanding() or not run.exhausted:
            raise ClusterError(
                "every cluster worker died with work outstanding "
                f"(chunks {run.next_yield}.. of run plan={run.plan_id})"
            )

    # -- internals --------------------------------------------------------

    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def _update_gauges(self) -> None:
        obs.gauge("cluster.workers_alive", len(self._alive_workers()))

    def _retire_run(self, run: _MapRun) -> None:
        if run in self._runs:
            self._runs.remove(run)
        for lease_id in list(run.inflight):
            entry = self._leases.pop(lease_id, None)
            if entry is None:
                continue
            worker = self._workers.get(entry[1].worker_id)
            if worker is not None:
                worker.load = max(0, worker.load - 1)
        run.inflight.clear()

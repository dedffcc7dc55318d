"""Fault-injection suite for the cluster coordinator/worker subsystem.

Every recovery path the coordinator promises is driven deterministically
through the worker fault hooks (``die_on_lease``, ``hang_on_lease``,
``backend_version``): worker death mid-chunk, heartbeat-timeout
requeue, stale-fingerprint rejection at handshake, coordinator loss
resumed from checkpoint, and sticky per-unit routing — each
asserting the cluster run stays verdict-identical to a serial one,
candidate for candidate.  The local-pool analogue (``WorkerDiedError``
plus one requeue in :class:`ParallelExecutor`) is covered at the end;
hard worker/coordinator deaths are armed through
:mod:`repro.testing.faults` (``pool.chunk``, ``checkpoint.save``)
rather than bespoke ``os._exit`` stages.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass

import pytest

from repro.engine import (
    CheckpointStore,
    ClusterExecutor,
    MapStage,
    ParallelExecutor,
    SerialExecutor,
    StaleWorkerError,
    WorkerDiedError,
    iter_chunks,
    make_executor,
)
from repro.engine.cluster import (
    PROTOCOL_VERSION,
    ChunkLease,
    Heartbeat,
    Hello,
    PlanHandshake,
    ProtocolError,
    Shutdown,
    decode,
    default_route_key,
    encode,
    plan_fingerprint,
)
from repro.evalkit import EvalPlan, PassAtKTask
from repro.llm import LanguageModel
from repro.testing import faults
from repro.vereval import EvalConfig, build_problem_set


class _DoubleStage(MapStage):
    name = "double"
    parallel_safe = True

    def map_item(self, item):
        return item * 2


@dataclass
class _Unit:
    model_name: str
    task_id: str
    unit_id: str
    value: int


class _UnitStage(MapStage):
    name = "unit"
    parallel_safe = True

    def map_item(self, item):
        return _Unit(item.model_name, item.task_id, item.unit_id,
                     item.value * 2)


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


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_every_message(self):
        messages = [
            Hello(worker_id=3, pid=77),
            PlanHandshake(plan_id=1, fingerprint="abc",
                          stage_blob=b"blob", obs_mode="trace",
                          obs_dir="/tmp/x"),
            ChunkLease(lease_id=9, plan_id=1, chunk_index=4,
                       items=[1, 2, 3]),
            Heartbeat(worker_id=3),
            Shutdown(reason="done"),
        ]
        for message in messages:
            assert decode(encode(message)) == message

    def test_version_mismatch_rejected(self):
        wire = pickle.loads(encode(Heartbeat(worker_id=0)))
        stale = pickle.dumps((PROTOCOL_VERSION + 1, wire[1], wire[2]))
        with pytest.raises(ProtocolError, match="version"):
            decode(stale)

    def test_unknown_type_rejected(self):
        bogus = pickle.dumps((PROTOCOL_VERSION, "not_a_message", {}))
        with pytest.raises(ProtocolError, match="unknown"):
            decode(bogus)

    def test_unknown_fields_rejected(self):
        bogus = pickle.dumps(
            (PROTOCOL_VERSION, "heartbeat",
             {"worker_id": 0, "extra": True})
        )
        with pytest.raises(ProtocolError, match="bad fields"):
            decode(bogus)

    def test_encode_rejects_non_messages(self):
        with pytest.raises(ProtocolError):
            encode({"type": "hello"})

    def test_fingerprint_covers_backend_version(self):
        stages = [_DoubleStage()]
        blob = pickle.dumps(stages)
        assert plan_fingerprint(stages, blob) == plan_fingerprint(
            stages, blob
        )
        assert plan_fingerprint(
            stages, blob, backend_version=-1
        ) != plan_fingerprint(stages, blob)
        assert plan_fingerprint(stages, b"other") != plan_fingerprint(
            stages, blob
        )


# -- routing ----------------------------------------------------------------


class TestRouting:
    def test_default_route_key(self):
        same = [_Unit("m", "t", "u0", i) for i in range(3)]
        mixed = same + [_Unit("m", "t", "u1", 9)]
        assert default_route_key(same) == ("m", "t", "u0")
        assert default_route_key(mixed) is None
        assert default_route_key([1, 2, 3]) is None
        assert default_route_key([]) is None

    def test_lockstep_groups_land_on_one_worker(self):
        # Two chunks per unit: every chunk of a unit must reuse the
        # worker its first chunk landed on (hot golden artifacts).
        items = [
            _Unit("m", "t", f"u{unit}", sample)
            for unit in range(6)
            for sample in range(8)
        ]
        chunks = list(iter_chunks(items, 4))
        serial = [
            out for out, _ in SerialExecutor().map_chunks(
                [_UnitStage()], chunks
            )
        ]
        with ClusterExecutor(workers=3, heartbeat_s=0.2) as executor:
            clustered = [
                out for out, _ in executor.map_chunks(
                    [_UnitStage()], chunks
                )
            ]
            log = list(executor.lease_log)
        assert clustered == serial
        workers_by_key = {}
        for _index, key, worker_id in log:
            assert key is not None
            workers_by_key.setdefault(key, set()).add(worker_id)
        assert len(workers_by_key) == 6
        for key, workers in workers_by_key.items():
            assert len(workers) == 1, (key, workers)
        # and the groups really spanned several leases each
        assert len(log) == len(chunks) == 12


# -- fault injection --------------------------------------------------------


class TestClusterFaults:
    def test_two_worker_run_matches_serial(self, plan, serial_run):
        with ClusterExecutor(workers=2, heartbeat_s=0.2) as executor:
            clustered = plan.run(executor=executor)
        assert _verdicts(clustered) == _verdicts(serial_run)
        counters = clustered.telemetry.counters
        assert counters.get("cluster.leases", 0) >= 2
        assert counters.get("cluster.chunks_done") == 4
        assert counters.get("cluster.items_out") == len(serial_run.records)

    def test_worker_killed_mid_chunk_requeues(self, plan, serial_run):
        executor = ClusterExecutor(
            workers=2, heartbeat_s=0.2, timeout_s=2.0,
            worker_faults={1: {"die_on_lease": 2}},
        )
        with executor:
            clustered = plan.run(executor=executor)
            progress = executor.progress()
        assert _verdicts(clustered) == _verdicts(serial_run)
        assert progress.worker_deaths == 1
        assert progress.requeues >= 1
        assert progress.workers_alive == 1

    def test_heartbeat_timeout_requeues(self, plan, serial_run):
        # The hung worker stops heartbeating but keeps its socket open:
        # only the timeout sweep can reclaim its leases.
        executor = ClusterExecutor(
            workers=2, heartbeat_s=0.1, timeout_s=0.5,
            worker_faults={0: {"hang_on_lease": 1}},
        )
        with executor:
            clustered = plan.run(executor=executor)
            progress = executor.progress()
        assert _verdicts(clustered) == _verdicts(serial_run)
        assert progress.heartbeat_timeouts == 1
        assert progress.requeues >= 1

    def test_stale_worker_rejected_at_handshake(self, plan, serial_run):
        executor = ClusterExecutor(
            workers=2, heartbeat_s=0.2,
            worker_faults={0: {"backend_version": -1}},
        )
        with executor:
            clustered = plan.run(executor=executor)
            progress = executor.progress()
        assert _verdicts(clustered) == _verdicts(serial_run)
        assert progress.workers_rejected == 1
        assert progress.worker_deaths == 0

    def test_all_workers_stale_raises(self):
        chunks = list(iter_chunks(range(8), 4))
        with pytest.raises(StaleWorkerError):
            with ClusterExecutor(
                workers=2, heartbeat_s=0.2,
                worker_faults={
                    0: {"backend_version": -1},
                    1: {"backend_version": -1},
                },
            ) as executor:
                list(executor.map_chunks([_DoubleStage()], chunks))

    def test_requeue_budget_exhausted_raises(self):
        # Both workers die on their first lease and the budget is zero:
        # the failure must name the chunk and the stage run, typed.
        chunks = list(iter_chunks(range(8), 4))
        with pytest.raises(WorkerDiedError, match=r"\[double\]"):
            with ClusterExecutor(
                workers=2, heartbeat_s=0.2, timeout_s=2.0,
                max_requeues=0,
                worker_faults={
                    0: {"die_on_lease": 1},
                    1: {"die_on_lease": 1},
                },
            ) as executor:
                list(executor.map_chunks([_DoubleStage()], chunks))


# -- coordinator loss + resume ----------------------------------------------


_RESUME_TAG = "cluster-resume"


def _resume_child_main(root: str) -> None:
    """Run the plan on a cluster, dying hard mid-run like a lost host.

    The death is an armed ``checkpoint.save`` fault, not a monkeypatched
    store: the 5th save (the third block's segment) hard-exits with
    :data:`faults.EXIT_CODE` *before* any bytes move, leaving saves 1-4
    (two complete segment+head pairs) on disk for the parent to resume.
    """
    os.environ["REPRO_CLUSTER_WORKERS"] = "2"
    os.environ[faults.ENV_VAR] = "checkpoint.save:exit:5"
    _make_plan().run(
        store=CheckpointStore(root), tag=_RESUME_TAG, checkpoint_every=4,
        executor="cluster",
    )
    os._exit(1)  # finishing means the kill never fired


class TestCoordinatorLossResume:
    def test_killed_coordinator_resumes_from_checkpoint(
        self, plan, serial_run, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "ckpt")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_resume_child_main, args=(root,))
        child.start()
        child.join(120)
        assert child.exitcode == faults.EXIT_CODE

        store = CheckpointStore(root)
        head = store.load(_RESUME_TAG)
        assert head is not None
        # 16 specs / checkpoint_every=4 would be 4 segments; the child
        # died mid-run, so the head references only a prefix.
        assert 0 < head["segments"] < 4

        monkeypatch.setenv("REPRO_CLUSTER_WORKERS", "2")
        resumed = plan.run(
            store=store, tag=_RESUME_TAG, checkpoint_every=4,
            executor="cluster",
        )
        assert _verdicts(resumed) == _verdicts(serial_run)
        assert store.load(_RESUME_TAG)["segments"] == 4

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


# -- the local-pool analogue ------------------------------------------------


class TestPoolWorkerDied:
    """Pool-worker death driven through the ``pool.chunk`` fault point.

    These used to ride on a stage that ``os._exit``-ed when it saw item
    13 — a crash wired to incidental data, racing over which worker drew
    which chunk.  The armed fault is explicit instead: forked pool
    workers inherit ``REPRO_FAULTS`` and count their own activations, so
    "one worker dies once" is the once-marker, and "every worker always
    dies" is ``nth=0``.
    """

    def test_transient_death_requeues_once(self, tmp_path, monkeypatch):
        marker = str(tmp_path / "died-once")
        monkeypatch.setenv(faults.ENV_VAR, f"pool.chunk:exit:1:{marker}")
        chunks = list(iter_chunks(range(20), 5))
        serial = [
            out for out, _ in SerialExecutor().map_chunks(
                [_DoubleStage()], chunks
            )
        ]
        with ParallelExecutor(workers=2) as executor:
            outputs = [
                out
                for out, _ in executor.map_chunks([_DoubleStage()], chunks)
            ]
        assert outputs == serial
        # the marker proves the injected death actually fired
        assert os.path.exists(marker)

    def test_persistent_death_raises_typed_error(self, monkeypatch):
        # nth=0, no marker: every worker dies on every chunk it touches,
        # so the retry budget (one requeue) runs dry on the first chunk.
        monkeypatch.setenv(faults.ENV_VAR, "pool.chunk:exit:0")
        chunks = list(iter_chunks(range(20), 5))
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(WorkerDiedError) as info:
                list(executor.map_chunks([_DoubleStage()], chunks))
        assert info.value.chunk_index == 0
        assert "double" in info.value.stage
        assert info.value.attempts == 2


class _StubPool:
    """Inline pool whose ``submit`` raises once it is flagged broken.

    ``ProcessPoolExecutor.submit`` raises ``BrokenProcessPool``
    synchronously after a worker death; with real processes whether the
    merge observes the break at ``submit`` or at ``result()`` is a race.
    ``break_at`` picks the submit call (1-based) that breaks this pool.
    """

    def __init__(self, break_at=None):
        self.break_at = break_at
        self.submits = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.submits += 1
        if self.break_at is not None and self.submits >= self.break_at:
            raise BrokenProcessPool("stub pool is broken")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSubmitOnBrokenPool:
    """A pool that breaks under ``submit`` spends the requeue budget."""

    @staticmethod
    def _executor(monkeypatch, pools):
        executor = ParallelExecutor(workers=2)
        pools = iter(pools)

        def ensure_pool():
            if executor._pool is None:
                executor._pool = next(pools)
            return executor._pool

        monkeypatch.setattr(executor, "_ensure_pool", ensure_pool)
        return executor

    def test_fill_submit_break_requeues(self, monkeypatch):
        chunks = list(iter_chunks(range(20), 5))
        serial = [
            out for out, _ in SerialExecutor().map_chunks(
                [_DoubleStage()], chunks
            )
        ]
        executor = self._executor(
            monkeypatch, [_StubPool(break_at=2), _StubPool()]
        )
        outputs = [
            out for out, _ in executor.map_chunks([_DoubleStage()], chunks)
        ]
        assert outputs == serial  # no chunk lost, order kept

    def test_resubmit_break_raises_typed_error(self, monkeypatch):
        # The first pool breaks while the window fills, the rebuilt one
        # breaks under the resubmit: the budget (one requeue) is spent
        # and the failure is typed, never a bare BrokenProcessPool.
        executor = self._executor(
            monkeypatch, [_StubPool(break_at=2), _StubPool(break_at=1)]
        )
        chunks = list(iter_chunks(range(20), 5))
        with pytest.raises(WorkerDiedError) as info:
            list(executor.map_chunks([_DoubleStage()], chunks))
        assert info.value.chunk_index == 0
        assert "double" in info.value.stage
        assert info.value.attempts == 2


# -- satellites -------------------------------------------------------------


class TestMakeExecutor:
    def test_specs_resolve(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("pool", workers=2)
        assert isinstance(pool, ParallelExecutor) and pool.workers == 2
        cluster = make_executor("cluster", workers=2)
        assert isinstance(cluster, ClusterExecutor)
        assert cluster.workers == 2  # not started: no processes yet

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("hyperdrive")


class TestCheckpointDurability:
    def test_save_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        store.save("alpha", {"x": 1})
        assert store.load("alpha") == {"x": 1}
        leftovers = [
            name for name in os.listdir(store.root)
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_failed_pickle_preserves_old_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        store.save("alpha", {"x": 1})
        with pytest.raises(Exception):
            store.save("alpha", lambda: None)  # unpicklable
        assert store.load("alpha") == {"x": 1}

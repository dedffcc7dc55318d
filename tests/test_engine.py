"""Tests for the streaming, parallel, checkpointable execution engine."""

import dataclasses
import os

import pytest

from repro.curation import (
    CopyrightFilter,
    CurationConfig,
    CurationPipeline,
    IncrementalCurator,
    LicenseFilter,
)
from repro.curation.report import FunnelReport
from repro.dedup import MinHasher, StreamingDeduplicator, deduplicate
from repro.engine import (
    CheckpointStore,
    DedupStage,
    FunctionFilterStage,
    MapStage,
    ParallelExecutor,
    SerialExecutor,
    StageGraph,
    StageMetrics,
    WorkerDiedError,
    build_stages,
    create_stage,
    iter_chunks,
    make_executor,
    registered_stages,
)
from repro.testing import faults
from repro.verilog import check_syntax


def _is_even(n):
    return n % 2 == 0


def _under_100(n):
    return n < 100


class TestChunking:
    def test_iter_chunks_sizes(self):
        chunks = list(iter_chunks(range(10), 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_iter_chunks_empty(self):
        assert list(iter_chunks([], 4)) == []

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            StageGraph([], chunk_size=0)


class TestRegistry:
    def test_curation_stages_registered(self):
        names = registered_stages()
        for expected in (
            "license_filter", "length_cap", "dedup",
            "copyright_filter", "syntax_check",
        ):
            assert expected in names

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            create_stage("no_such_stage")

    def test_build_stages_specs(self):
        stages = build_stages(
            ["copyright_filter", ("length_cap", {"max_chars": 10})]
        )
        assert [s.name for s in stages] == ["copyright_filter", "length_cap"]
        assert stages[1].max_chars == 10


class TestStageGraph:
    def test_metrics_accounting(self):
        graph = StageGraph(
            [
                FunctionFilterStage("evens", _is_even),
                FunctionFilterStage("small", _under_100),
            ],
            chunk_size=16,
        )
        out = graph.run(range(250))
        assert out == [n for n in range(250) if n % 2 == 0 and n < 100]
        evens, small = graph.metrics
        assert (evens.in_count, evens.out_count) == (250, 125)
        assert (small.in_count, small.out_count) == (125, 50)
        assert evens.chunks == 16  # ceil(250 / 16)
        assert evens.removal_fraction == 0.5
        assert graph.items_in == 250

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            StageGraph(
                [FunctionFilterStage("x", _is_even), FunctionFilterStage("x", _is_even)]
            )

    def test_run_resets_between_runs(self):
        graph = StageGraph([FunctionFilterStage("evens", _is_even)], chunk_size=8)
        graph.run(range(20))
        graph.run(range(20))
        assert graph.metrics[0].in_count == 20
        assert graph.items_in == 20

    def test_ingest_accumulates(self):
        graph = StageGraph([FunctionFilterStage("evens", _is_even)], chunk_size=8)
        first = graph.ingest(range(10))
        second = graph.ingest(range(10, 20))
        assert first + second == [n for n in range(20) if n % 2 == 0]
        assert graph.metrics[0].in_count == 20

    def test_to_text_mentions_stages(self):
        graph = StageGraph([FunctionFilterStage("evens", _is_even)])
        graph.run(range(10))
        assert "evens" in graph.to_text()


class TestParallelExecutor:
    def test_order_preserving_merge(self):
        stages = [FunctionFilterStage("evens", _is_even)]
        chunks = [list(range(i * 10, i * 10 + 10)) for i in range(12)]
        with ParallelExecutor(workers=2) as executor:
            results = [out for out, _ in executor.map_chunks(stages, iter(chunks))]
        serial = [out for out, _ in SerialExecutor().map_chunks(stages, chunks)]
        assert results == serial

    def test_graph_parallel_matches_serial(self):
        stages_fn = lambda: [
            FunctionFilterStage("evens", _is_even),
            FunctionFilterStage("small", _under_100),
        ]
        serial_out = StageGraph(stages_fn(), chunk_size=16).run(range(300))
        with ParallelExecutor(workers=2) as executor:
            parallel_graph = StageGraph(
                stages_fn(), chunk_size=16, executor=executor
            )
            parallel_out = parallel_graph.run(range(300))
        assert parallel_out == serial_out
        assert parallel_graph.metrics[0].in_count == 300

    def test_pipeline_parallel_output_identical(self, raw_files):
        sample = raw_files[:400]
        serial = CurationPipeline().run(sample)
        with ParallelExecutor(workers=2) as executor:
            parallel = CurationPipeline(chunk_size=64, executor=executor).run(sample)
        assert [f.file_id for f in serial.files] == [
            f.file_id for f in parallel.files
        ]


class _DoubleStage(MapStage):
    name = "double"
    parallel_safe = True

    def map_item(self, item):
        return item * 2


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


class TestMakeExecutor:
    def test_specs_resolve(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("pool", workers=2)
        assert isinstance(pool, ParallelExecutor) and pool.workers == 2

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert make_executor(executor) is executor

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("hyperdrive")


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("alpha", {"x": 1})
        assert store.load("alpha") == {"x": 1}
        assert "alpha" in store
        assert store.keys() == ["alpha"]

    def test_missing_returns_default(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("nope") is None
        assert store.load("nope", default=7) == 7

    def test_delete_and_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a", 1)
        store.save("b", 2)
        assert store.delete("a")
        assert not store.delete("a")
        store.clear()
        assert store.keys() == []

    def test_invalid_keys_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.save(bad, 1)

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", "old")
        store.save("k", "new")
        assert store.load("k") == "new"
        assert store.keys() == ["k"]


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


class TestGraphCheckpoint:
    def test_save_load_resume_equals_uninterrupted(self, raw_files, tmp_path):
        store = CheckpointStore(tmp_path)
        split = len(raw_files) // 2

        first = CurationPipeline().compile()
        first_out = first.ingest(raw_files[:split])
        first.save_checkpoint(store)

        resumed = CurationPipeline().compile()
        assert resumed.load_checkpoint(store)
        resumed_out = resumed.ingest(raw_files[split:])

        uninterrupted = CurationPipeline().compile()
        full_out = uninterrupted.run(raw_files)
        assert [f.file_id for f in first_out + resumed_out] == [
            f.file_id for f in full_out
        ]
        assert resumed.items_in == uninterrupted.items_in
        assert [
            (m.name, m.in_count, m.out_count) for m in resumed.metrics
        ] == [(m.name, m.in_count, m.out_count) for m in uninterrupted.metrics]

    def test_load_checkpoint_missing_is_noop(self, tmp_path):
        graph = CurationPipeline().compile()
        assert not graph.load_checkpoint(CheckpointStore(tmp_path))

    def test_in_memory_snapshot_supports_rollback(self, raw_files):
        graph = CurationPipeline().compile()
        first_out = graph.ingest(raw_files[:200])
        snapshot = graph.checkpoint_state()
        graph.ingest(raw_files[200:400])
        graph.restore_state(snapshot)
        # replaying the second batch after rollback matches a straight run
        replay_out = graph.ingest(raw_files[200:400])
        straight = CurationPipeline().compile()
        straight_out = straight.run(raw_files[:400])
        assert [f.file_id for f in first_out + replay_out] == [
            f.file_id for f in straight_out
        ]
        assert graph.items_in == straight.items_in

    def test_restore_rejects_mismatched_stage_set(self, raw_files, tmp_path):
        store = CheckpointStore(tmp_path)
        full = CurationPipeline().compile()
        full.ingest(raw_files[:50])
        full.save_checkpoint(store)
        slim = CurationPipeline(CurationConfig(dedup=False)).compile()
        with pytest.raises(ValueError):
            slim.load_checkpoint(store)

    def test_restored_dedup_stage_adopts_snapshot_params(self, raw_files):
        from repro.curation import CurationConfig as _Config

        source = CurationPipeline(
            _Config(dedup_threshold=0.7)
        ).compile()
        source.ingest(raw_files[:50])
        target = CurationPipeline(_Config(dedup_threshold=0.95)).compile()
        target.restore_state(source.checkpoint_state())
        dedup_stage = next(s for s in target.stages if s.name == "dedup")
        assert dedup_stage.threshold == 0.7
        assert dedup_stage.dedup.threshold == 0.7


class TestDedupStage:
    def test_batch_signatures_bit_identical(self, tiny_verilog_corpus):
        hasher = MinHasher()
        texts = tiny_verilog_corpus[:40] + ["", "   "]
        batched = hasher.signatures(texts)
        for text, signature in zip(texts, batched):
            assert (signature.values == hasher.signature(text).values).all()

    def test_stage_matches_deduplicate(self, raw_files):
        sample = raw_files[:500]
        reference = deduplicate([(f.file_id, f.content) for f in sample])
        stage = DedupStage()
        kept = []
        for start in range(0, len(sample), 128):
            kept.extend(stage.process(sample[start:start + 128]))
        assert [f.file_id for f in kept] == reference.kept_keys
        assert stage.dedup.result.removed == reference.removed

    def test_reset_clears_index(self, raw_files):
        stage = DedupStage()
        first = stage.process(raw_files[:50])
        stage.reset()
        again = stage.process(raw_files[:50])
        assert [f.file_id for f in first] == [f.file_id for f in again]

    def test_duplicate_file_ids_in_a_chunk(self, raw_files):
        first = raw_files[0]
        # the same file twice: the second copy duplicates the first
        assert DedupStage().process([first, first]) == [first]
        # one id on two texts that would both be kept: the index refuses
        unrelated = " ".join(f"wire unrelated_{i};" for i in range(40))
        second = dataclasses.replace(first, content=unrelated)
        with pytest.raises(KeyError):
            DedupStage().process([first, second])

    def test_offer_batch_matches_sequential(self, tiny_verilog_corpus):
        items = [(i, t) for i, t in enumerate(tiny_verilog_corpus[:60])]
        batched = StreamingDeduplicator()
        sequential = StreamingDeduplicator()
        kept_batch = batched.offer_batch(items)
        kept_seq = [k for k, t in items if sequential.offer(k, t)]
        assert kept_batch == kept_seq
        assert batched.result.removed == sequential.result.removed


class TestEnginePipelineEquivalence:
    """The facade must reproduce the seed loop bit-for-bit."""

    def _seed_serial(self, files, config):
        funnel = FunnelReport()
        current = list(files)
        funnel.record("extracted", len(current), len(current))
        if config.license_check:
            before = len(current)
            current = LicenseFilter(
                allow_unlicensed=config.allow_unlicensed
            ).apply(current)
            funnel.record("license_filter", before, len(current))
        if config.max_file_chars is not None:
            before = len(current)
            current = [
                f for f in current if len(f.content) <= config.max_file_chars
            ]
            funnel.record("length_cap", before, len(current))
        if config.dedup:
            before = len(current)
            result = deduplicate(
                [(f.file_id, f.content) for f in current],
                threshold=config.dedup_threshold,
                seed=config.seed,
            )
            kept = set(result.kept_keys)
            current = [f for f in current if f.file_id in kept]
            funnel.record("dedup", before, len(current))
        if config.copyright_check:
            before = len(current)
            current = CopyrightFilter().apply(current)
            funnel.record("copyright_filter", before, len(current))
        if config.syntax_check:
            before = len(current)
            current = [f for f in current if check_syntax(f.content).ok]
            funnel.record("syntax_check", before, len(current))
        return current, funnel

    @pytest.mark.parametrize(
        "config",
        [
            CurationConfig(),
            CurationConfig(max_file_chars=1500),
            CurationConfig(dedup=False, syntax_check=False),
            CurationConfig(license_check=False, allow_unlicensed=True),
        ],
        ids=["default", "length-cap", "no-dedup", "no-license"],
    )
    def test_identical_to_seed_loop(self, raw_files, config):
        expected_files, expected_funnel = self._seed_serial(raw_files, config)
        dataset = CurationPipeline(config, chunk_size=200).run(raw_files)
        assert [f.file_id for f in expected_files] == [
            f.file_id for f in dataset.files
        ]
        assert [f.content for f in expected_files] == [
            f.content for f in dataset.files
        ]
        assert [
            (s.name, s.in_count, s.out_count) for s in expected_funnel.stages
        ] == [(s.name, s.in_count, s.out_count) for s in dataset.funnel.stages]

    def test_accepts_plain_iterators(self, raw_files):
        sample = raw_files[:200]
        from_iter = CurationPipeline().run(iter(sample))
        from_list = CurationPipeline().run(sample)
        assert [f.file_id for f in from_iter.files] == [
            f.file_id for f in from_list.files
        ]
        assert from_iter.funnel.initial_count == len(sample)

    def test_zero_length_cap_keeps_only_empty_files(self, raw_files):
        config = CurationConfig(
            max_file_chars=0, dedup=False, syntax_check=False,
            copyright_check=False,
        )
        dataset = CurationPipeline(config).run(raw_files[:100])
        assert dataset.files == []
        assert dataset.funnel.stage("length_cap").out_count == 0

    def test_chunk_size_invariance(self, raw_files):
        small = CurationPipeline(chunk_size=64).run(raw_files)
        large = CurationPipeline(chunk_size=100_000).run(raw_files)
        assert [f.file_id for f in small.files] == [
            f.file_id for f in large.files
        ]
        assert [
            (s.name, s.in_count, s.out_count) for s in small.funnel.stages
        ] == [(s.name, s.in_count, s.out_count) for s in large.funnel.stages]


class TestIncrementalCurator:
    def test_batches_equal_full_run(self, raw_files):
        curator = IncrementalCurator()
        third = len(raw_files) // 3
        for start in range(0, len(raw_files), third):
            curator.ingest(raw_files[start:start + third])
        full = CurationPipeline().run(raw_files)
        assert [f.file_id for f in curator.kept_files] == [
            f.file_id for f in full.files
        ]
        assert [
            (s.name, s.in_count, s.out_count) for s in curator.funnel.stages
        ] == [(s.name, s.in_count, s.out_count) for s in full.funnel.stages]

    def test_dataset_snapshot(self, raw_files):
        curator = IncrementalCurator()
        curator.ingest(raw_files[:300])
        dataset = curator.dataset(name="inc")
        assert dataset.name == "inc"
        assert dataset.rows == len(curator.kept_files)
        assert dataset.funnel.initial_count == 300

    def test_save_and_resume(self, raw_files, tmp_path):
        store = CheckpointStore(tmp_path)
        split = len(raw_files) // 2

        original = IncrementalCurator()
        original.ingest(raw_files[:split])
        original.save(store)

        resumed = IncrementalCurator()
        assert resumed.load(store)
        resumed.ingest(raw_files[split:])

        full = CurationPipeline().run(raw_files)
        assert [f.file_id for f in resumed.kept_files] == [
            f.file_id for f in full.files
        ]
        assert resumed.batches_ingested == 2

    def test_load_missing_returns_false(self, tmp_path):
        assert not IncrementalCurator().load(CheckpointStore(tmp_path))

    def test_freeset_builder_incremental_curator(self, world):
        from repro.core.freeset import FreeSetBuilder

        builder = FreeSetBuilder(world=world)
        files, _ = builder.scrape()
        curator = builder.incremental_curator()
        curator.ingest(files)
        assert [f.file_id for f in curator.kept_files] == [
            f.file_id for f in builder.build().dataset.files
        ]


class TestStageMetrics:
    def test_throughput_and_reset(self):
        metric = StageMetrics("x")
        metric.record_chunk(100, 60, 0.5)
        metric.record_chunk(50, 40, 0.5)
        assert metric.in_count == 150
        assert metric.out_count == 100
        assert metric.removed == 50
        assert metric.items_per_second == pytest.approx(150.0)
        metric.reset()
        assert metric.in_count == 0
        assert metric.items_per_second == 0.0

"""repro.obs: spans, metrics, pool-merge identity, exporters, overhead.

The merge-identity tests run one small EvalPlan in trace mode under both
:class:`~repro.engine.SerialExecutor` and
:class:`~repro.engine.ParallelExecutor` and require the merged traces to
agree span for span — the acceptance criterion for process-pool-correct
observability.  The overhead guard bounds what ``REPRO_OBS=off``
instrumentation may add to a compiled-simulation workload.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.engine import ParallelExecutor, SerialExecutor
from repro.evalkit import EvalPlan, PassAtKTask
from repro.llm import LanguageModel
from repro.obs import export as obs_export
from repro.sim import cache as sim_cache
from repro.vereval import (
    EvalConfig,
    build_problem_set,
    check_candidates_lockstep,
)

TOOLS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


@pytest.fixture(autouse=True)
def obs_clean(tmp_path):
    """Fresh collector state, mode off, exports diverted to tmp."""
    previous = obs.configure(obs.MODE_OFF, str(tmp_path / "obs-out"))
    obs.reset()
    yield
    # "" (not None) so a previously-unset directory is truly unset again.
    obs.configure(previous[0], previous[1] or "")
    obs.reset()


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counters_accumulate(self):
        obs.count("x")
        obs.count("x", 4)
        obs.count("y", 2.5)
        assert obs.counter_value("x") == 5
        assert obs.counter_value("y") == 2.5
        assert obs.counter_value("missing") == 0

    def test_counters_prefix_filter(self):
        obs.count("sim.cache.hit", 3)
        obs.count("sim.cache.miss")
        obs.count("other.metric")
        assert obs.counters("sim.cache.") == {
            "sim.cache.hit": 3,
            "sim.cache.miss": 1,
        }

    def test_counters_sum_across_frames(self):
        obs.count("x", 1)
        obs.push_frame()
        obs.count("x", 2)
        assert obs.counter_value("x") == 3
        obs.pop_frame()
        assert obs.counter_value("x") == 1

    def test_gauge_last_write_wins(self):
        obs.gauge("g", 1.0)
        obs.gauge("g", 7.0)
        assert obs.snapshot().gauges["g"] == 7.0

    def test_metrics_recorded_even_when_off(self):
        assert obs.mode() == obs.MODE_OFF
        obs.count("always.on")
        assert obs.counter_value("always.on") == 1


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_off_mode_span_is_shared_noop(self):
        first = obs.span("a", k=1)
        second = obs.span("b")
        assert first is second
        with first as sp:
            sp.set(extra=True)
        assert not obs.snapshot().agg

    def test_summary_mode_aggregates_without_events(self):
        obs.configure(obs.MODE_SUMMARY)
        with obs.span("work"):
            pass
        with obs.span("work"):
            pass
        snap = obs.snapshot()
        assert snap.agg["work"][0] == 2
        assert snap.events == []

    def test_trace_mode_records_nesting(self):
        obs.configure(obs.MODE_TRACE)
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
            obs.event("point", n=1)
        events = {ev.name: ev for ev in obs.snapshot().events}
        outer, inner, point = (
            events["outer"], events["inner"], events["point"]
        )
        assert outer.parent is None
        assert inner.parent == outer.id
        assert point.parent == outer.id
        assert point.dur == 0
        assert outer.attrs == {"kind": "test"}
        assert outer.dur >= inner.dur >= 0

    def test_span_set_attaches_attributes(self):
        obs.configure(obs.MODE_TRACE)
        with obs.span("s", a=1) as sp:
            sp.set(b=2)
        (ev,) = obs.snapshot().events
        assert ev.attrs == {"a": 1, "b": 2}

    def test_pop_frame_empty_returns_none(self):
        obs.push_frame()
        assert obs.pop_frame() is None

    def test_buffer_is_picklable(self):
        obs.configure(obs.MODE_TRACE)
        obs.push_frame()
        with obs.span("w"):
            obs.count("c", 2)
        buffer = obs.pop_frame()
        clone = pickle.loads(pickle.dumps(buffer))
        assert clone.counters == {"c": 2}
        assert [ev.name for ev in clone.events] == ["w"]

    def test_merge_remaps_ids_and_adopts_roots(self):
        obs.configure(obs.MODE_TRACE)
        obs.push_frame()
        with obs.span("worker.outer"):
            with obs.span("worker.inner"):
                pass
        buffer = obs.pop_frame()
        with obs.span("coordinator"):
            obs.merge_buffer(buffer)
        events = {ev.name: ev for ev in obs.snapshot().events}
        coord = events["coordinator"]
        outer = events["worker.outer"]
        inner = events["worker.inner"]
        # Worker root re-parents under the active coordinator span, the
        # child keeps its (remapped) parent, and no ids collide.
        assert outer.parent == coord.id
        assert inner.parent == outer.id
        assert len({coord.id, outer.id, inner.id}) == 3


# -- executor merge identity -------------------------------------------------


def _tiny_plan(executor):
    model = LanguageModel.pretrain(
        "demo",
        ["module m(input a, output y); assign y = ~a; endmodule"] * 6,
    )
    task = PassAtKTask(
        build_problem_set(n_problems=2),
        EvalConfig(n_samples=4, ks=(1,), temperatures=(0.4,),
                   max_new_tokens=48),
    )
    # chunk_size 4: each problem's candidates land in their own chunk,
    # so the parallel run genuinely dispatches more than one chunk.
    return EvalPlan([model], [task], chunk_size=4, executor=executor)


def _traced_run(executor):
    from repro.vereval import harness

    obs.reset()
    previous = sim_cache.configure("")  # no disk tier: runs stay alike
    # Cold golden cache per run: forked pool workers inherit the
    # coordinator's warm LRU, which would skip spans a serial run emits.
    harness._GOLDEN_CACHE.clear()
    try:
        obs.configure(obs.MODE_TRACE)
        run = _tiny_plan(executor).run()
        return run, obs.snapshot()
    finally:
        sim_cache.configure(previous)
        harness._GOLDEN_CACHE.clear()
        if isinstance(executor, ParallelExecutor):
            executor.close()


def _span_paths(buffer):
    """Every span as the names from its root down, with multiplicity."""
    by_id = {ev.id: ev for ev in buffer.events}
    paths = {}
    for ev in buffer.events:
        path, parent = [ev.name], ev.parent
        while parent is not None:
            path.append(by_id[parent].name)
            parent = by_id[parent].parent
        key = tuple(reversed(path))
        paths[key] = paths.get(key, 0) + 1
    return paths


class TestExecutorMergeIdentity:
    def test_parallel_trace_matches_serial(self):
        # The serial chunks record in place and the pooled ones ship a
        # worker frame home; both give one span tree and one counter set.
        serial_run, serial = _traced_run(SerialExecutor())
        obs.reset()
        parallel_run, parallel = _traced_run(ParallelExecutor(workers=2))

        def span_counts(buffer):
            counts = {}
            for ev in buffer.events:
                counts[ev.name] = counts.get(ev.name, 0) + 1
            return counts

        serial_counts = span_counts(serial)
        parallel_counts = span_counts(parallel)
        assert serial_counts == parallel_counts
        assert _span_paths(serial) == _span_paths(parallel)
        assert ("run.eval_plan", "engine.chunk") in _span_paths(serial)
        assert serial.counters == parallel.counters
        # Per-candidate accounting equals the scalar bookkeeping: one
        # eval.candidate event and one counter tick per checked record.
        n_records = len(serial_run.records)
        assert serial_counts["eval.candidate"] == n_records
        assert serial_counts["eval.generate"] == n_records
        assert obs.counter_value("eval.candidates") == n_records
        assert parallel_run.records == serial_run.records

    def test_merged_trace_has_no_orphan_spans(self):
        _, merged = _traced_run(ParallelExecutor(workers=2))
        ids = {ev.id for ev in merged.events}
        assert len(ids) == len(merged.events)  # remap kept ids unique
        parents = {ev.parent for ev in merged.events} - {None}
        assert parents <= ids
        # Worker chunk spans nest under the coordinator's run span.
        by_id = {ev.id: ev for ev in merged.events}
        chunk_spans = [ev for ev in merged.events
                       if ev.name == "engine.chunk"]
        assert chunk_spans
        for ev in chunk_spans:
            top = ev
            while top.parent is not None:
                top = by_id[top.parent]
            assert top.name == "run.eval_plan"

    def test_run_result_carries_telemetry_and_stats(self):
        run, _ = _traced_run(SerialExecutor())
        assert run.telemetry is not None
        assert run.telemetry.spans["eval.candidate"]["count"] == len(
            run.records
        )
        assert "eval.candidate" in run.telemetry.to_text()
        stats = {stat.stage: stat for stat in run.stage_stats}
        assert stats["eval_check"].n_in == len(run.records)


# -- exporters ---------------------------------------------------------------


def _sample_buffer():
    obs.configure(obs.MODE_TRACE)
    obs.push_frame()
    with obs.span("run.demo"):
        with obs.span("vereval.problem", problem="p0", candidates=3):
            obs.event("eval.candidate", passed=True)
        obs.count("sim.cache.hit", 2)
        obs.gauge("pool.workers", 2)
    return obs.pop_frame()


class TestExporters:
    def test_events_jsonl_round_trip(self, tmp_path):
        buffer = _sample_buffer()
        path = tmp_path / "events.jsonl"
        obs_export.write_events_jsonl(
            str(path), buffer, meta={"run": "demo", "mode": "trace"}
        )
        lines = obs_export.read_events_jsonl(str(path))
        assert lines[0] == {"type": "meta", "run": "demo", "mode": "trace"}
        spans = [line for line in lines if line["type"] == "span"]
        assert [s["name"] for s in spans] == [
            "eval.candidate", "vereval.problem", "run.demo"
        ]
        for entry in spans:
            assert {"name", "ts", "dur", "cpu", "pid", "id",
                    "parent", "attrs"} <= set(entry)
        counter = next(l for l in lines if l["type"] == "counter")
        assert counter == {
            "type": "counter", "name": "sim.cache.hit", "value": 2
        }
        gauge = next(l for l in lines if l["type"] == "gauge")
        assert gauge == {"type": "gauge", "name": "pool.workers", "value": 2}

    def test_trace_event_file_is_loadable(self, tmp_path):
        buffer = _sample_buffer()
        path = tmp_path / "trace.json"
        obs_export.write_trace_event(str(path), buffer)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        metas = [ev for ev in events if ev["ph"] == "M"]
        slices = [ev for ev in events if ev["ph"] == "X"]
        assert metas and metas[0]["args"]["name"] == "coordinator"
        assert {ev["name"] for ev in slices} == {
            "run.demo", "vereval.problem", "eval.candidate"
        }
        for ev in slices:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int)

    def test_telemetry_summary(self):
        buffer = _sample_buffer()
        telemetry = obs_export.telemetry_from_buffer(
            "demo", "trace", buffer
        )
        assert telemetry.wall_seconds > 0
        assert telemetry.counters["sim.cache.hit"] == 2
        assert telemetry.gauges["pool.workers"] == 2
        text = telemetry.to_text()
        assert "vereval.problem" in text and "sim.cache.hit" in text

    def test_run_capture_exports_artifacts(self, tmp_path):
        obs.configure(obs.MODE_TRACE, str(tmp_path))
        with obs.run_capture("demo", kind="test") as capture:
            with obs.span("vereval.problem", problem="p0", candidates=1):
                pass
        assert capture.export_dir is not None
        names = sorted(os.listdir(capture.export_dir))
        assert names == ["events.jsonl", "telemetry.json", "trace.json"]
        assert capture.telemetry.spans["run.demo"]["count"] == 1

    def test_trace_report_cli(self, tmp_path):
        obs.configure(obs.MODE_TRACE, str(tmp_path))
        with obs.run_capture("demo"):
            with obs.span("vereval.problem", problem="p7", candidates=4):
                pass
            obs.count("sim.cache.miss", 3)
        result = subprocess.run(
            [sys.executable,
             os.path.join(TOOLS_DIR, "trace_report.py"),
             str(tmp_path), "--top", "3"],
            capture_output=True, text=True, check=True,
        )
        assert "vereval.problem" in result.stdout
        assert "sim.cache.miss" in result.stdout
        assert "p7" in result.stdout

    def test_trace_report_cli_empty_dir(self, tmp_path):
        result = subprocess.run(
            [sys.executable,
             os.path.join(TOOLS_DIR, "trace_report.py"), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "no events.jsonl" in result.stderr


# -- cache metrics -----------------------------------------------------------


class TestCacheMetrics:
    def test_hit_miss_store_counted(self, tmp_path):
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.load("blob", "k") is None
            assert sim_cache.store("blob", [1], "k")
            assert sim_cache.load("blob", "k") == [1]
        finally:
            sim_cache.configure(previous)
        assert sim_cache.stats() == {"miss": 1, "store": 1, "hit": 1}

    def test_corrupt_entry_counted_and_warned_once(
        self, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.setattr(sim_cache, "_warned_corrupt", False)
        previous = sim_cache.configure(str(tmp_path))
        try:
            assert sim_cache.store("blob", [1], "k")
            assert sim_cache.store("blob", [2], "k2")
            for pkl in tmp_path.rglob("*.pkl"):
                pkl.write_bytes(b"not a pickle")
            with caplog.at_level("WARNING", logger="repro.sim.cache"):
                assert sim_cache.load("blob", "k") is None
                assert sim_cache.load("blob", "k2") is None
        finally:
            sim_cache.configure(previous)
        stats = sim_cache.stats()
        assert stats["corrupt"] == 2
        assert stats["evict"] == 2
        assert stats["miss"] == 2
        warnings = [r for r in caplog.records
                    if "corrupt sim-cache entry" in r.message]
        assert len(warnings) == 1  # once per process, not per entry

    def test_version_mismatch_counted_and_evicted(
        self, tmp_path, monkeypatch
    ):
        # Entries written under the previous BACKEND_VERSION — a blob and
        # a design whose digest memo is still the old dict-per-pin
        # layout — must be counted and evicted, never handed back to be
        # misread.
        from repro.sim import elaborate
        from repro.verilog import parse_source

        source = "module m(input a, output y); assign y = ~a; endmodule"
        design = elaborate(parse_source(source), "m")
        design._lockstep_digest = {None: "0" * 64}
        current = sim_cache.BACKEND_VERSION
        previous = sim_cache.configure(str(tmp_path))
        try:
            monkeypatch.setattr(sim_cache, "BACKEND_VERSION", current - 1)
            assert sim_cache.store("blob", [1], "k")
            assert sim_cache.put_design(source, "m", design)
            monkeypatch.setattr(sim_cache, "BACKEND_VERSION", current)
            assert sim_cache.load("blob", "k") is None
            assert sim_cache.get_design(source, "m") is None
            assert not list(tmp_path.rglob("*.pkl"))  # evicted on disk
        finally:
            sim_cache.configure(previous)
        stats = sim_cache.stats()
        assert stats["version_mismatch"] == 2
        assert stats["evict"] == 2
        assert "hit" not in stats


# -- front-end spans ---------------------------------------------------------


class TestFrontEndTelemetry:
    def test_one_lex_and_parse_span_per_source_and_exact_tokens(self):
        from repro.verilog import check_syntax_fast, lex, parse_source_fast

        sources = [
            "`timescale 1ns/1ps\nmodule m; endmodule",
            "module m(input a; endmodule",  # fails in the parser
            "module m; /* unterminated",    # fails in the lexer
        ]
        obs.configure(obs.MODE_SUMMARY)
        for source in sources:
            check_syntax_fast(source)
        parse_source_fast(sources[0])
        snap = obs.snapshot()
        # per source, never per token; no parse span when lexing failed
        assert snap.agg["verilog.lex"][0] == 4
        assert snap.agg["verilog.parse"][0] == 3
        # directives and EOF included, exactly what lex() returns
        assert snap.counters["verilog.tokens"] == sum(
            len(lex(source)) for source in (*sources[:2], sources[0])
        )


# -- simulator spans and the cycle counter -----------------------------------


class TestSimTelemetry:
    @staticmethod
    def _pool(cycles):
        """One clocked problem at ``cycles`` stimulus depth: its golden, its
        near-miss mutants, and a duplicate (which must collapse)."""
        from repro.vgen import mutate

        (problem,) = build_problem_set(
            n_problems=1, families=["shift_register"],
            stimulus_cycles=cycles,
        )
        sources = [problem.golden_source]
        sources += [m.source for m in mutate(problem.module)]
        return problem, sources + [problem.golden_source]

    @staticmethod
    def _simulated(problem, sources):
        """The distinct sources the check simulates: all but those with
        the golden's tokens (kind and text, directives aside), which pass
        on their digest."""
        from repro.verilog import TokenKind, lex

        def symbols(source):
            return [
                (token.kind, token.text) for token in lex(source)
                if token.kind is not TokenKind.DIRECTIVE
            ]

        golden = symbols(problem.golden_source)
        return [s for s in dict.fromkeys(sources) if symbols(s) != golden]

    @staticmethod
    def _reference_cycles(problem, sources):
        """Steps the trace check must take, from the two-design lockstep
        reference: the golden's own trace plus each distinct candidate up
        to and including its first bad cycle."""
        from repro.sim import elaborate, equivalence_check, random_stimulus
        from repro.verilog import parse_source

        interface = problem.module.interface
        name = problem.module.name
        golden = elaborate(parse_source(problem.golden_source), name)
        stimulus = random_stimulus(
            golden, problem.stimulus_cycles, seed=problem.stimulus_seed
        )
        total = len(stimulus)
        for source in TestSimTelemetry._simulated(problem, sources):
            result = equivalence_check(
                golden, elaborate(parse_source(source), name), stimulus,
                clock=interface.clock, reset=interface.reset,
                reset_active_high=interface.reset_active_high,
                backend="interp",
            )
            assert result.error is None
            total += result.cycles_run
        return total

    def _traced_check(self, cycles):
        from repro.vereval import reset_caches

        problem, sources = self._pool(cycles)
        assert problem.module.interface.reset is not None
        want_cycles = self._reference_cycles(problem, sources)
        previous = sim_cache.configure("")
        try:
            reset_caches()
            obs.reset()
            obs.configure(obs.MODE_SUMMARY)
            check_candidates_lockstep(problem, sources)
            snap = obs.snapshot()
        finally:
            sim_cache.configure(previous)
            reset_caches()
        simulated = len(self._simulated(problem, sources))
        return len(set(sources)), simulated, want_cycles, snap

    def test_one_span_per_design_and_exact_cycles(self):
        distinct, simulated, want_cycles, snap = self._traced_check(24)
        # the golden + each distinct candidate but the golden's token
        # twin (which passes before the front end) elaborated once, and
        # each one simulated compiled once
        assert simulated == distinct - 1
        assert snap.agg["sim.elaborate"][0] == distinct
        assert snap.agg["sim.compile"][0] == simulated + 1
        assert snap.counters["sim.cycles"] == want_cycles
        kernels = sum(
            snap.counters.get(f"sim.kernel.{path}", 0)
            for path in ("specialised", "generic")
        )
        # per design: the two reset kernels (clocked assert, drive-only
        # release) and the stimulus kernel
        assert kernels == 3 * (simulated + 1)
        # one lowering per design
        assert snap.counters["sim.codegen.emitted"] == simulated + 1
        assert snap.counters["sim.codegen.lines"] > simulated + 1

    def test_no_span_or_counter_write_per_cycle(self):
        _, _, shallow_cycles, shallow = self._traced_check(24)
        _, _, deep_cycles, deep = self._traced_check(96)
        assert deep_cycles > shallow_cycles
        assert deep.counters["sim.cycles"] == deep_cycles
        # Four times the cycles, the same spans: nothing is per cycle.
        assert {k: v[0] for k, v in deep.agg.items()} == {
            k: v[0] for k, v in shallow.agg.items()
        }
        for name in ("sim.kernel.specialised", "sim.kernel.generic",
                     "sim.codegen.emitted", "sim.codegen.lines"):
            assert deep.counters.get(name) == shallow.counters.get(name), name


# -- checkpoint resume -------------------------------------------------------


class TestCheckpointMetrics:
    def test_resume_skipped_counter(self, tmp_path):
        from repro.engine import CheckpointStore

        def plan():
            return _tiny_plan(SerialExecutor())

        store = CheckpointStore(tmp_path)
        plan().run(store=store, tag="obs", checkpoint_every=4)
        assert obs.counter_value("checkpoint.resume_skipped") == 0
        run = plan().run(store=store, tag="obs", checkpoint_every=4)
        # The replayed run resumed from the completed snapshot: every
        # spec was skipped, none re-executed.
        total = plan().total_specs()
        assert obs.counter_value("checkpoint.resume_skipped") == total
        assert len(run.records) == total


# -- overhead guard ----------------------------------------------------------


def _sim_workload():
    problems = build_problem_set(n_problems=1)
    problem = problems[0]
    golden = problem.module.source
    check_candidates_lockstep(problem, [golden] * 4)


class TestOffModeOverhead:
    def test_off_mode_overhead_under_three_percent(self, monkeypatch):
        assert obs.mode() == obs.MODE_OFF
        _sim_workload()  # warm parse/elaborate caches out of the timing

        start = time.perf_counter()
        _sim_workload()
        workload_seconds = time.perf_counter() - start

        calls = {"n": 0}
        for name in ("span", "event", "count", "gauge"):
            real = getattr(obs, name)

            def wrapper(*args, _real=real, **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(obs, name, wrapper)
        _sim_workload()
        monkeypatch.undo()
        assert calls["n"] > 0  # the workload is instrumented

        # Off-mode unit cost, measured on the most expensive call kinds
        # the workload uses: a no-op span with kwargs and a counter tick.
        reps = 20000
        start = time.perf_counter()
        for _ in range(reps):
            with obs.span("overhead.probe", a=1, b=2):
                pass
            obs.count("overhead.probe")
        per_call = (time.perf_counter() - start) / (2 * reps)

        overhead = calls["n"] * per_call
        assert overhead < 0.03 * workload_seconds, (
            f"{calls['n']} obs calls x {per_call * 1e9:.0f}ns = "
            f"{overhead * 1e3:.3f}ms >= 3% of "
            f"{workload_seconds * 1e3:.1f}ms workload"
        )

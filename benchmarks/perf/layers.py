"""The traced run: spans around the units, and a walk through each layer.

``run_traced`` is ``--trace 1``.  It times set-up with a span per step,
runs the end-to-end units traced and untraced in alternation (their
ratio is the tracing overhead), then replays the workload's inputs
through each layer's *public* functions — ``PASSES`` passes, a span per
(layer, unit), a calibration spin per unit, every ``*_s`` metric the sum
over units of the fastest pass in calibrated seconds: the estimator of
the end-to-end runs.  Bare names are exact counts, read from return
values or ``repro.obs.counters()``.

Spans come from this file only; spans inside ``repro`` are a later
change (ROADMAP item 5) and should then report under the names fixed
here.  A layer metric reads 0 on a workload whose walk never enters
that layer — which is itself the "predicted no change" row for it.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

from repro import obs
from repro.curation import (
    CopyrightFilter,
    CurationConfig,
    CurationPipeline,
    IncrementalCurator,
    LicenseFilter,
)
from repro.dedup import StreamingDeduplicator, shingle_hashes
from repro.engine import (
    CheckpointStore,
    DedupStage,
    ParallelExecutor,
    build_stages,
    iter_chunks,
)
from repro.errors import ElaborationError, LexError, ParseError
from repro.evalkit import PassAtKChecker
from repro.llm import GenerationConfig
from repro.sim import (
    Testbench,
    UncompilableDesign,
    batch_design,
    build_lockstep_group,
    compile_design,
    elaborate,
    lockstep_shape_digest,
    random_stimulus,
)
from repro.sim import cache as sim_cache
from repro.vereval import (
    CegisConfig,
    cegis_configure,
    check_candidate_source,
    check_candidates_lockstep,
)
from repro.verilog import (
    Parser,
    check_syntax_fast,
    lex,
    lex_fast,
    parse_source_fast,
)

import estimator
import measure
from measure import Trace, UnitClock
from reference import cold_start
from workloads import Workload

#: walk passes, and traced/untraced end-to-end iterations each
PASSES = 3
#: passes of the whole-plan variants (checkpointed, observed, pooled)
VARIANT_PASSES = 2
#: the CEGIS rows check every ``CEGIS_STRIDE``-th problem
CEGIS_STRIDE = 6

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def counter_delta(before: Dict[str, float], name: str) -> float:
    return obs.counter_value(name) - before.get(name, 0.0)


def import_s(reps: int) -> float:
    """What ``import repro`` (and the packages the workloads use) costs a
    fresh interpreter: fastest of ``reps`` child processes."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        "import repro; "
        "print(time.perf_counter() - t)"
    )
    return min(
        float(
            subprocess.run(
                [sys.executable, "-c", code, SRC],
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
        )
        for _ in range(reps)
    )


# -- front end, shared by every walk -----------------------------------------


def walk_frontend(
    trace: Trace, metrics: Dict[str, float], units: Sequence[Sequence[str]]
) -> List[List[object]]:
    """lex (both lexers), parse, syntax over ``units`` of source texts.

    Returns, per unit, the parsed file (or None) of each source from the
    last call, for the elaboration walk.
    """
    tokens = parse_fail = 0
    parsed: List[List[object]] = []
    for unit, sources in enumerate(units):
        streams = []
        with trace.span("verilog.lex", unit):
            for source in sources:
                try:
                    streams.append(lex_fast(source))
                except LexError:
                    streams.append(None)
        with trace.span("verilog.lex_ref", unit):
            for source in sources:
                try:
                    lex(source)
                except LexError:
                    pass
        files = []
        with trace.span("verilog.parse", unit):
            for stream in streams:
                try:
                    files.append(
                        Parser(stream).parse_source() if stream is not None
                        else None
                    )
                except ParseError:
                    files.append(None)
        with trace.span("verilog.syntax", unit):
            for source in sources:
                check_syntax_fast(source)
        trace.spin()
        tokens += sum(len(s) for s in streams if s is not None)
        parse_fail += sum(1 for f in files if f is None)
        parsed.append(files)
    metrics["verilog.lex_tokens"] = tokens
    metrics["verilog.parse_fail"] = parse_fail
    return parsed


def frontend_metrics(trace: Trace, metrics: Dict[str, float]) -> None:
    for layer in ("lex", "lex_ref", "parse", "syntax"):
        metrics[f"verilog.{layer}_s"] = trace.quiet_s(f"verilog.{layer}")


def distinct(sources: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(sources))


# -- check_cold / check_warm -------------------------------------------------


def walk_check(
    workload, trace: Trace, metrics: Dict[str, float], passes: int,
    quiet: float,
) -> None:
    problems = workload.problems
    units = [distinct(sources) for sources in workload.sources]
    cycles = workload.sizes.stimulus_cycles
    scratch_cache = os.path.join(workload.scratch, "simcache_walk")
    for _ in range(passes):
        parsed = walk_frontend(trace, metrics, units)
        signals = elaborate_fail = uncompilable = unbatchable = sim_cycles = 0
        reps_before = obs.counters("batch.rep.")
        shutil.rmtree(scratch_cache, ignore_errors=True)
        for unit, problem in enumerate(problems):
            name = problem.module.name
            interface = problem.module.interface
            designs, design_sources = [], []
            with trace.span("sim.elaborate", unit):
                for source, parsed_file in zip(units[unit], parsed[unit]):
                    if parsed_file is None or parsed_file.module(name) is None:
                        continue
                    try:
                        designs.append(elaborate(parsed_file, name))
                        design_sources.append(source)
                    except ElaborationError:
                        elaborate_fail += 1
            signals += sum(len(d.signals) for d in designs)
            with trace.span("sim.compile", unit):
                for design in designs:
                    try:
                        compile_design(design)
                    except UncompilableDesign:
                        uncompilable += 1
            groups: Dict[str, list] = {}
            if interface.clock is not None:
                with trace.span("sim.batch.shape_digest", unit):
                    for design in designs:
                        try:
                            digest = lockstep_shape_digest(design)
                        except UncompilableDesign:
                            unbatchable += 1
                            continue
                        groups.setdefault(digest, []).append(design)
            with trace.span("sim.batch.lower", unit):
                # what the checker lowers: one lane per stimulus vector
                # for unclocked problems, one lockstep group per shape
                # for clocked ones
                try:
                    if interface.clock is None:
                        for design in designs:
                            batch_design(design, cycles)
                    else:
                        for group in groups.values():
                            if len(group) >= 2:
                                build_lockstep_group(group)
                except UncompilableDesign:
                    unbatchable += 1
            golden = elaborate(parse_source_fast(problem.golden_source), name)
            with trace.span("sim.testbench.stimulus", unit):
                stimulus = random_stimulus(
                    golden, cycles, seed=problem.stimulus_seed
                )
            with trace.span("sim.testbench.golden_trace", unit):
                bench = Testbench(
                    golden,
                    clock=interface.clock,
                    reset=interface.reset,
                    reset_active_high=interface.reset_active_high,
                )
                bench.apply_reset()
                for vector in stimulus:
                    bench.step(vector)
            sim_cycles += len(stimulus)
            sim_cache.configure(scratch_cache)
            with trace.span("sim.cache.store", unit):
                for source, design in zip(design_sources, designs):
                    sim_cache.put_design(source, name, design)
            with trace.span("sim.cache.load", unit):
                for source in design_sources:
                    sim_cache.get_design(source, name)
            sim_cache.configure("")
            trace.spin()
        metrics["sim.elaborate_fail"] = elaborate_fail
        metrics["sim.design_signals"] = signals
        metrics["sim.compile_uncompilable"] = uncompilable
        metrics["sim.batch.unbatchable"] = unbatchable
        metrics["sim.testbench.cycles"] = sim_cycles
        for rep in ("int64", "spill", "bitslice"):
            metrics[f"sim.batch.rep_{rep}"] = counter_delta(
                reps_before, f"batch.rep.{rep}"
            )
        # the same pools with the disk tier off, lockstep and scalar
        sim_cache.configure("")
        cold_start()
        for unit, (problem, sources) in enumerate(zip(problems, workload.sources)):
            with trace.span("vereval.nocache_check", unit):
                check_candidates_lockstep(problem, sources)
            trace.spin()
        cold_start()
        for unit, (problem, sources) in enumerate(zip(problems, workload.sources)):
            with trace.span("vereval.scalar_loop", unit):
                for source in sources:
                    check_candidate_source(problem, source)
            trace.spin()
    frontend_metrics(trace, metrics)
    for layer in (
        "sim.elaborate", "sim.compile", "sim.batch.lower",
        "sim.batch.shape_digest", "sim.testbench.stimulus",
        "sim.testbench.golden_trace", "sim.cache.store", "sim.cache.load",
        "vereval.nocache_check", "vereval.scalar_loop",
    ):
        metrics[f"{layer}_s"] = trace.quiet_s(layer)
    metrics["sim.testbench.us_per_cycle"] = (
        metrics["sim.testbench.golden_trace_s"] * 1e6
        / metrics["sim.testbench.cycles"]
    )

    # one counted pass of the workload's own units
    before = obs.counters()
    seq = comb = 0.0
    clock = UnitClock()
    workload.iterate(clock)
    unit_s = trace.unit_minima("unit")
    for unit, problem in enumerate(problems):
        took = unit_s[unit]
        if problem.module.interface.clock is not None:
            seq += took
        else:
            comb += took
    metrics["vereval.check_s"] = seq + comb
    metrics["vereval.seq_check_s"] = seq
    metrics["vereval.comb_check_s"] = comb
    replayed = sum(
        metrics[f"{layer}_s"]
        for layer in (
            "verilog.parse", "verilog.lex", "sim.elaborate", "sim.compile",
            "sim.batch.lower", "sim.batch.shape_digest",
        )
    )
    metrics["vereval.check_self_s"] = metrics["vereval.check_s"] - replayed
    for name in (
        "lockstep.groups", "lockstep.settles", "lockstep.settle_nodes_run",
        "lockstep.settle_nodes_skipped", "retire.lanes_passed",
        "retire.lanes_retired", "retire.scalar_replays",
        "retire.allvec_checks", "batch.fallback_scalar",
    ):
        metrics[name] = counter_delta(before, name)
    for name in ("hit", "miss", "store"):
        metrics[f"sim.cache.{name}"] = counter_delta(before, f"sim.cache.{name}")
    looked = metrics["sim.cache.hit"] + metrics["sim.cache.miss"]
    metrics["sim.cache.hit_frac"] = metrics["sim.cache.hit"] / looked if looked else 0.0
    on_lanes = metrics["retire.lanes_passed"] + metrics["retire.lanes_retired"]
    entered = (
        on_lanes
        + counter_delta(before, "retire.golden_preempts")
        + metrics["retire.scalar_replays"]
    )
    metrics["retire.lane_decided_frac"] = (
        (on_lanes + metrics["retire.allvec_checks"]) / entered if entered else 0.0
    )
    metrics["sim.cache.disk_bytes"] = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(workload.cache_dir)
        for name in names
    )

    # CEGIS opt-in, recorded once, ungated; its falsification search
    # costs ~0.7 s a problem cold, so every sixth problem stands for all
    subset = list(zip(problems, workload.sources))[::CEGIS_STRIDE]
    previous = cegis_configure(CegisConfig(enabled=True))
    try:
        sim_cache.configure(scratch_cache)
        shutil.rmtree(scratch_cache, ignore_errors=True)
        for label in ("cold", "warm"):
            cold_start()
            for unit, (problem, sources) in enumerate(subset):
                with trace.span(f"vereval.cegis_{label}", unit):
                    check_candidates_lockstep(problem, sources)
                trace.spin()
            metrics[f"vereval.cegis_{label}_s"] = trace.quiet_s(
                f"vereval.cegis_{label}"
            )
    finally:
        cegis_configure(previous)
        sim_cache.configure("")
        cold_start()


# -- passk_headline ----------------------------------------------------------


def walk_headline(
    workload, trace: Trace, metrics: Dict[str, float], passes: int,
    quiet: float,
) -> None:
    plan = workload.plan
    plan_quiet = trace.quiet_s("unit")
    for name, step in (
        ("github.world_s", "world"), ("github.scrape_s", "scrape"),
        ("curation.pipeline_run_s", "curate"),
        ("copyright.corpus_s", "corpus"), ("llm.pretrain_s", "train_base"),
        ("llm.continual_pretrain_s", "train_freev"),
        ("copyright.index_build_s", "index"),
    ):
        metrics[name] = trace.quiet_s(f"setup.{step}")
    metrics["github.files"] = len(workload.files)
    metrics["curation.kept"] = workload.trainer.freeset.dataset.rows
    metrics["llm.model_pickle_bytes"] = sum(
        len(pickle.dumps(m, pickle.HIGHEST_PROTOCOL)) for m in plan.models
    )
    pooled = [s for s in build_stages(plan.stage_specs()) if s.parallel_safe]
    metrics["engine.stage_payload_bytes"] = len(
        pickle.dumps(pooled, pickle.HIGHEST_PROTOCOL)
    )

    sim_cache.configure("")
    records: list = []
    for _ in range(passes):
        # the four stages, driven chunk by chunk as the graph drives them
        expand, generate, check, aggregate = build_stages(plan.stage_specs())
        tokens_before = obs.counter_value("sampler.tokens")
        for unit, chunk in enumerate(iter_chunks(plan.specs(), plan.chunk_size)):
            for layer, stage in (
                ("expand", expand), ("generate", generate),
                ("check", check), ("aggregate", aggregate),
            ):
                with trace.span(f"evalkit.{layer}", unit):
                    chunk = stage.process(chunk)
            if unit % 8 == 7:  # a spin per 64 specs, as in the units
                trace.spin()
        records = aggregate.records
        metrics["llm.tokens"] = obs.counter_value("sampler.tokens") - tokens_before

        # the model's own API over the same prompts and seeds
        configs: Dict[tuple, GenerationConfig] = {}
        for record in records:
            key = (record.temperature, record.max_new_tokens)
            if key not in configs:
                configs[key] = GenerationConfig(
                    temperature=key[0], max_new_tokens=key[1],
                    stop_strings=("endmodule",),
                )
        for unit, chunk in enumerate(iter_chunks(records, 64)):
            prompt_tokens = []
            with trace.span("llm.encode", unit):
                for record in chunk:
                    prompt_tokens.append(
                        generate.models[record.model_name].encode_prompt(
                            record.prompt
                        )
                    )
            with trace.span("llm.generate", unit):
                for record, encoded in zip(chunk, prompt_tokens):
                    generate.models[record.model_name].generate(
                        record.prompt,
                        configs[(record.temperature, record.max_new_tokens)],
                        seed=record.seed,
                        prompt_tokens=encoded,
                    )
            trace.spin()

        # the two checkers on the completions, each on its own
        passk_records = [r for r in records if r.task_id == workload.passk.task_id]
        copyright_records = [
            r for r in records if r.task_id == workload.copyright.task_id
        ]
        checker = PassAtKChecker(workload.problems)
        for unit, chunk in enumerate(iter_chunks(passk_records, plan.chunk_size)):
            with trace.span("vereval.check", unit):
                checker.check_batch(chunk)
            if unit % 8 == 7:
                trace.spin()
        similarity = workload.copyright.checker()
        for unit, chunk in enumerate(iter_chunks(copyright_records, 8)):
            with trace.span("copyright.check", unit):
                for record in chunk:
                    similarity.check(record)
        trace.spin()

        by_problem: Dict[int, List[str]] = {}
        for record in passk_records:
            by_problem.setdefault(record.unit_index, []).append(
                record.prompt + record.completion
            )
        walk_frontend(
            trace, metrics, [distinct(v) for _, v in sorted(by_problem.items())]
        )
    frontend_metrics(trace, metrics)
    stage_sum = 0.0
    for layer in ("expand", "generate", "check", "aggregate"):
        metrics[f"evalkit.{layer}_s"] = trace.quiet_s(f"evalkit.{layer}")
        stage_sum += metrics[f"evalkit.{layer}_s"]
    metrics["engine.overhead_s"] = plan_quiet - stage_sum
    for layer in ("llm.encode", "llm.generate", "vereval.check", "copyright.check"):
        metrics[f"{layer}_s"] = trace.quiet_s(layer)
    metrics["llm.tokens_per_s"] = metrics["llm.tokens"] / metrics["llm.generate_s"]

    variant_passes = min(passes, VARIANT_PASSES)

    def quiet_of(run_kwargs=lambda index: {}) -> float:
        rows = []
        for index in range(variant_passes):
            clock = UnitClock()
            gc.collect()
            workload.iterate(clock, **run_kwargs(index))
            rows.append(estimator.calibrate(clock.seconds, clock.spins))
        return estimator.quiet_wall_s(rows)

    store_root = os.path.join(workload.scratch, "ckpt")
    # whole-plan variants, in calibrated seconds against ``quiet``, the
    # calibrated estimate of the plain plan
    metrics["engine.checkpoint_overhead_s"] = quiet_of(
        lambda index: {
            "store": CheckpointStore(os.path.join(store_root, str(index)))
        }
    ) - quiet
    for mode in ("summary", "trace"):
        previous = obs.configure(mode, os.path.join(workload.scratch, "obs"))
        try:
            observed = quiet_of()
        finally:
            obs.configure(previous[0], previous[1] or "")
            obs.reset()
        metrics[f"obs.{mode}_overhead_frac"] = observed / quiet - 1.0

    # two workers on this host measure the scheduler, not the code:
    # recorded once, ungated
    with ParallelExecutor(workers=2) as pool:
        for index in range(variant_passes):
            trace.spin()
            with trace.span("engine.pool2", index):
                workload.iterate(UnitClock(), executor=pool)
            trace.spin()
    metrics["engine.pool2_wall_s"] = min(
        trace.unit_minima("engine.pool2").values()
    )
    metrics["engine.pool2_speedup"] = plan_quiet / metrics["engine.pool2_wall_s"]


# -- curate_stream -----------------------------------------------------------


def walk_curate(
    workload, trace: Trace, metrics: Dict[str, float], passes: int,
    quiet: float,
) -> None:
    config = CurationConfig()
    metrics["github.world_s"] = trace.quiet_s("setup.world")
    metrics["github.scrape_s"] = trace.quiet_s("setup.scrape")
    metrics["github.files"] = len(workload.files)
    kept: list = []
    for _ in range(passes):
        license_filter, copyright_filter = LicenseFilter(), CopyrightFilter()
        dedup = StreamingDeduplicator(
            threshold=config.dedup_threshold, seed=config.seed
        )
        stage = DedupStage(threshold=config.dedup_threshold, seed=config.seed)
        kept, syntax_inputs = [], []
        licensed_total = deduped_total = 0
        for unit, batch in enumerate(workload.batches):
            with trace.span("curation.license_filter", unit):
                licensed = license_filter.apply(batch)
            with trace.span("dedup.shingle", unit):
                hashes = [shingle_hashes(f.content) for f in licensed]
            with trace.span("dedup.minhash", unit):
                signatures = dedup.hasher.signatures_of_hashes(hashes)
            with trace.span("dedup.lsh_offer", unit):
                deduped = [
                    f for f, signature in zip(licensed, signatures)
                    if dedup.offer_signature(f.file_id, signature)
                ]
            with trace.span("dedup.stage", unit):
                stage.process(licensed)
            with trace.span("curation.copyright_filter", unit):
                clean = copyright_filter.apply(deduped)
            with trace.span("curation.syntax_check", unit):
                kept.extend(f for f in clean if check_syntax_fast(f.content).ok)
            trace.spin()
            syntax_inputs.append([f.content for f in clean])
            licensed_total += len(licensed)
            deduped_total += len(deduped)
        metrics["dedup.removed"] = licensed_total - deduped_total
        metrics["dedup.dup_frac"] = (
            metrics["dedup.removed"] / licensed_total if licensed_total else 0.0
        )
        metrics["curation.kept"] = len(kept)
        walk_frontend(trace, metrics, syntax_inputs)

        # the whole-corpus form of the same stage graph, as a cross-check
        trace.spin()
        with trace.span("curation.pipeline_run"):
            dataset = CurationPipeline(config).run(workload.arrivals)
        trace.spin()
        if [f.file_id for f in dataset.files] != [f.file_id for f in kept]:
            raise AssertionError("CurationPipeline.run and the walk disagree")

        curator = IncrementalCurator(config)
        for batch in workload.batches:
            curator.ingest(batch)
        root = os.path.join(workload.scratch, "curator_ckpt")
        shutil.rmtree(root, ignore_errors=True)
        store = CheckpointStore(root)
        with trace.span("curation.checkpoint_save"):
            curator.save(store)
        with trace.span("curation.checkpoint_load"):
            IncrementalCurator(config).load(store)
        trace.spin()
        metrics["curation.checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(root, name)) for name in os.listdir(root)
        )
    frontend_metrics(trace, metrics)
    for layer in (
        "curation.license_filter", "curation.copyright_filter",
        "curation.syntax_check", "dedup.shingle", "dedup.minhash",
        "dedup.lsh_offer", "dedup.stage", "curation.pipeline_run",
        "curation.checkpoint_save", "curation.checkpoint_load",
    ):
        metrics[f"{layer}_s"] = trace.quiet_s(layer)


WALKS = {
    "passk_headline": walk_headline,
    "check_cold": walk_check,
    "check_warm": walk_check,
    "curate_stream": walk_curate,
}

#: the layer metrics that together cover a workload's units; their sum
#: should land within 10 % of the untraced quiet wall
COVERING = {
    "passk_headline": (
        "evalkit.expand_s", "evalkit.generate_s", "evalkit.check_s",
        "evalkit.aggregate_s", "engine.overhead_s",
    ),
    "check_cold": ("vereval.check_s",),
    "check_warm": ("vereval.check_s",),
    "curate_stream": (
        "curation.license_filter_s", "dedup.stage_s",
        "curation.copyright_filter_s", "curation.syntax_check_s",
    ),
}


def run_traced(
    workload: Workload, quick: bool, out_dir: str, layer_names: List[str]
) -> dict:
    """``--trace 1``: every declared per-layer metric (0 where this
    workload's walk does not go), and the span file."""
    passes = 1 if quick else PASSES
    trace = Trace()
    metrics: Dict[str, float] = dict.fromkeys(layer_names, 0.0)
    measure.time_setup(workload, 1 if quick else measure.SETUP_MIN_REPS, trace)
    measure.ensure_reference(workload)
    gc.collect()
    gc.freeze()
    attempted = failed = 0
    plain: List[dict] = []
    traced: List[dict] = []
    for index in range(passes):
        order = ((plain, None), (traced, trace))
        # alternate which goes first, so neither always follows the other
        for rows, use in order if index % 2 == 0 else order[::-1]:
            row, tried, bad = measure.iteration(workload, use)
            attempted += tried
            failed += bad
            if row is not None:
                rows.append(row)
    # what a one-shot CLI user pays: the cold first pass
    metrics["process.first_iter_s"] = sum(plain[0]["unit_s"])
    plain_s = estimator.unit_minima(measure.calibrated_rows(plain))
    traced_s = estimator.unit_minima(measure.calibrated_rows(traced))
    untraced_quiet = sum(plain_s)
    # unit by unit, then the median: one unit caught in a slow phase on
    # one side moves a ratio of sums, not a median of ratios
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0
    )
    WALKS[workload.name](workload, trace, metrics, passes, untraced_quiet)
    metrics["host.calib_ms"] = 1e3 * min(took for _, took in trace.spins)
    metrics["host.nproc"] = os.cpu_count() or 1
    metrics["process.import_s"] = import_s(passes)
    trace.write(os.path.join(out_dir, f"trace_{workload.name}.jsonl"))
    return {
        "workload": workload.name,
        "seed": workload.inputs.seed,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "info": [
            ("untraced_quiet_wall_s", untraced_quiet, "s"),
            (
                "covering_layers_s",
                sum(metrics[name] for name in COVERING[workload.name]),
                "s",
            ),
        ],
    }

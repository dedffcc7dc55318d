"""Lane-parallel simulation + persistent compile cache performance.

Claims, measured at bench scale:

* a 64-lane multi-seed stimulus sweep through the batch backend
  (:mod:`repro.sim.batch` via :func:`repro.sim.sweep_random_stimulus`)
  runs >=3x faster than 64 scalar compiled-backend episodes, with
  lane-for-lane identical outcomes;
* combinational all-vectors checking — every stimulus vector of a
  problem riding its own lane in one settle sweep
  (``_check_all_vectors_batch``) — beats the scalar per-cycle check loop
  by >=2x with identical verdicts;
* a pool-worker-shaped evaluation run (fresh in-process caches, golden
  elaboration + trace + duplicate candidate checks) with a warm
  :mod:`repro.sim.cache` directory runs >=1.5x faster than the same run
  against a cold cache, with identical verdicts;
* on a wide (>63-bit) datapath the multi-word spill lanes beat the
  scalar per-episode sweep by >=3x
  (``results/batch_spill_sweep.json``), lane-for-lane identical.

(The lane-per-candidate benches that used to live here went with the
tier they timed; their last table is ``BENCH_23.json`` → ``deleted_ab``.)

``bench_sim_perf.py`` and ``bench_eval_perf.py`` guard the scalar paths;
this file only adds claims, it does not relax theirs.
"""

import gc
import time

import pytest

from repro.sim import elaborate, random_stimulus, sweep_random_stimulus
from repro.sim import cache as sim_cache
from repro.sim.batch import (
    batch_design,
    is_stateless_comb,
    lane_representation,
)
from repro.utils.rng import DeterministicRNG
from repro.vereval import build_problem_set
from repro.vgen import generate_family
from repro.verilog import parse_source

import repro.vereval.harness as harness

from benchmarks.conftest import write_result

_SWEEP_LANES = 64
_SWEEP_CYCLES = 96
_COMB_CYCLES = 384
_POOL_PROBLEMS = 12
_POOL_DUPLICATES = 3


def _timed(fn, repeats=2):
    """Best-of-N wall time with the cyclic GC paused during measurement."""
    best, value = float("inf"), None
    for _ in range(repeats):
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, value


@pytest.fixture(scope="module")
def fifo_design():
    module = generate_family("fifo", DeterministicRNG(0x9EEF))
    design = elaborate(parse_source(module.source), module.name)
    return design, module.interface


def test_multi_seed_sweep_speedup(benchmark, fifo_design):
    design, interface = fifo_design
    seeds = range(_SWEEP_LANES)
    kwargs = dict(
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
    )
    # Stimulus generation is identical work on both paths; pre-generating
    # it isolates the comparison to sweep (simulation) throughput.
    stimuli = [
        random_stimulus(design, _SWEEP_CYCLES, seed) for seed in seeds
    ]

    def run_batch():
        return sweep_random_stimulus(
            design, _SWEEP_CYCLES, seeds, stimuli=stimuli, **kwargs
        )

    def run_scalar():
        return sweep_random_stimulus(
            design, _SWEEP_CYCLES, seeds, backend="compiled",
            stimuli=stimuli, **kwargs
        )

    # Warm both compile caches outside the timers: the comparison is
    # steady-state sweep throughput, the shape of repeated validation
    # sweeps and the ablation benches.
    batch_result = run_batch()
    scalar_result = run_scalar()
    assert batch_result.vectorized
    assert batch_result.traces == scalar_result.traces  # lane-for-lane
    assert batch_result.errors == scalar_result.errors

    batch_seconds, _ = _timed(run_batch, repeats=5)
    scalar_seconds, _ = _timed(run_scalar, repeats=3)
    speedup = scalar_seconds / batch_seconds
    lane_cycles = _SWEEP_LANES * _SWEEP_CYCLES
    write_result(
        "batch_sweep_speedup",
        f"fifo multi-seed sweep, {_SWEEP_LANES} lanes x {_SWEEP_CYCLES} "
        f"cycles = {lane_cycles} lane-cycles\n"
        f"scalar compiled (64 episodes): {scalar_seconds:8.3f} s"
        f"  ({lane_cycles / scalar_seconds:10.0f} lane-cycles/s)\n"
        f"batch backend (one sweep):     {batch_seconds:8.3f} s"
        f"  ({lane_cycles / batch_seconds:10.0f} lane-cycles/s)\n"
        f"speedup:                       {speedup:8.2f} x\n"
        f"(per-lane traces and error classification identical)",
        values={
            "lanes": _SWEEP_LANES,
            "cycles": _SWEEP_CYCLES,
            "scalar_seconds": scalar_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"batch sweep only {speedup:.2f}x faster than scalar episodes"
    )
    benchmark.pedantic(run_batch, rounds=1, iterations=1)


def test_combinational_all_vectors_speedup():
    problems = build_problem_set(
        n_problems=12, stimulus_cycles=_COMB_CYCLES
    )
    comb = [
        p for p in problems
        if p.module.interface.clock is None
        and is_stateless_comb(
            batch_design(
                elaborate(parse_source(p.golden_source), p.module.name),
                p.stimulus_cycles,
            )
        )
    ]
    assert comb, "no stateless combinational problems in the set"
    candidates = [
        elaborate(parse_source(p.golden_source), p.module.name) for p in comb
    ]
    refs = [harness._GoldenRef(p) for p in comb]

    def check_all(enabled):
        previous = harness.BATCH_CHECK_ENABLED
        harness.BATCH_CHECK_ENABLED = enabled
        try:
            return [
                harness._check_against_trace(ref, candidate, problem)
                for ref, candidate, problem in zip(refs, candidates, comb)
            ]
        finally:
            harness.BATCH_CHECK_ENABLED = previous

    fast_verdicts = check_all(True)  # warm lane lowering
    slow_verdicts = check_all(False)
    assert fast_verdicts == slow_verdicts  # verdict-identical
    assert all(v.equivalent for v in fast_verdicts)

    fast_seconds, _ = _timed(lambda: check_all(True), repeats=3)
    slow_seconds, _ = _timed(lambda: check_all(False), repeats=2)
    speedup = slow_seconds / fast_seconds
    checks = len(comb) * _COMB_CYCLES
    write_result(
        "batch_comb_check_speedup",
        f"combinational all-vectors checking, {len(comb)} problems x "
        f"{_COMB_CYCLES} stimulus vectors = {checks} vector checks\n"
        f"scalar per-cycle loop:     {slow_seconds:8.3f} s"
        f"  ({checks / slow_seconds:10.0f} vectors/s)\n"
        f"lane-parallel one settle:  {fast_seconds:8.3f} s"
        f"  ({checks / fast_seconds:10.0f} vectors/s)\n"
        f"speedup:                   {speedup:8.2f} x\n"
        f"(verdicts identical, including first-mismatch bookkeeping)",
        values={
            "vector_checks": checks,
            "scalar_seconds": slow_seconds,
            "batch_seconds": fast_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"all-vectors checking only {speedup:.2f}x faster than the loop"
    )


def _mutate(source: str, index: int) -> str:
    """A cheap, usually-still-parseable candidate variant per index."""
    replacements = [("+", "-"), ("&", "|"), ("<", ">="), ("^", "&")]
    for old, new in replacements[index % len(replacements):]:
        if old in source:
            return source.replace(old, new, 1)
    return source


def _pool_worker_run(problems) -> list:
    """One pool worker's life: cold in-process caches, golden + checks.

    Every worker pays golden parse/elaborate/stimulate/simulate per
    problem plus elaboration of each distinct candidate; duplicate
    completions repeat verbatim (the low-temperature regime).  The
    :mod:`repro.sim.cache` disk tier is the only state shared across
    runs.
    """
    harness._GOLDEN_CACHE.clear()
    verdicts = []
    for problem in problems:
        sources = [problem.golden_source, _mutate(problem.golden_source, 1)]
        for _ in range(_POOL_DUPLICATES):
            for source in sources:
                verdicts.append(
                    harness.check_candidate_source(problem, source)
                )
    return verdicts


def test_compile_cache_warm_vs_cold(tmp_path):
    problems = build_problem_set(n_problems=_POOL_PROBLEMS)
    baseline = _pool_worker_run(problems)  # no disk cache configured

    cache_root = tmp_path / "sim-cache"
    previous = sim_cache.configure(str(cache_root))
    try:
        cold_seconds, cold_verdicts = _timed(
            lambda: _pool_worker_run(problems), repeats=1
        )
        warm_seconds, warm_verdicts = _timed(
            lambda: _pool_worker_run(problems), repeats=2
        )
    finally:
        sim_cache.configure(previous)
        harness._GOLDEN_CACHE.clear()
    assert cold_verdicts == warm_verdicts == baseline  # cache is invisible
    speedup = cold_seconds / warm_seconds
    checks = len(cold_verdicts)
    write_result(
        "batch_cache_speedup",
        f"pool-worker-shaped run: {_POOL_PROBLEMS} problems, "
        f"{checks} candidate checks (duplicates included), "
        "fresh in-process caches per run\n"
        f"cold disk cache (writes):  {cold_seconds:8.3f} s\n"
        f"warm disk cache (hits):    {warm_seconds:8.3f} s\n"
        f"speedup:                   {speedup:8.2f} x\n"
        f"(verdicts identical with the cache disabled, cold, and warm)",
        values={
            "candidate_checks": checks,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 1.5, (
        f"warm compile cache only {speedup:.2f}x faster than cold"
    )


_WIDEPATH_SRC = """module widepath(
  input clk, input rst, input [15:0] d,
  output reg [95:0] acc, output [15:0] tap);
  assign tap = acc[95:80] ^ acc[15:0];
  always @(posedge clk) begin
    if (rst) acc <= 96'd0;
    else acc <= {acc[79:0], d} ^ {32'd0, acc[95:32]};
  end
endmodule
"""


def test_wide_datapath_spill_sweep_speedup():
    design = elaborate(parse_source(_WIDEPATH_SRC), "widepath")
    # The lever under test: >63-bit signals ride python-int spill lanes
    # instead of one scalar episode per seed.
    assert lane_representation(design) == "spill"
    seeds = range(_SWEEP_LANES)
    stimuli = [
        random_stimulus(design, _SWEEP_CYCLES, seed) for seed in seeds
    ]
    kwargs = dict(
        clock="clk", reset="rst", reset_active_high=True, stimuli=stimuli
    )

    def run_spill():
        return sweep_random_stimulus(
            design, _SWEEP_CYCLES, seeds, **kwargs
        )

    def run_fallback():
        # What an unbatchable design pays: 64 scalar compiled episodes.
        return sweep_random_stimulus(
            design, _SWEEP_CYCLES, seeds, backend="compiled", **kwargs
        )

    spill_result = run_spill()  # warm both compile caches
    fallback_result = run_fallback()
    assert spill_result.vectorized
    assert not fallback_result.vectorized
    assert spill_result.traces == fallback_result.traces  # lane-for-lane
    assert spill_result.errors == fallback_result.errors

    spill_seconds, _ = _timed(run_spill, repeats=5)
    fallback_seconds, _ = _timed(run_fallback, repeats=3)
    speedup = fallback_seconds / spill_seconds
    lane_cycles = _SWEEP_LANES * _SWEEP_CYCLES
    write_result(
        "batch_spill_sweep",
        f"wide-datapath (96-bit) multi-seed sweep, {_SWEEP_LANES} lanes "
        f"x {_SWEEP_CYCLES} cycles = {lane_cycles} lane-cycles\n"
        f"scalar fallback (per episode):   {fallback_seconds:8.3f} s"
        f"  ({lane_cycles / fallback_seconds:10.0f} lane-cycles/s)\n"
        f"spill lanes (one sweep):         {spill_seconds:8.3f} s"
        f"  ({lane_cycles / spill_seconds:10.0f} lane-cycles/s)\n"
        f"speedup:                         {speedup:8.2f} x\n"
        f"(per-lane traces and error classification identical)",
        values=dict(
            lanes=_SWEEP_LANES,
            cycles=_SWEEP_CYCLES,
            fallback_seconds=fallback_seconds,
            spill_seconds=spill_seconds,
            speedup=speedup,
        ),
    )
    assert speedup >= 3.0, (
        f"spill sweep only {speedup:.2f}x faster than the scalar fallback"
    )

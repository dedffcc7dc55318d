"""Persistent compile cache performance.

Claim, measured at bench scale: a pool-worker-shaped evaluation run
(fresh in-process caches, golden elaboration + trace + duplicate
candidate checks) with a warm :mod:`repro.sim.cache` directory runs
>=1.5x faster than the same run against a cold cache, with identical
verdicts.

(The lane benches that used to live here went with what they timed or
stopped holding once the scalar replay got faster than the lanes at
their sizes: the lane-per-candidate tier's last table is
``BENCH_23.json`` → ``deleted_ab``; the 64-lane sweep, all-vectors and
96-bit spill-sweep ratios, and the lane-count crossover tables that
replace them, are ``BENCH_24.json`` → ``deleted_ab`` /
``lane_sweep_crossover``.)

``bench_sim_perf.py`` guards the scalar paths; this file only adds
claims and relaxes none of that file's.
"""

import gc
import time

from repro.sim import cache as sim_cache
from repro.vereval import build_problem_set

import repro.vereval.harness as harness

from benchmarks.conftest import write_result

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

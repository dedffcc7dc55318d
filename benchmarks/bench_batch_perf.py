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
* **lockstep sequential pass@k checking** — N candidate completions of
  one clocked problem simulating one lane each under the shared golden
  stimulus (:func:`repro.vereval.check_candidates_lockstep`), with
  structural grouping, AST-level compile sharing, mismatch retirement,
  and dirty-level skipping — beats checking the same candidates one at
  a time on the scalar path by >=2x end to end (parse + elaborate +
  compile + simulate + verdict), candidate-for-candidate identical;
* **the lane floor is a measurement** — lockstep forced vs scalar forced
  on AST-distinct pools (every lane lowers its own image) of 2..64
  lanes, all-pass and half-mutant, on both lockstep DUTs
  (``results/lockstep_crossover.json``): at
  ``harness._MIN_LOCKSTEP_LANES`` forced lockstep is no slower than the
  scalar replay on the all-pass row of each;
* a pool-worker-shaped evaluation run (fresh in-process caches, golden
  elaboration + trace + duplicate candidate checks) with a warm
  :mod:`repro.sim.cache` directory runs >=1.5x faster than the same run
  against a cold cache, with identical verdicts;
* on a 1-bit-heavy sequential family lockstep checking beats the scalar
  candidate loop by >=1.5x (``results/batch_bitheavy_lockstep.json``);
  on a wide (>63-bit) datapath the multi-word spill lanes beat the
  scalar per-episode sweep by >=3x
  (``results/batch_spill_sweep.json``) — both lane-for-lane /
  verdict-for-verdict identical.

``bench_sim_perf.py`` and ``bench_eval_perf.py`` guard the scalar paths;
this file only adds claims, it does not relax theirs.
"""

import gc
import itertools
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
from repro.vereval import build_problem_set, check_candidates_lockstep
from repro.vereval.problems import EvalProblem
from repro.vgen import generate_family
from repro.vgen.base import GeneratedModule, ModuleInterface
from repro.verilog import parse_source

import repro.vereval.harness as harness

from benchmarks.conftest import write_result

_SWEEP_LANES = 64
_SWEEP_CYCLES = 96
_COMB_CYCLES = 384
_POOL_PROBLEMS = 12
_POOL_DUPLICATES = 3
_LOCKSTEP_CANDIDATES = 48
_LOCKSTEP_CYCLES = 384  # the production stimulus depth bench_sim_perf uses
_CROSSOVER_LANES = (2, 4, 8, 16, 32, 48, 64)


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


_LOCKSTEP_DUT = """module lockstep_dut(
  input clk, input rst, input [7:0] a, input [7:0] b,
  output reg [15:0] acc, output [7:0] mix);
  reg [7:0] stage;
  reg [7:0] window [0:7];
  reg [2:0] wptr;
  wire [8:0] sum;
  integer i;
  assign sum = {OP_SUM};
  assign mix = stage ^ ({OP_MIX}) ^ window[wptr];
  always @(posedge clk) begin
    if (rst) begin
      acc <= 16'd0; stage <= 8'd0; wptr <= 3'd0;
      for (i = 0; i < 8; i = i + 1) window[i] <= 8'd0;
    end else begin
      stage <= {OP_STAGE};
      window[wptr] <= {OP_WIN};
      wptr <= wptr + 3'd1;
      acc <= acc + {7'b0, sum};
    end
  end
endmodule
"""


def _lockstep_variant(op_sum="a + b", op_mix="a & b", op_stage="a ^ b",
                      op_win="a | b"):
    return (
        _LOCKSTEP_DUT.replace("{OP_SUM}", op_sum)
        .replace("{OP_MIX}", op_mix)
        .replace("{OP_STAGE}", op_stage)
        .replace("{OP_WIN}", op_win)
    )


def _lockstep_problem():
    module = GeneratedModule(
        family="bench",
        source=_lockstep_variant(),
        interface=ModuleInterface(
            module_name="lockstep_dut", clock="clk", reset="rst",
            reset_active_high=True,
            inputs=[("a", 8), ("b", 8)],
            outputs=[("acc", 16), ("mix", 8)],
        ),
        description="sequential lockstep pass@k benchmark DUT",
    )
    return EvalProblem(
        problem_id="lockstep_bench", module=module,
        stimulus_cycles=_LOCKSTEP_CYCLES, stimulus_seed=11,
    )


def _distinct_pool(variant, sites, tails, mutants, count, fail_every):
    """``count`` AST-distinct candidates of one schedule shape.

    AST-identical lanes share one compiled image, so a pool that is to
    measure what a *lane* costs needs candidates that differ in their
    ASTs.  Passing ones are every
    combination of operand order per site (``sites``: name -> the two
    spellings) under each identity tail applied to the first site, the
    golden spelling itself left out; with ``fail_every`` > 0 every
    ``fail_every``-th candidate is broken by one ``(site, old, new)``
    operator swap of ``mutants``.
    """
    names = list(sites)
    passing = []
    for tail in tails:
        for spellings in itertools.product(*sites.values()):
            kwargs = dict(zip(names, spellings))
            kwargs[names[0]] = tail.format(kwargs[names[0]])
            passing.append(kwargs)
    passing = passing[1:]  # [0] is the golden spelling
    assert count <= len(passing)
    sources = []
    for index in range(count):
        kwargs = dict(passing[index])
        if fail_every and index % fail_every == fail_every - 1:
            site, old, new = mutants[(index // fail_every) % len(mutants)]
            assert old in kwargs[site]
            kwargs[site] = kwargs[site].replace(old, new, 1)
        sources.append(variant(**kwargs))
    assert len(set(sources)) == count
    return sources


def _lockstep_candidates(count):
    """A low-temperature-shaped candidate pool for one problem.

    Three passing structural variants (commuted operands — distinct
    ASTs, same schedule shape) plus the golden, two failing mutations,
    and comment-only resamples of all of them: many texts, few
    structures, a 3:1 pass:fail ratio — the regime sequential pass@k
    checking actually sees.
    """
    passing = [
        _lockstep_variant(),
        _lockstep_variant("b + a"),
        _lockstep_variant(op_mix="b & a"),
        _lockstep_variant(op_stage="b ^ a"),
    ]
    failing = [
        _lockstep_variant(op_sum="a - b"),
        _lockstep_variant(op_win="a ^ b"),
    ]
    sources = []
    for index in range(count):
        if index % 4 == 3:
            base = failing[index % 2]
        else:
            base = passing[index % 4]
        if index >= 6:
            base = base + f"\n// resample {index}\n"
        sources.append(base)
    return sources


def _lockstep_distinct(count, fail_every):
    return _distinct_pool(
        _lockstep_variant,
        {
            "op_sum": ("a + b", "b + a"),
            "op_mix": ("a & b", "b & a"),
            "op_stage": ("a ^ b", "b ^ a"),
            "op_win": ("a | b", "b | a"),
        },
        ("{}", "{} + 9'd0", "({}) | 9'd0", "({}) ^ 9'd0", "({}) - 9'd0"),
        (("op_sum", " + ", " - "), ("op_win", " | ", " ^ ")),
        count,
        fail_every,
    )


def test_sequential_lockstep_passk_speedup():
    problem = _lockstep_problem()
    sources = _lockstep_candidates(_LOCKSTEP_CANDIDATES)
    harness._golden_ref(problem)  # golden artifacts shared by both paths

    def check_all(enabled):
        previous = harness.LOCKSTEP_CHECK_ENABLED
        harness.LOCKSTEP_CHECK_ENABLED = enabled
        try:
            # End to end per candidate: parse + elaborate + compile +
            # simulate + verdict (no disk cache, fresh designs per run).
            return check_candidates_lockstep(problem, sources)
        finally:
            harness.LOCKSTEP_CHECK_ENABLED = previous

    lockstep_verdicts = check_all(True)
    scalar_verdicts = check_all(False)
    assert lockstep_verdicts == scalar_verdicts  # candidate-for-candidate
    assert lockstep_verdicts == [
        harness.check_candidate_source(problem, source) for source in sources
    ]
    passes = sum(1 for passed, _ in lockstep_verdicts if passed)
    assert 0 < passes < len(sources)

    lockstep_seconds, _ = _timed(lambda: check_all(True), repeats=3)
    scalar_seconds, _ = _timed(lambda: check_all(False), repeats=3)
    speedup = scalar_seconds / lockstep_seconds
    checks = _LOCKSTEP_CANDIDATES * _LOCKSTEP_CYCLES
    write_result(
        "batch_lockstep_passk_speedup",
        f"sequential pass@k checking, {_LOCKSTEP_CANDIDATES} candidates x "
        f"{_LOCKSTEP_CYCLES} stimulus cycles = {checks} candidate-cycles "
        f"({passes} pass)\n"
        f"scalar per-candidate loop:  {scalar_seconds:8.3f} s"
        f"  ({checks / scalar_seconds:10.0f} candidate-cycles/s)\n"
        f"lockstep lanes:             {lockstep_seconds:8.3f} s"
        f"  ({checks / lockstep_seconds:10.0f} candidate-cycles/s)\n"
        f"speedup:                    {speedup:8.2f} x\n"
        f"(verdicts candidate-for-candidate identical, end to end: parse + "
        f"elaborate + compile + simulate + verdict)",
        values={
            "candidates": _LOCKSTEP_CANDIDATES,
            "cycles": _LOCKSTEP_CYCLES,
            "scalar_seconds": scalar_seconds,
            "lockstep_seconds": lockstep_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"lockstep checking only {speedup:.2f}x faster than the scalar loop"
    )


def test_lockstep_lane_crossover():
    """The measurement behind ``harness._MIN_LOCKSTEP_LANES``.

    The same AST-distinct pool, end to end, once with every group of two
    or more forced onto lanes and once with lockstep off, at each lane
    count, on both lockstep DUTs, for an all-pass pool (lockstep's best
    case: the scalar replay runs every cycle of every candidate) and a
    half-mutant one (its worst: the scalar replay leaves a mutant at its
    first bad cycle, the group keeps stepping while any lane survives).
    The floor has to hold on the worse DUT.
    """
    floor = harness._MIN_LOCKSTEP_LANES
    duts = (
        ("datapath", _lockstep_problem(), _lockstep_distinct),
        ("bitctl", _bitctl_problem(), _bitctl_distinct),
    )

    def check(problem, sources, lockstep):
        harness.LOCKSTEP_CHECK_ENABLED = lockstep
        return check_candidates_lockstep(problem, sources)

    rows = []
    enabled = harness.LOCKSTEP_CHECK_ENABLED
    harness._MIN_LOCKSTEP_LANES = 2  # "forced": every group rides lanes
    try:
        for dut, problem, pool in duts:
            harness._golden_ref(problem)
            for lanes in _CROSSOVER_LANES:
                for mix, fail_every in (("all_pass", 0), ("half_mutant", 2)):
                    sources = pool(lanes, fail_every)
                    assert check(problem, sources, True) == check(
                        problem, sources, False
                    )
                    lockstep_seconds, _ = _timed(
                        lambda: check(problem, sources, True), repeats=3
                    )
                    scalar_seconds, _ = _timed(
                        lambda: check(problem, sources, False), repeats=3
                    )
                    rows.append(
                        {
                            "dut": dut,
                            "lanes": lanes,
                            "mix": mix,
                            "lockstep_seconds": lockstep_seconds,
                            "scalar_seconds": scalar_seconds,
                            "speedup": scalar_seconds / lockstep_seconds,
                        }
                    )
    finally:
        harness._MIN_LOCKSTEP_LANES = floor
        harness.LOCKSTEP_CHECK_ENABLED = enabled
    lines = [
        f"lockstep vs scalar replay by group size, {_LOCKSTEP_CYCLES} "
        f"cycles, AST-distinct candidates, end to end "
        f"(floor = {floor} lanes)",
        f"{'dut':<9} {'lanes':>5} {'mix':<12} {'scalar s':>9} "
        f"{'lockstep s':>11} {'speedup':>8}",
    ]
    lines.extend(
        f"{row['dut']:<9} {row['lanes']:>5} {row['mix']:<12} "
        f"{row['scalar_seconds']:>9.4f} {row['lockstep_seconds']:>11.4f} "
        f"{row['speedup']:>7.2f}x"
        for row in rows
    )
    write_result(
        "lockstep_crossover",
        "\n".join(lines),
        values={"cycles": _LOCKSTEP_CYCLES, "floor": floor, "rows": rows},
    )
    assert floor in _CROSSOVER_LANES
    for row in rows:
        if row["lanes"] == floor and row["mix"] == "all_pass":
            assert row["speedup"] >= 1.0, (
                f"at the committed floor of {floor} lanes forced lockstep "
                f"is {row['speedup']:.2f}x the scalar replay on the "
                f"all-pass {row['dut']} pool: raise _MIN_LOCKSTEP_LANES"
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


_BITCTL_DUT = """module bitctl_dut(
  input clk, input rst, input en, input din, input sel,
  output reg out, output valid, output tick);
  reg s0; reg s1; reg s2; reg s3;
  wire fb;
  assign fb = s3 ^ ({OP_FB});
  assign valid = (s0 ^ s1) | (s2 & en);
  assign tick = {OP_TICK};
  always @(posedge clk) begin
    if (rst) begin
      s0 <= 1'b0; s1 <= 1'b0; s2 <= 1'b0; s3 <= 1'b0; out <= 1'b0;
    end else if (en) begin
      s0 <= fb;
      s1 <= s0;
      s2 <= s1 ^ sel;
      s3 <= {OP_S3};
      out <= valid ^ fb;
    end
  end
endmodule
"""


def _bitctl_variant(op_fb="s0 ^ din", op_tick="s1 | s2", op_s3="s2 ^ s0"):
    return (
        _BITCTL_DUT.replace("{OP_FB}", op_fb)
        .replace("{OP_TICK}", op_tick)
        .replace("{OP_S3}", op_s3)
    )


def _bitctl_problem():
    module = GeneratedModule(
        family="bench",
        source=_bitctl_variant(),
        interface=ModuleInterface(
            module_name="bitctl_dut", clock="clk", reset="rst",
            reset_active_high=True,
            inputs=[("en", 1), ("din", 1), ("sel", 1)],
            outputs=[("out", 1), ("valid", 1), ("tick", 1)],
        ),
        description="1-bit-heavy sequential lockstep benchmark DUT",
    )
    return EvalProblem(
        problem_id="bitheavy_lockstep_bench", module=module,
        stimulus_cycles=_LOCKSTEP_CYCLES, stimulus_seed=13,
    )


def _bitctl_candidates(count):
    passing = [
        _bitctl_variant(),
        _bitctl_variant(op_fb="din ^ s0"),
        _bitctl_variant(op_tick="s2 | s1"),
        _bitctl_variant(op_s3="s0 ^ s2"),
    ]
    failing = [
        _bitctl_variant(op_fb="s0 & din"),
        _bitctl_variant(op_tick="s1 & s2"),
    ]
    sources = []
    for index in range(count):
        if index % 4 == 3:
            base = failing[index % 2]
        else:
            base = passing[index % 4]
        if index >= 6:
            base = base + f"\n// resample {index}\n"
        sources.append(base)
    return sources


def _bitctl_distinct(count, fail_every):
    return _distinct_pool(
        _bitctl_variant,
        {
            "op_fb": ("s0 ^ din", "din ^ s0"),
            "op_tick": ("s1 | s2", "s2 | s1"),
            "op_s3": ("s2 ^ s0", "s0 ^ s2"),
        },
        (
            "{}", "({}) ^ 1'b0", "({}) | 1'b0", "({}) & 1'b1",
            "~(~({}))", "({}) ^ 1'b0 ^ 1'b0", "({}) | 1'b0 | 1'b0",
            "({}) & 1'b1 & 1'b1", "({}) | 1'b0 ^ 1'b0",
        ),
        (("op_fb", " ^ ", " & "), ("op_tick", " | ", " & ")),
        count,
        fail_every,
    )


def test_bitheavy_lockstep_passk_speedup():
    problem = _bitctl_problem()
    sources = _bitctl_candidates(_LOCKSTEP_CANDIDATES)
    harness._golden_ref(problem)  # golden artifacts shared by both paths

    def check_all(enabled):
        previous = harness.LOCKSTEP_CHECK_ENABLED
        harness.LOCKSTEP_CHECK_ENABLED = enabled
        try:
            return check_candidates_lockstep(problem, sources)
        finally:
            harness.LOCKSTEP_CHECK_ENABLED = previous

    lockstep_verdicts = check_all(True)
    scalar_verdicts = check_all(False)
    assert lockstep_verdicts == scalar_verdicts  # candidate-for-candidate
    passes = sum(1 for passed, _ in lockstep_verdicts if passed)
    assert 0 < passes < len(sources)

    lockstep_seconds, _ = _timed(lambda: check_all(True), repeats=3)
    scalar_seconds, _ = _timed(lambda: check_all(False), repeats=3)
    speedup = scalar_seconds / lockstep_seconds
    checks = _LOCKSTEP_CANDIDATES * _LOCKSTEP_CYCLES
    write_result(
        "batch_bitheavy_lockstep",
        f"lockstep pass@k on a 1-bit-heavy family, "
        f"{_LOCKSTEP_CANDIDATES} candidates x {_LOCKSTEP_CYCLES} cycles "
        f"= {checks} candidate-cycles ({passes} pass)\n"
        f"scalar per-candidate loop:  {scalar_seconds:8.3f} s"
        f"  ({checks / scalar_seconds:10.0f} candidate-cycles/s)\n"
        f"lockstep lanes:             {lockstep_seconds:8.3f} s"
        f"  ({checks / lockstep_seconds:10.0f} candidate-cycles/s)\n"
        f"speedup:                    {speedup:8.2f} x\n"
        f"(verdicts candidate-for-candidate identical)",
        values=dict(
            candidates=_LOCKSTEP_CANDIDATES,
            cycles=_LOCKSTEP_CYCLES,
            scalar_seconds=scalar_seconds,
            lockstep_seconds=lockstep_seconds,
            speedup=speedup,
        ),
    )
    assert speedup >= 1.5, (
        f"1-bit-heavy lockstep only {speedup:.2f}x faster than the loop"
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

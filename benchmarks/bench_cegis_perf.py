"""CEGIS checking economics: set pre-check amortization.

One claim, one artifact (``benchmarks/results/cegis.json``): once a
falsification search has minted a distinguishing vector for a hardened
problem, the Nth near-miss candidate dies against the persisted set at a
few cycles' cost instead of a fresh full-depth random-stimulus check
(asserted ≥2x cheaper, measured much larger).
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.sim import cache as sim_cache
from repro.vereval import EvalProblem, cegis, harness
from repro.vgen import GeneratedModule, ModuleInterface

from benchmarks.conftest import write_result

#: deep stimulus so simulation (not parse/elaborate) dominates the
#: full-check cost being amortized
_TRAP_CYCLES = 1024
_N_CANDIDATES = 12


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


# A 4-stage 32-bit pipeline whose near-miss mutants mishandle exactly one
# input value (2^32-1): blind spots for uniform random stimulus, killed
# by the boundary episodes of the falsification search.
_TRAP_GOLDEN = """module cegis_trap(
  input wire clk,
  input wire rst,
  input wire [31:0] d,
  output wire [31:0] q,
  output wire [31:0] acc
);
  reg [31:0] s0;
  reg [31:0] s1;
  reg [31:0] s2;
  reg [31:0] a;
  always @(posedge clk) begin
    if (rst) begin
      s0 <= 32'd0;
      s1 <= 32'd0;
      s2 <= 32'd0;
      a <= 32'd0;
    end else begin
      s0 <= d;
      s1 <= s0 ^ (s0 >> 3);
      s2 <= s1 + 32'd1;
      a <= a + s2;
    end
  end
  assign q = s2;
  assign acc = a;
endmodule
"""

_TRAP_MUTANT = _TRAP_GOLDEN.replace(
    "s0 <= d;", "s0 <= (d == 32'd4294967295) ? 32'd1 : d;"
)


def _trap_problem():
    interface = ModuleInterface(
        module_name="cegis_trap",
        clock="clk",
        reset="rst",
        inputs=[("d", 32)],
        outputs=[("q", 32), ("acc", 32)],
    )
    module = GeneratedModule(
        family="handmade",
        source=_TRAP_GOLDEN,
        interface=interface,
        description="pipeline with an equality trap",
        params={},
    )
    return EvalProblem(
        problem_id="bench-trap",
        module=module,
        stimulus_cycles=_TRAP_CYCLES,
        stimulus_seed=3,
    )


def _clear_cegis_state():
    harness._GOLDEN_CACHE.clear()
    cegis._SET_CACHE.clear()
    cegis._CLEAR_MEMO.clear()
    cegis._GOLDEN_SWEEP_CACHE.clear()


@pytest.fixture()
def cegis_cache(tmp_path):
    previous = sim_cache.configure(str(tmp_path))
    _clear_cegis_state()
    try:
        yield str(tmp_path)
    finally:
        sim_cache.configure(previous)
        _clear_cegis_state()


def test_set_precheck_amortizes_full_checks(cegis_cache):
    """The Nth near-miss on a hardened problem is ≥2x cheaper via the
    persisted distinguishing set than via a fresh full-depth check."""
    problem = _trap_problem()
    config = cegis.CegisConfig(enabled=True)

    # distinct near-miss variants per arm so neither arm's candidate
    # elaboration warms the other's sim_cache entries
    fresh_variants = [
        _TRAP_MUTANT + f"// fresh {index}\n" for index in range(_N_CANDIDATES)
    ]
    hardened_variants = [
        _TRAP_MUTANT + f"// hard {index}\n" for index in range(_N_CANDIDATES)
    ]

    # Arm 1 — legacy checker, full random-stimulus check per candidate.
    # The trap survives every one of them (the verdicts prove it).
    previous = cegis.configure(cegis.CegisConfig(enabled=False))
    try:
        harness._golden_ref(problem)  # golden built outside the timer
        legacy_seconds, legacy_verdicts = _timed(
            lambda: [
                harness.check_candidate_source(problem, variant)
                for variant in fresh_variants
            ],
            repeats=1,
        )
    finally:
        cegis.configure(previous)
    assert all(passed for passed, _ in legacy_verdicts)

    # Harden the problem: one search mints the distinguishing vector.
    previous = cegis.configure(config)
    try:
        harness._GOLDEN_CACHE.clear()
        harness._golden_ref(problem)
        passed, _ = harness.check_candidate_source(problem, _TRAP_MUTANT)
        assert not passed  # falsification search caught the trap
        assert len(cegis.distinguishing_set(problem)) >= 1

        # Arm 2 — every later near-miss dies against the set pre-check.
        cegis_seconds, cegis_verdicts = _timed(
            lambda: [
                harness.check_candidate_source(problem, variant)
                for variant in hardened_variants
            ],
            repeats=1,
        )
    finally:
        cegis.configure(previous)
    assert all(not passed for passed, _ in cegis_verdicts)

    legacy_per = legacy_seconds / _N_CANDIDATES
    cegis_per = cegis_seconds / _N_CANDIDATES
    speedup = legacy_per / cegis_per
    write_result(
        "cegis",
        f"distinguishing-set pre-check, {_N_CANDIDATES} near-miss "
        f"candidates, {_TRAP_CYCLES}-cycle stimulus\n"
        f"fresh full check (passes the trap!): {legacy_per * 1e3:8.2f} "
        f"ms/candidate\n"
        f"hardened set pre-check (kills it):   {cegis_per * 1e3:8.2f} "
        f"ms/candidate\n"
        f"speedup: {speedup:.1f}x  "
        f"(floor asserted: 2x)",
        values={
            "precheck_candidates": _N_CANDIDATES,
            "precheck_stimulus_cycles": _TRAP_CYCLES,
            "precheck_fresh_ms_per_candidate": legacy_per * 1e3,
            "precheck_hardened_ms_per_candidate": cegis_per * 1e3,
            "precheck_speedup": speedup,
        },
    )
    assert speedup >= 2.0

"""Simulation performance: compiled backend vs the interpreter reference.

Claims, measured at bench scale:

* the compiled backend (levelized, slot-indexed, generated source;
  :mod:`repro.sim.compile`) simulates the fifo microbench at >=5x the
  interpreter's cycles/sec, *including* its one-time compile cost;
* compilation amortizes within the first handful of cycles (compile time
  is a small multiple of one interpreter cycle);
* the end-to-end pass@k evaluation protocol — generation plus functional
  checking — speeds up >=2x from the simulator backend swap alone, with
  identical results, once candidate simulation carries production-depth
  stimulus (384 cycles/problem; at the paper's 24-cycle smoke depth the
  n-gram sampler is the floor and the ratio shrinks toward 1).

Both comparisons run the *current* harness code on both backends, so the
deltas isolate the execution backend.
"""

import gc
import time

import pytest

from repro.evalkit import EvalPlan, PassAtKTask
from repro.sim import Testbench, compile_design, elaborate, set_default_backend
from repro.utils.rng import DeterministicRNG
from repro.vereval import EvalConfig, build_problem_set
from repro.vgen import generate_family
from repro.verilog import parse_source

from benchmarks.conftest import write_result

_FIFO_CYCLES = 300

_EVAL_STIMULUS_CYCLES = 384
_EVAL_CONFIG = EvalConfig(
    n_samples=4, ks=(1, 4), temperatures=(0.2, 0.8), max_new_tokens=400
)


@pytest.fixture(scope="module")
def fifo_module():
    return generate_family("fifo", DeterministicRNG(0x9EEF))


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


def _run_fifo(source, name, backend, cycles=_FIFO_CYCLES):
    """Elaborate-and-simulate, the per-candidate shape of the eval funnel."""
    design = elaborate(parse_source(source), name)
    bench = Testbench(design, clock="clk", reset="rst", backend=backend)
    bench.apply_reset()
    step = bench.step
    for i in range(cycles):
        step({"push": i % 2, "pop": i % 3 == 0, "din": i & 0xFF})
    return bench.sample()


def test_compiled_backend_speedup(benchmark, fifo_module):
    source, name = fifo_module.source, fifo_module.name

    interp_seconds, interp_out = _timed(
        lambda: _run_fifo(source, name, "interp"), repeats=2
    )
    compiled_seconds, compiled_out = _timed(
        lambda: _run_fifo(source, name, "compiled"), repeats=3
    )
    assert compiled_out == interp_out  # cycle-identical end state

    # Compile-time amortization: one compile costs a few interpreter
    # cycles, and it is cached on the Design for every later Simulator.
    # Elaboration happens outside the timer (both backends pay it); each
    # repeat compiles a fresh Design so the cache cannot short-circuit.
    fresh_designs = [
        elaborate(parse_source(source), name) for _ in range(3)
    ]
    compile_seconds, compiled_design = _timed(
        lambda: compile_design(fresh_designs.pop()), repeats=3
    )
    assert compiled_design.levelized
    interp_cycle = interp_seconds / _FIFO_CYCLES
    amortize_cycles = compile_seconds / max(
        interp_cycle - compiled_seconds / _FIFO_CYCLES, 1e-9
    )

    speedup = interp_seconds / compiled_seconds
    interp_cps = _FIFO_CYCLES / interp_seconds
    compiled_cps = _FIFO_CYCLES / compiled_seconds
    write_result(
        "sim_speedup",
        f"fifo microbench, {_FIFO_CYCLES} cycles (elaborate + simulate)\n"
        f"interpreter backend:  {interp_seconds:8.3f} s"
        f"  ({interp_cps:10.0f} cycles/s)\n"
        f"compiled backend:     {compiled_seconds:8.3f} s"
        f"  ({compiled_cps:10.0f} cycles/s, compile included)\n"
        f"speedup:              {speedup:8.2f} x\n"
        f"compile_design time:  {compile_seconds * 1e3:8.2f} ms"
        f"  (amortized after ~{amortize_cycles:.0f} interpreter cycles)\n"
        f"(final simulator state identical across backends)",
        values={
            "cycles": _FIFO_CYCLES,
            "interp_seconds": interp_seconds,
            "compiled_seconds": compiled_seconds,
            "compile_seconds": compile_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, (
        f"compiled backend only {speedup:.2f}x faster than interpreter"
    )
    benchmark.pedantic(
        lambda: _run_fifo(source, name, "compiled"), rounds=1, iterations=1
    )


def test_end_to_end_eval_speedup(trainer):
    # The trained model's completions mostly elaborate, so the functional
    # check — candidate simulation under deep stimulus — carries the run.
    model = trainer.train()
    problems = build_problem_set(
        n_problems=20, seed=0xE7A1, stimulus_cycles=_EVAL_STIMULUS_CYCLES
    )

    def eval_once():
        # Cold start each run: the golden parse/elab/trace cache is
        # rebuilt so both backends pay the same per-problem setup.
        import repro.vereval.harness as harness

        harness._GOLDEN_CACHE.clear()
        plan = EvalPlan([model], [PassAtKTask(problems, _EVAL_CONFIG)])
        return plan.run().result(model.name, "passk")

    def eval_with(backend):
        previous = set_default_backend(backend)
        try:
            return _timed(eval_once, repeats=2)
        finally:
            set_default_backend(previous)

    interp_seconds, interp_result = eval_with("interp")
    compiled_seconds, compiled_result = eval_with("auto")
    assert compiled_result == interp_result  # identical pass@k + outcomes

    samples = (
        len(problems) * len(_EVAL_CONFIG.temperatures) * _EVAL_CONFIG.n_samples
    )
    speedup = interp_seconds / compiled_seconds
    write_result(
        "sim_eval_speedup",
        f"pass@k protocol, {len(problems)} problems x "
        f"{len(_EVAL_CONFIG.temperatures)} temperatures x "
        f"{_EVAL_CONFIG.n_samples} samples = {samples} samples, "
        f"{_EVAL_STIMULUS_CYCLES} stimulus cycles/problem\n"
        f"interpreter backend:  {interp_seconds:8.3f} s\n"
        f"compiled backend:     {compiled_seconds:8.3f} s\n"
        f"end-to-end speedup:   {speedup:8.2f} x\n"
        f"(pass@k, outcomes, and failure reasons identical)",
        values={
            "samples": samples,
            "interp_seconds": interp_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"end-to-end eval only {speedup:.2f}x faster on the compiled backend"
    )

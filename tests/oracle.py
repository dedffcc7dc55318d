"""Independent reference verdicts for the functional checker.

:func:`lockstep_verdict` is the seed-era check of one candidate source:
the reference lexer (:func:`repro.verilog.parse_source`), a fresh
elaboration of golden and candidate, the golden's own random stimulus
drawn by :func:`reference_stimulus`, and
:func:`repro.sim.equivalence_check` simulating both designs in
lockstep.  It shares nothing with the pool path of
:mod:`repro.vereval.harness` past the elaborator and the simulator
backends: no fast lexer, no row generator, no golden trace or golden
cache, no ``sim.cache``, no replay loop.  The
differential suites hold the pool to it, candidate for candidate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ElaborationError, LexError, ParseError
from repro.sim import (
    EquivalenceResult,
    elaborate,
    equivalence_check,
)
from repro.utils.rng import DeterministicRNG
from repro.verilog import parse_source
from repro.vereval.problems import EvalProblem


def reference_stimulus(
    design,
    cycles: int,
    seed: int,
    exclude: Sequence[str] = ("clk", "rst", "rst_n", "reset", "resetn"),
) -> List[Dict[str, int]]:
    """The seed-era stimulus generator: one
    ``DeterministicRNG.randint(0, 2**width - 1)`` per data input per
    cycle, as per-cycle dicts in input order.
    :func:`repro.sim.random_rows` must draw exactly this stream."""
    rng = DeterministicRNG(seed)
    spans = [
        (s.name, (1 << s.width) - 1)
        for s in design.inputs
        if s.name not in exclude
    ]
    return [
        {name: rng.randint(0, hi) for name, hi in spans}
        for _ in range(cycles)
    ]


def lockstep_result(problem: EvalProblem, candidate) -> EquivalenceResult:
    """The full lockstep result for an elaborated ``candidate`` design."""
    golden = elaborate(
        parse_source(problem.golden_source), problem.module.name
    )
    interface = problem.module.interface
    return equivalence_check(
        golden,
        candidate,
        reference_stimulus(
            golden, problem.stimulus_cycles, seed=problem.stimulus_seed
        ),
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
    )


def lockstep_verdict(problem: EvalProblem, source: str) -> Tuple[bool, str]:
    """``(passed, failure_reason)`` for one full candidate source, in the
    classification :func:`repro.vereval.check_candidates_lockstep`
    promises."""
    try:
        candidate_file = parse_source(source)
    except (LexError, ParseError):
        return False, "syntax"
    except Exception:
        return False, "internal"
    name = problem.module.name
    if candidate_file.module(name) is None:
        return False, "missing_module"
    try:
        verdict = lockstep_result(problem, elaborate(candidate_file, name))
    except ElaborationError:
        return False, "elaboration"
    if verdict.equivalent:
        return True, ""
    return False, verdict.error or "mismatch"

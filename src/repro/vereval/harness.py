"""Generation + functional-check harness producing pass@k scores.

Since the evalkit refactor this module plays two roles:

* it owns the *verdict* for one completion (:func:`check_completion`),
  backed by a per-problem cache of golden artifacts — the golden module
  is parsed, elaborated, stimulated, and simulated **once per problem**
  and every candidate is then checked against the recorded golden output
  trace, instead of re-deriving all of that per sample.  Golden and
  candidate simulation both run on the compiled simulator backend
  (:mod:`repro.sim.compile`) through the :class:`~repro.sim.Testbench`
  facade over the stimulus the golden bundle keeps as value rows: the
  golden trace is one :meth:`~repro.sim.Simulator.cycle_fn` call per
  cycle, a candidate's replay one :meth:`~repro.sim.Simulator.replay_fn`
  call per episode; the interpreter backend is cycle-identical and kicks
  in automatically for candidates the compiler cannot statically lower;
* the *pool* (:func:`check_candidates_lockstep`) is the only verdict
  path; :func:`check_candidate_source` is a pool of one.  Many
  candidates of one problem check in one call — duplicate sources and
  token-identical files collapse to one check, a file token-identical to
  the golden passes without one, and each other distinct elaborating
  design takes one of two rungs: stateless combinational candidates the
  all-vectors lane fast path (:func:`_check_all_vectors_batch`, one
  stimulus vector per lane), everything else the scalar replay against
  the golden trace, which leaves a mutant at its first bad cycle;
* :func:`evaluate_model` is a thin facade compiling the paper's pass@k
  protocol into a :class:`repro.evalkit.EvalPlan`, which runs it through
  the streaming/parallel/checkpointable engine with numerically identical
  results (same :class:`DeterministicRNG` fork chain per sample).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import (
    ConfigError,
    ElaborationError,
    LexError,
    ParseError,
    SimulationError,
)
from repro.llm.model import LanguageModel
from repro.llm.sampler import check_max_new_tokens, check_temperature
from repro.sim import (
    EquivalenceResult,
    StimulusVector,
    Testbench,
    elaborate,
    interface_signature,
    random_rows,
)
from repro.sim import cache as sim_cache
from repro.utils.rng import DeterministicRNG
from repro.verilog import lex_source_digest, parse_stream
from repro.vereval.passk import mean_pass_at_k
from repro.vereval.problems import EvalProblem

@dataclass
class EvalConfig:
    """Evaluation protocol parameters (paper defaults)."""

    n_samples: int = 10
    ks: Tuple[int, ...] = (1, 5, 10)
    temperatures: Tuple[float, ...] = (0.2, 0.8)
    max_new_tokens: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        # what a plan could not aggregate, or GenerationConfig would
        # refuse, refused before a plan runs
        if not self.ks or min(self.ks) < 1:
            raise ConfigError(
                f"ks must be non-empty with every k >= 1, got {self.ks!r}"
            )
        if self.n_samples < max(self.ks):
            raise ConfigError(
                f"n_samples must be >= max k, got {self.n_samples!r}"
                f" < {max(self.ks)!r}"
            )
        if not self.temperatures:
            raise ConfigError(
                f"temperatures must be non-empty, got {self.temperatures!r}"
            )
        for temperature in self.temperatures:
            check_temperature(temperature)
        check_max_new_tokens(self.max_new_tokens)


@dataclass
class ProblemOutcome:
    """Per-problem sample outcomes at one temperature."""

    problem_id: str
    passes: int
    samples: int
    failures: Dict[str, int] = field(default_factory=dict)  # reason -> count


@dataclass
class EvalResult:
    """pass@k per temperature plus the paper's best-of-temperatures row."""

    model_name: str
    per_temperature: Dict[float, Dict[int, float]] = field(default_factory=dict)
    outcomes: Dict[float, List[ProblemOutcome]] = field(default_factory=dict)

    def best(self) -> Dict[int, float]:
        """Best pass@k over temperatures (the paper reports the best run)."""
        best: Dict[int, float] = {}
        for scores in self.per_temperature.values():
            for k, value in scores.items():
                if value > best.get(k, -1.0):
                    best[k] = value
        return best

    def summary(self) -> str:
        parts = [f"{self.model_name}:"]
        for k, value in sorted(self.best().items()):
            parts.append(f"pass@{k}={value * 100:.1f}%")
        return " ".join(parts)


class _GoldenRef:
    """Per-problem golden artifacts, derived once and reused per sample.

    ``rows`` holds one tuple of input values per stimulus cycle, aligned
    to ``input_names`` (the shape both kernels take; ``stimulus`` is a
    dict view of it), and ``trace`` one tuple of golden output values per
    cycle, aligned to the frozen ``output_names`` tuple, recorded under
    the exact reset/clock protocol of :func:`repro.sim.equivalence_check`; a
    candidate is then simulated alone and its output tuples compared
    against the trace, which is verdict-identical to lockstep simulation
    of both designs but does the golden half of the work once per problem
    instead of once per sample — and compares flat tuples instead of
    iterating per-cycle dicts in the innermost check loop.

    ``lanes`` is None until the all-vectors rung first checks a candidate
    against this bundle; it then holds that rung's per-problem arrays
    (:func:`_bundle_lanes`): one read-only int64 column per input and the
    ``[cycles, outputs]`` expected matrix.  They are pickled with the
    bundle, so a warm check never builds them.
    """

    __slots__ = (
        "design", "signature", "input_names", "rows", "output_names",
        "trace", "error", "error_phase", "lanes",
    )

    def __init__(self, problem: EvalProblem) -> None:
        stream, digest = lex_source_digest(problem.golden_source)
        self.design = elaborate(parse_stream(stream), problem.module.name)
        self.design.token_digest = digest
        self.design.source_text = problem.golden_source
        self.signature = interface_signature(self.design)
        #: the stimulus as the cycle kernel takes it: input names once,
        #: one value row per cycle (see :attr:`stimulus`)
        self.input_names, self.rows = random_rows(
            self.design, problem.stimulus_cycles, seed=problem.stimulus_seed
        )
        #: per-cycle golden output tuples; cut short when the golden
        #: simulation itself errors, with the message and the phase it
        #: failed in recorded so candidates observe the exact verdict
        #: lockstep simulation would have produced
        self.output_names: Tuple[str, ...] = ()
        self.trace: List[Tuple[int, ...]] = []
        self.error: Optional[str] = None
        self.error_phase: str = ""  # "" | "construct" | "reset" | "step"
        self.lanes: Optional[Tuple[Dict[str, np.ndarray], np.ndarray]] = None
        interface = problem.module.interface
        phase = "construct"
        try:
            bench = Testbench(
                self.design,
                clock=interface.clock,
                reset=interface.reset,
                reset_active_high=interface.reset_active_high,
            )
            self.output_names = tuple(bench.output_names)
            phase = "reset"
            bench.apply_reset()
            phase = "step"
            step = bench.sim.cycle_fn(
                bench.clock, self.input_names, self.output_names
            )
            for row in self.rows:
                self.trace.append(step(row))
        except SimulationError as exc:
            self.error = str(exc)
            self.error_phase = phase
        obs.count("sim.cycles", len(self.trace))

    @property
    def stimulus(self) -> List[StimulusVector]:
        """The stimulus as per-cycle input dicts: a view of ``rows``."""
        names = self.input_names
        return [dict(zip(names, row)) for row in self.rows]

    def __setstate__(self, state) -> None:
        # Slots only.  An entry of an older layout (one that stored the
        # stimulus dicts) must still unpickle, so that repro.sim.cache
        # counts it as a version mismatch instead of a corrupt entry; the
        # dropped "coverage" / "full_cycles" slots are skipped, so a
        # bundle that still carries them stays a hit.
        _, slots = state
        for name, value in slots.items():
            if name in _GoldenRef.__slots__:
                setattr(self, name, value)
        lanes = slots.get("lanes")
        if lanes is not None:
            _frozen(lanes)  # an unpickled array is writeable again


#: golden artifacts keyed by problem identity *and* content (including
#: the clock/reset protocol the trace was recorded under), so a problem
#: object rebuilt with the same data hits the cache while a redefined one
#: cannot alias a stale entry; LRU-ordered so sweeps wider than the
#: capacity evict the coldest problem instead of thrashing to zero
_GOLDEN_CACHE: "OrderedDict[Tuple, _GoldenRef]" = OrderedDict()
_GOLDEN_CACHE_MAX = 256


def _golden_disk_key(problem: EvalProblem) -> Tuple[str, ...]:
    """Content-addressed disk key parts (identity-free: same source +
    protocol means the same artifact regardless of problem_id)."""
    interface = problem.module.interface
    return (
        problem.golden_source,
        problem.module.name,
        repr(
            (
                problem.stimulus_cycles,
                problem.stimulus_seed,
                interface.clock,
                interface.reset,
                interface.reset_active_high,
            )
        ),
    )


def _golden_key(problem: EvalProblem) -> Tuple:
    """The problem's key in :data:`_GOLDEN_CACHE`."""
    interface = problem.module.interface
    return (
        problem.problem_id,
        problem.module.name,
        problem.stimulus_cycles,
        problem.stimulus_seed,
        interface.clock,
        interface.reset,
        interface.reset_active_high,
        problem.golden_source,
    )


def _golden_ref(
    problem: EvalProblem, pack: Optional[list] = None
) -> _GoldenRef:
    """The problem's golden bundle: from memory, from ``sim.cache``, or
    built here.  A bundle built here is not stored; it is appended to
    ``pack`` as a :func:`repro.sim.cache.store_many` entry, which the
    pool writes with the designs it elaborated."""
    key = _golden_key(problem)
    ref = _GOLDEN_CACHE.get(key)
    if ref is not None:
        _GOLDEN_CACHE.move_to_end(key)
        return ref
    disk_key = _golden_disk_key(problem)
    ref = sim_cache.load("golden-ref", *disk_key)
    if not isinstance(ref, _GoldenRef):
        # Cold: the full parse→elaborate→stimulate→simulate pipeline runs
        # here, once per problem — the span names the problem so slow
        # goldens show up in trace reports.
        with obs.span(
            "vereval.golden", problem=problem.problem_id,
            cycles=problem.stimulus_cycles,
        ):
            ref = _GoldenRef(problem)
        if pack is not None:
            pack.append(("golden-ref", disk_key, ref))
    while len(_GOLDEN_CACHE) >= _GOLDEN_CACHE_MAX:
        _GOLDEN_CACHE.popitem(last=False)
    _GOLDEN_CACHE[key] = ref
    return ref


def _frozen(lanes):
    """``lanes`` with every array marked read-only."""
    columns, expected = lanes
    for array in (*columns.values(), expected):
        array.flags.writeable = False
    return lanes


def _bundle_lanes(ref) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """The all-vectors rung's per-problem arrays, built on first use and
    kept in ``ref.lanes``: one int64 column per input (``name ->
    [cycles]``) and the ``[cycles, outputs]`` expected matrix, all
    read-only.  Raises ``OverflowError`` for a value past int64."""
    from repro.sim.retire import expected_matrix, lane_vector

    if ref.lanes is None:
        columns = {
            name: lane_vector(column)
            for name, column in zip(ref.input_names, zip(*ref.rows))
        }
        expected = expected_matrix(ref.trace, len(ref.output_names))
        ref.lanes = _frozen((columns, expected))
    return ref.lanes


def _check_all_vectors_batch(
    ref: _GoldenRef, candidate, problem: EvalProblem
) -> Optional[EquivalenceResult]:
    """Combinational fast path: every stimulus vector rides its own lane.

    Valid only when the problem is unclocked and the candidate is
    stateless combinational — what :func:`repro.sim.batch.batch_design`
    lowers: outputs are then a pure function of the current inputs, so N
    per-cycle scalar steps collapse into one lane-parallel settle.
    Returns None — caller takes the scalar loop — when the problem or
    golden rules the rung out, and (counted as ``batch.fallback_scalar``)
    when the candidate does not lane-lower (state of any kind, a select
    lvalue, no levelized schedule, anything wider than 63 bits) or its
    settle raises; the verdict (including first-mismatch bookkeeping) is
    identical either way: comparison and bookkeeping run on
    :class:`repro.sim.retire.RetireEngine` in all-vectors mode (lane =
    stimulus vector).
    """
    from repro.sim import default_backend

    interface = problem.module.interface
    if (
        # An explicitly pinned interpreter backend is a ground-truth run;
        # it must not silently route through the lane evaluator.
        default_backend() == "interp"
        or interface.clock is not None
        or ref.error is not None
        or not ref.rows
        or not ref.output_names
    ):
        return None
    from repro.sim.batch import BatchSimulator
    from repro.sim.compile import UncompilableDesign
    from repro.sim.retire import RetireEngine

    n_lanes = len(ref.rows)
    try:
        sim = BatchSimulator(candidate, n_lanes=n_lanes)
        columns, expected = _bundle_lanes(ref)
        engine = RetireEngine(ref.output_names, expected, n_lanes)
        vector: Dict[str, object] = {}
        reset = interface.reset
        if reset is not None and any(
            s.name == reset for s in candidate.inputs
        ):
            # Net effect of apply_reset on a stateless design: the reset
            # input rests at its deasserted level.
            vector[reset] = 0 if interface.reset_active_high else 1
        vector.update(columns)
        sim.poke_many(vector)
        actual = np.stack(
            [sim.peek_lanes(name) for name in ref.output_names], axis=1
        )
    except (UncompilableDesign, SimulationError, OverflowError, ValueError):
        # Eligible but the lane lowering/run failed: the caller replays
        # the candidate on the scalar per-cycle loop.
        obs.count("batch.fallback_scalar")
        return None
    obs.count("batch.allvec_checks")
    return engine.retire_all_vectors(actual)


def _interface_mismatch(
    ref: _GoldenRef, candidate
) -> Optional[EquivalenceResult]:
    """The interface gate: a verdict when the ports differ, else None."""
    signature = interface_signature(candidate)
    if ref.signature == signature:
        return None
    return EquivalenceResult(
        equivalent=False,
        error="interface mismatch",
        notes=[f"golden={ref.signature}", f"candidate={signature}"],
    )


def _golden_equal_digest(ref: _GoldenRef) -> Optional[bytes]:
    """The token digest a candidate passes on without a check, or None.

    A candidate whose whole file has the golden file's token stream
    parses to the golden's AST (up to line numbers, which simulation
    never reads) and elaborates to the same design, and the simulator is
    deterministic, so its replay reproduces the trace exactly.  That is
    a pass only when the golden trace ran to completion: a golden error
    is every candidate's verdict, so then there is no shortcut.
    """
    if ref.error is None and not ref.error_phase and len(ref.trace) == len(
        ref.rows
    ):
        return ref.design.token_digest
    return None


def _replay_against_trace(
    ref: _GoldenRef, candidate, problem: EvalProblem
) -> EquivalenceResult:
    """One candidate past :func:`_check_many_against_trace`'s two gates.

    The only place a candidate is simulated, so the only place a
    ``SimulationError`` becomes a verdict (the all-vectors rung catches
    its own; the replay's construct, reset and episode sit in the
    ``try``).  The episode is one call of the candidate's
    :meth:`~repro.sim.Simulator.replay_fn`, which stops at the first
    bad cycle and counts ``sim.cycles``.
    """
    fast = _check_all_vectors_batch(ref, candidate, problem)
    if fast is not None:
        return fast
    interface = problem.module.interface
    names = ref.output_names
    try:
        bench = Testbench(
            candidate,
            clock=interface.clock,
            reset=interface.reset,
            reset_active_high=interface.reset_active_high,
        )
        if ref.error_phase == "reset":
            return EquivalenceResult(equivalent=False, error=ref.error)
        bench.apply_reset()
        # The interface gate guarantees the candidate presents every
        # golden output, so sampling by golden name order is total.
        replay = bench.sim.replay_fn(bench.clock, ref.input_names, names)
        cycle, actual = replay(ref.rows, ref.trace)
    except SimulationError as exc:
        return EquivalenceResult(equivalent=False, error=str(exc))
    if actual is not None:
        expected = ref.trace[cycle]
        for index, name in enumerate(names):
            if actual[index] != expected[index]:
                return EquivalenceResult(
                    equivalent=False,
                    cycles_run=cycle + 1,
                    first_mismatch_cycle=cycle,
                    mismatched_output=name,
                    expected=expected[index],
                    actual=actual[index],
                )
    if len(ref.trace) < len(ref.rows):
        # The golden itself died at this cycle: it preempts both the
        # candidate's step and the comparison.
        return EquivalenceResult(equivalent=False, error=ref.error)
    return EquivalenceResult(equivalent=True, cycles_run=len(ref.rows))


def _check_many_against_trace(
    ref: _GoldenRef, candidates, problem: EvalProblem
) -> list:
    """Candidate-only lockstep against the cached golden trace.

    Returns one :class:`EquivalenceResult` per candidate and mirrors
    :func:`repro.sim.equivalence_check` verdict-for-verdict: the
    interface gate, error precedence (the golden design steps first each
    cycle, so a golden simulation error at cycle ``c`` preempts both the
    candidate's step and the output comparison at ``c``), and the
    first-mismatch bookkeeping.  Each candidate past the gates runs
    :func:`_replay_against_trace`.
    """

    def check(candidate) -> EquivalenceResult:
        mismatch = _interface_mismatch(ref, candidate)
        if mismatch is not None:
            return mismatch
        # Lockstep order is: golden bench built, candidate bench built,
        # golden reset, candidate reset, then per cycle golden step
        # before candidate step.  Golden-failure checks interleave with
        # the candidate's own stages in exactly that order, so whichever
        # design failed first in lockstep supplies the error string.
        if ref.error_phase == "construct":
            return EquivalenceResult(equivalent=False, error=ref.error)
        # retire.scalar_replays is the name the perf ledger's layer walk
        # reads this count under
        obs.count("vereval.scalar_checks")
        obs.count("retire.scalar_replays")
        return _replay_against_trace(ref, candidate, problem)

    return [check(candidate) for candidate in candidates]


def check_candidates_lockstep(
    problem: EvalProblem, candidate_sources: Sequence[str]
) -> List[Tuple[bool, str]]:
    """Functional verdicts for many candidate sources of one problem.

    One ``(passed, failure_reason)`` per source, in input order,
    duplicates included; the reason is ``""`` on success.  ``syntax`` is
    only for actual lexer/parser errors; any other parse exception is a
    harness bug and surfaces as ``internal`` instead of being miscounted
    as a model failure.  The shared work is done once:

    * duplicate sources parse, elaborate, and check once, and so do
      sources with one token digest (the 16-byte ``blake2b`` of the
      whole file's parser-visible symbols,
      :func:`repro.verilog.lex_source_digest`, kept on the ``Design``);
    * a source whose digest is the golden file's passes with no lowering,
      compile, all-vectors rung or replay (``vereval.golden_equal``),
      provided the golden trace ran to completion: no ``error``, no
      ``error_phase``, a trace as long as the stimulus rows.  Equal token
      streams parse to one AST up to line numbers, which simulation never
      reads, so the candidate elaborates to the golden's design and the
      deterministic simulator would reproduce the golden trace; with a
      golden error there is no shortcut, as that error is the verdict.
      The digest covers the whole file, not the top module, because
      elaboration reads every module it instantiates;
    * golden twins pass before the front end: when the golden text is
      one of the sources (the golden then gets past the front end, so
      its bundle is needed anyway) or the bundle is in memory, the bundle
      is fetched first, and under the same precondition the golden text
      passes with no ``sim.cache`` lookup, parse, elaboration or entry,
      and a source whose lexed digest is the golden's passes unparsed,
      its ``design`` entry being the bundle's own design.  A call whose
      sources all fail the front end fetches no bundle;
    * the golden artifacts (stimulus rows and output trace) are derived
      once per problem; :func:`repro.vereval.cegis.check_designs` (the
      plain trace check unless CEGIS is enabled) gives each distinct
      elaborating design the all-vectors fast path when it is stateless
      combinational, the scalar replay otherwise (docs/architecture.md
      §4; the name is the one the perf ledger and ``evalkit`` import);
    * with the :mod:`repro.sim.cache` disk tier enabled, each source's
      front-end outcome persists by source text and module name — the
      elaborated design, or its ``syntax`` / ``missing_module`` /
      ``elaboration`` reason — so a duplicate in another worker or run
      skips lex/parse/elaborate, and a cached reason is the verdict
      (counted as ``vereval.cached_failures``).  ``internal`` and the
      ``elaboration`` every candidate gets when the *golden* does not
      elaborate are never stored.  The golden bundle (if this call built
      it) and every outcome derived here are written as one pack
      (:func:`repro.sim.cache.store_many`); both carry their token
      digest, so a warm golden-equal hit decides without reading the
      candidate's AST, and a design that carries compiled code is stored
      with its source text (``Design.source_text``) in place of its AST,
      which only a read of an AST field derives again.
    """
    sources = list(candidate_sources)
    with obs.span(
        "vereval.problem",
        problem=problem.problem_id,
        candidates=len(sources),
    ):
        return _check_candidates_lockstep(problem, sources)


def _check_candidates_lockstep(
    problem: EvalProblem, sources: List[str]
) -> List[Tuple[bool, str]]:
    outcomes: List[Optional[Tuple[bool, str]]] = [None] * len(sources)
    name = problem.module.name

    positions: "OrderedDict[str, List[int]]" = OrderedDict()
    for index, source in enumerate(sources):
        positions.setdefault(source, []).append(index)

    def fill(indices: List[int], outcome: Tuple[bool, str]) -> None:
        for index in indices:
            outcomes[index] = outcome

    # sim.cache entries built here: the golden bundle if this call built
    # it, and the front-end outcome of every source decided here rather
    # than loaded (its design, or why it has none)
    pack: list = []

    def fail(source: str, indices: List[int], reason: str) -> None:
        fill(indices, (False, reason))
        pack.append(("design", (source, name), reason))

    # the golden bundle, the digest its twins pass on, and whether the
    # golden failed to elaborate
    ref = golden = None
    golden_failed = False

    def fetch_golden() -> None:
        nonlocal ref, golden, golden_failed
        try:
            ref = _golden_ref(problem, pack)
        except ElaborationError:
            golden_failed = True
        else:
            golden = _golden_equal_digest(ref)

    # Fetched before the front end when the golden text is one of the
    # sources (it gets past the front end, so the bundle is needed
    # anyway) or the bundle is in memory (one lookup): golden twins then
    # pass unparsed.  Otherwise only once a source got past the front end.
    if problem.golden_source in positions or (
        _golden_key(problem) in _GOLDEN_CACHE
    ):
        try:
            fetch_golden()
        except Exception:
            # a harness bug: raised again below, and only if a source
            # gets past the front end, as when nothing is fetched here
            pass

    def golden_equal(indices: List[int]) -> None:
        obs.count("vereval.golden_equal")
        fill(indices, (True, ""))

    # (source, design-or-None, (parsed file, token digest)-or-None, indices)
    parsed = []
    for source, indices in positions.items():
        if golden is not None and source == problem.golden_source:
            golden_equal(indices)  # no lookup, parse or entry
            continue
        candidate = sim_cache.get_frontend(source, name)
        front = None
        if isinstance(candidate, str):
            obs.count("vereval.cached_failures")
            fill(indices, (False, candidate))
            continue
        if candidate is None:
            try:
                stream, digest = lex_source_digest(source)
                if digest == golden:
                    # a token twin of the golden: not parsed, and its
                    # entry is the golden's own design
                    golden_equal(indices)
                    pack.append(("design", (source, name), ref.design))
                    continue
                front = (parse_stream(stream), digest)
            except (LexError, ParseError):
                fail(source, indices, "syntax")
                continue
            except Exception:
                # a harness bug, not the source's outcome: never stored
                fill(indices, (False, "internal"))
                continue
            if front[0].module(name) is None:
                fail(source, indices, "missing_module")
                continue
        parsed.append((source, candidate, front, indices))

    if parsed and ref is None and not golden_failed:
        fetch_golden()
    if golden_failed:
        # the golden's failure, not the candidates': stored for none
        for _, _, _, indices in parsed:
            fill(indices, (False, "elaboration"))
        parsed = []
    # token digest (or source, for a design without one) -> [source,
    # design, indices]: token-identical designs share one check
    groups: "OrderedDict[object, list]" = OrderedDict()
    for source, candidate, front, indices in parsed:
        if candidate is None:
            candidate_file, digest = front
            try:
                candidate = elaborate(candidate_file, name)
            except ElaborationError:
                fail(source, indices, "elaboration")
                continue
            candidate.token_digest = digest
            candidate.source_text = source
            pack.append(("design", (source, name), candidate))
        digest = candidate.token_digest
        if digest is not None and digest == golden:
            golden_equal(indices)
            continue
        group = groups.setdefault(
            source if digest is None else digest, [source, candidate, []]
        )
        group[2].extend(indices)
    if groups:
        checkable = list(groups.values())
        from repro.vereval import cegis as _cegis

        verdicts = _cegis.check_designs(
            ref, [candidate for _, candidate, _ in checkable], problem,
            sources=[source for source, _, _ in checkable],
        )
        for (_, _, indices), verdict in zip(checkable, verdicts):
            if verdict.equivalent:
                fill(indices, (True, ""))
            else:
                fill(indices, (False, verdict.error or "mismatch"))
    # Stored after the verdicts, not before: a design then carries the
    # code of whichever compiled form its check ran, so the next hit
    # executes it instead of lowering the design again.  One pack per
    # call: one new inode however many entries it holds.
    sim_cache.store_many(pack)
    return outcomes  # type: ignore[return-value]


def reset_caches() -> None:
    """Drop every in-process checker memo: the golden-artifact LRU and the
    CEGIS set, golden-sweep and clear-search memos.

    What a fresh pool worker starts from; the
    :mod:`repro.sim.cache` disk tier is left alone.
    """
    from repro.vereval import cegis as _cegis

    _GOLDEN_CACHE.clear()
    _cegis._SET_CACHE.clear()
    _cegis._GOLDEN_SWEEP_CACHE.clear()
    _cegis._CLEAR_MEMO.clear()


def check_candidate_source(
    problem: EvalProblem, candidate_source: str
) -> Tuple[bool, str]:
    """``(passed, failure_reason)`` for one full candidate module source:
    the pool of :func:`check_candidates_lockstep`, with one member."""
    return check_candidates_lockstep(problem, [candidate_source])[0]


def check_completion(
    problem: EvalProblem, completion: str
) -> Tuple[bool, str]:
    """Functional verdict for one completion.

    The candidate module is prompt header + completion.  Returns
    (passed, failure_reason); reason is "" on success.
    """
    return check_candidate_source(problem, problem.prompt() + completion)


def evaluate_model(
    model: LanguageModel,
    problems: Sequence[EvalProblem],
    config: Optional[EvalConfig] = None,
    executor=None,
    store=None,
    checkpoint_tag: str = "passk",
) -> EvalResult:
    """Run the full pass@k protocol for one model.

    A facade over :class:`repro.evalkit.EvalPlan`: the protocol compiles
    into the engine's stage graph (prompt/seed expansion, generation,
    pooled functional checking, aggregation) and produces exactly the
    numbers the seed-era serial loop did.  ``executor`` selects the chunk
    executor (default serial); ``store`` enables checkpoint/resume under
    ``checkpoint_tag``.
    """
    from repro.evalkit import EvalPlan, PassAtKTask

    task = PassAtKTask(problems, config or EvalConfig())
    plan = EvalPlan([model], [task], executor=executor)
    run = plan.run(store=store, tag=checkpoint_tag)
    return run.result(model.name, task.task_id)

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
  design takes the scalar replay against the golden trace, which leaves
  a mutant at its first bad cycle;
* :func:`evaluate_model` is a thin facade compiling the paper's pass@k
  protocol into a :class:`repro.evalkit.EvalPlan`, which runs it through
  the streaming/parallel/checkpointable engine with numerically identical
  results (same :class:`~repro.utils.rng.DeterministicRNG` fork chain per
  sample).
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.verilog import (
    TokenStream, lex_prompt, lex_source_digest, parse_stream,
)
from repro.vereval import cegis as _cegis
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

    Plain data, pickled as its slots into the problem's ``sim.cache``
    entry: the golden's ``Design`` is simulated once, here, and never
    kept.  ``digest`` is the golden file's token digest
    (:func:`repro.verilog.lex_source_digest`) and ``signature`` its
    :func:`~repro.sim.interface_signature`.  ``rows`` holds one tuple of
    input values per stimulus cycle, aligned to ``input_names`` (the
    shape both kernels take; ``stimulus`` is a dict view of it), and
    ``trace`` one tuple of golden output values per cycle, aligned to the
    frozen ``output_names`` tuple, recorded under the exact reset/clock
    protocol of :func:`repro.sim.equivalence_check`; a candidate is then
    simulated alone and its output tuples compared against the trace,
    which is verdict-identical to lockstep simulation of both designs but
    does the golden half of the work once per problem instead of once per
    sample — and compares flat tuples instead of iterating per-cycle
    dicts in the innermost check loop.
    """

    __slots__ = (
        "digest", "signature", "input_names", "rows", "output_names",
        "trace", "error", "error_phase",
    )

    def __init__(self, problem: EvalProblem) -> None:
        stream, self.digest = lex_source_digest(problem.golden_source)
        design = elaborate(parse_stream(stream), problem.module.name)
        self.signature = interface_signature(design)
        #: the stimulus as the cycle kernel takes it: input names once,
        #: one value row per cycle (see :attr:`stimulus`)
        self.input_names, self.rows = random_rows(
            design, problem.stimulus_cycles, seed=problem.stimulus_seed
        )
        #: per-cycle golden output tuples; cut short when the golden
        #: simulation itself errors, with the message and the phase it
        #: failed in recorded so candidates observe the exact verdict
        #: lockstep simulation would have produced
        self.output_names: Tuple[str, ...] = ()
        self.trace: List[Tuple[int, ...]] = []
        self.error: Optional[str] = None
        self.error_phase: str = ""  # "" | "construct" | "reset" | "step"
        interface = problem.module.interface
        phase = "construct"
        try:
            bench = Testbench(
                design,
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


#: golden artifacts keyed by :func:`_golden_disk_key` — content only
#: (including the clock/reset protocol the trace was recorded under), so
#: a problem object rebuilt with the same data hits the cache while a
#: redefined one cannot alias a stale entry; LRU-ordered so sweeps wider
#: than the capacity evict the coldest problem instead of thrashing to
#: zero.  Each slot is ``[bundle, its pickled bytes]``; the bytes are
#: None until a ``sim.cache`` entry needs them, so a bundle is pickled
#: at most once
_GOLDEN_CACHE: "OrderedDict[Tuple, list]" = OrderedDict()
_GOLDEN_CACHE_MAX = 256

#: the most verdicts one golden entry holds; past it the entry starts
#: over with the call's new verdicts, as the PassAtKChecker memo does
_VERDICTS_MAX = 4096


def _golden_disk_key(problem: EvalProblem) -> Tuple[str, ...]:
    """The golden bundle's key, in :data:`_GOLDEN_CACHE` and as the parts
    of its ``sim.cache`` entry (identity-free: same source + protocol
    means the same artifact regardless of problem_id)."""
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


def _golden_ref(
    problem: EvalProblem,
    blob: Optional[bytes] = None,
    key: Optional[Tuple[str, ...]] = None,
) -> _GoldenRef:
    """The problem's golden bundle: from memory, unpickled from ``blob``
    (the bundle bytes of its ``sim.cache`` entry), or built here.
    ``key`` is the problem's :func:`_golden_disk_key`, when the caller
    has it."""
    if key is None:
        key = _golden_disk_key(problem)
    slot = _GOLDEN_CACHE.get(key)
    if slot is not None:
        _GOLDEN_CACHE.move_to_end(key)
        return slot[0]
    ref = None
    if blob is not None:
        try:
            ref = pickle.loads(blob)
        except Exception:
            pass
        if not isinstance(ref, _GoldenRef):
            # counted as a corrupt entry is; built again, then written over
            obs.count("sim.cache.corrupt")
    if not isinstance(ref, _GoldenRef):
        blob = None
        # Cold: the full parse→elaborate→stimulate→simulate pipeline runs
        # here, once per problem — the span names the problem so slow
        # goldens show up in trace reports.
        with obs.span(
            "vereval.golden", problem=problem.problem_id,
            cycles=problem.stimulus_cycles,
        ):
            ref = _GoldenRef(problem)
    while len(_GOLDEN_CACHE) >= _GOLDEN_CACHE_MAX:
        _GOLDEN_CACHE.popitem(last=False)
    _GOLDEN_CACHE[key] = [ref, blob]
    return ref


def _source_key(source: str) -> bytes:
    """A source's key in its golden entry's verdict table."""
    return hashlib.blake2b(source.encode("utf-8"), digest_size=16).digest()


def _is_golden_entry(payload) -> bool:
    """A ``golden`` entry's payload: ``(verdicts, bundle bytes or None)``,
    every verdict a ``(bool, str)`` whose reason is empty exactly when it
    passed."""
    return (
        type(payload) is tuple and len(payload) == 2
        and type(payload[0]) is dict
        and (payload[1] is None or type(payload[1]) is bytes)
        and all(
            type(v) is tuple and len(v) == 2 and type(v[0]) is bool
            and type(v[1]) is str and v[0] == (v[1] == "")
            for v in payload[0].values()
        )
    )


#: each problem prompt's closed-prompt stream (None: not closed), keyed
#: by the prompt text; LRU-bounded like :data:`_GOLDEN_CACHE`
_PROMPT_STREAMS: "OrderedDict[str, Optional[TokenStream]]" = OrderedDict()
_PROMPT_STREAMS_MAX = 256


def _prompt_stream(prompt: str) -> Optional[TokenStream]:
    """:func:`repro.verilog.lex_prompt` of ``prompt``, derived once."""
    try:
        stream = _PROMPT_STREAMS[prompt]
    except KeyError:
        stream = lex_prompt(prompt)
        while len(_PROMPT_STREAMS) >= _PROMPT_STREAMS_MAX:
            _PROMPT_STREAMS.popitem(last=False)
        _PROMPT_STREAMS[prompt] = stream
    else:
        _PROMPT_STREAMS.move_to_end(prompt)
    return stream


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
        return ref.digest
    return None


def _replay_against_trace(
    ref: _GoldenRef, candidate, problem: EvalProblem
) -> EquivalenceResult:
    """One candidate past :func:`_check_many_against_trace`'s two gates.

    The only place a candidate is simulated, so the only place a
    ``SimulationError`` becomes a verdict (the construct, reset and
    episode sit in the ``try``).  The episode is one call of the
    candidate's :meth:`~repro.sim.Simulator.replay_fn`, which stops at
    the first bad cycle and counts ``sim.cycles``.
    """
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

    * duplicate sources parse, elaborate, and check once, and sources
      with one token digest (the 16-byte ``blake2b`` of the whole file's
      parser-visible symbols, :func:`repro.verilog.lex_source_digest`)
      elaborate and check once;
    * a source whose digest is the golden file's passes with no compile
      or replay (``vereval.golden_equal``),
      provided the golden trace ran to completion: no ``error``, no
      ``error_phase``, a trace as long as the stimulus rows.  Equal token
      streams parse to one AST up to line numbers, which simulation never
      reads, so the candidate elaborates to the golden's design and the
      deterministic simulator would reproduce the golden trace; with a
      golden error there is no shortcut, as that error is the verdict.
      The digest covers the whole file, not the top module, because
      elaboration reads every module it instantiates;
    * with the :mod:`repro.sim.cache` disk tier enabled, the call loads
      one ``golden`` entry, keyed by the golden bundle's disk key (golden
      text, module name, stimulus cycles and seed, clock, reset, reset
      polarity: every input that can change a verdict; the backend
      cannot).  It holds the pickled bundle (or None while none is
      built) and a table from each checked source's 16-byte ``blake2b``
      to its ``(passed, reason)``.  With CEGIS off, a distinct source in
      the table is decided by it (counted as
      ``vereval.cached_verdicts``), so a call whose sources all hit
      unpickles no bundle, lexes nothing and replays nothing; the bundle
      bytes are unpickled only when the rules below fetch the bundle;
    * golden twins pass before the front end: when the golden text is
      one of the remaining sources (the golden then gets past the front
      end, so its bundle is needed anyway) or the bundle is in memory,
      the bundle is fetched first, and under the same precondition the
      golden text passes unparsed and a source whose lexed digest is the
      golden's passes unparsed too.  A call whose sources all fail the
      front end fetches no bundle;
    * the golden artifacts (stimulus rows and output trace) are derived
      once per problem; :func:`repro.vereval.cegis.check_designs` (the
      plain trace check unless CEGIS is enabled) gives each distinct
      elaborating design the scalar replay (docs/architecture.md §4; the
      name is the one the perf ledger and ``evalkit`` import);
    * every source decided here joins the table, the front-end
      failures, the golden text and its twins included; ``internal`` is
      never stored.  The entry is written back with one
      :func:`repro.sim.cache.store` only when the call decided something
      new or built the bundle, whose pickled bytes stay in memory beside
      it so a later rewrite does not pickle it again.  A table that
      would pass :data:`_VERDICTS_MAX` starts over with the call's new
      verdicts.  Concurrent writers: the last one wins, and a lost
      verdict is a later miss, never a wrong verdict.  Under CEGIS the
      table is neither read nor written (a persisted distinguishing set
      makes a CEGIS verdict depend on what was checked before): the
      entry is written only for a bundle built here, with the table as
      it was read.
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

    # The golden entry: one load with the disk tier on.  Its verdict
    # table decides the sources it holds, before the golden bundle and the
    # front end; the table is off under CEGIS, whose verdicts depend on
    # the distinguishing set earlier checks grew.
    golden_key = _golden_disk_key(problem)
    disk = sim_cache.cache_dir() is not None
    table: Dict[bytes, Tuple[bool, str]] = {}
    blob: Optional[bytes] = None
    if disk:
        entry = sim_cache.load("golden", *golden_key, accept=_is_golden_entry)
        if entry is not None:
            table, blob = entry
    # the verdicts decided here, by source key; None with the table off
    fresh: Optional[Dict[bytes, Tuple[bool, str]]] = None
    source_keys: Dict[str, bytes] = {}
    if disk and not _cegis.active_config().enabled:
        fresh = {}
        for source in list(positions):
            key = source_keys[source] = _source_key(source)
            verdict = table.get(key)
            if verdict is not None:
                fill(positions.pop(source), verdict)
        obs.count("vereval.cached_verdicts", len(source_keys) - len(positions))
        if not positions:
            # every source decided by the table: nothing to fetch or write
            return outcomes  # type: ignore[return-value]

    def decide(
        source: str, indices: List[int], verdict: Tuple[bool, str]
    ) -> None:
        fill(indices, verdict)
        if fresh is not None:
            fresh[source_keys[source]] = verdict

    # the golden bundle, the digest its twins pass on, and whether the
    # golden failed to elaborate
    ref = golden = None
    golden_failed = False

    def fetch_golden() -> None:
        nonlocal ref, golden, golden_failed
        try:
            ref = _golden_ref(problem, blob, golden_key)
        except ElaborationError:
            golden_failed = True
        else:
            golden = _golden_equal_digest(ref)

    # Fetched before the front end when the golden text is one of the
    # sources (it gets past the front end, so the bundle is needed
    # anyway) or the bundle is in memory (one lookup): golden twins then
    # pass unparsed.  Otherwise only once a source got past the front end.
    if problem.golden_source in positions or golden_key in _GOLDEN_CACHE:
        try:
            fetch_golden()
        except Exception:
            # a harness bug: raised again below, and only if a source
            # gets past the front end, as when nothing is fetched here
            pass

    def golden_equal(source: str, indices: List[int]) -> None:
        obs.count("vereval.golden_equal")
        decide(source, indices, (True, ""))

    # a pass@k candidate is its problem's prompt + a completion
    prompt = problem.prompt()
    # (source, parsed file, token digest, indices)
    parsed = []
    for source, indices in positions.items():
        if golden is not None and source == problem.golden_source:
            golden_equal(source, indices)  # no parse
            continue
        try:
            # lexed on from the prompt's stream if the prompt is closed
            closed = (
                _prompt_stream(prompt) if source.startswith(prompt) else None
            )
            if closed is None:
                stream, digest = lex_source_digest(source)
            else:
                stream, digest = lex_source_digest(source, closed)
            if digest == golden:
                golden_equal(source, indices)  # a token twin: not parsed
                continue
            candidate_file = parse_stream(stream)
        except (LexError, ParseError):
            decide(source, indices, (False, "syntax"))
            continue
        except Exception:
            # a harness bug, not the source's verdict: never stored
            fill(indices, (False, "internal"))
            continue
        if candidate_file.module(name) is None:
            decide(source, indices, (False, "missing_module"))
            continue
        parsed.append((source, candidate_file, digest, indices))

    if parsed and ref is None and not golden_failed:
        fetch_golden()
    if golden_failed:
        # the golden's failure is every candidate's verdict
        for source, _, _, indices in parsed:
            decide(source, indices, (False, "elaboration"))
        parsed = []
    # token digest -> [design, [(source, indices), ...]]: token-identical
    # designs share one check
    groups: "OrderedDict[bytes, list]" = OrderedDict()
    for source, candidate_file, digest, indices in parsed:
        if digest == golden:
            golden_equal(source, indices)
            continue
        group = groups.get(digest)
        if group is None:
            try:
                candidate = elaborate(candidate_file, name)
            except ElaborationError:
                decide(source, indices, (False, "elaboration"))
                continue
            group = groups[digest] = [candidate, []]
        group[1].append((source, indices))
    if groups:
        checkable = list(groups.values())
        verdicts = _cegis.check_designs(
            ref, [candidate for candidate, _ in checkable], problem,
            sources=[members[0][0] for _, members in checkable],
        )
        for (_, members), verdict in zip(checkable, verdicts):
            outcome = (
                (True, "") if verdict.equivalent
                else (False, verdict.error or "mismatch")
            )
            for source, indices in members:
                decide(source, indices, outcome)
    if disk:
        _store_golden_entry(golden_key, table, fresh, blob)
    return outcomes  # type: ignore[return-value]


def _store_golden_entry(
    key: Tuple[str, ...],
    table: Dict[bytes, Tuple[bool, str]],
    fresh: Optional[Dict[bytes, Tuple[bool, str]]],
    blob: Optional[bytes],
) -> None:
    """Write back the golden entry a call loaded (``table``, ``blob``),
    ``fresh`` verdicts merged in, if the call decided any or built the
    bundle; ``fresh`` is None under CEGIS, which keeps the table read."""
    slot = _GOLDEN_CACHE.get(key)
    built = slot is not None and slot[1] is None
    if not (fresh or built):
        return
    if fresh and len(table) + len(fresh) > _VERDICTS_MAX:
        table = dict(itertools.islice(fresh.items(), _VERDICTS_MAX))
    elif fresh:
        table.update(fresh)
    if built:
        try:
            slot[1] = pickle.dumps(slot[0], protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            pass  # stored without its bundle
    if slot is not None and slot[1] is not None:
        blob = slot[1]
    sim_cache.store("golden", (table, blob), *key)


def reset_caches() -> None:
    """Drop every in-process checker memo: the golden-artifact LRU, the
    closed-prompt streams, and the CEGIS set, golden-sweep and
    clear-search memos.

    What a fresh pool worker starts from; the
    :mod:`repro.sim.cache` disk tier is left alone.
    """
    _GOLDEN_CACHE.clear()
    _PROMPT_STREAMS.clear()
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
    store=None,
    checkpoint_tag: str = "passk",
) -> EvalResult:
    """Run the full pass@k protocol for one model.

    A facade over :class:`repro.evalkit.EvalPlan`: the protocol compiles
    into the engine's stage graph (prompt/seed expansion, generation,
    pooled functional checking, aggregation) and produces exactly the
    numbers the seed-era serial loop did.  ``store`` enables
    checkpoint/resume under ``checkpoint_tag``.
    """
    from repro.evalkit import EvalPlan, PassAtKTask

    task = PassAtKTask(problems, config or EvalConfig())
    plan = EvalPlan([model], [task])
    run = plan.run(store=store, tag=checkpoint_tag)
    return run.result(model.name, task.task_id)

"""Counterexample-guided checking for the pass@k harness.

Fixed-depth random stimulus is one scenario; this module makes checking
*adversarial* in the CEGIS (counterexample-guided inductive synthesis)
style: instead of hoping a random seed distinguishes a wrong candidate
from the golden, the checker maintains a per-problem
**distinguishing-input set** — stimulus episodes that have separated
some past candidate from the golden — and *searches* for a new
distinguishing vector when a candidate survives everything known.  Per
candidate, :func:`check_designs` runs three ordered stages:

1. **set pre-check** — every candidate replays the persisted
   distinguishing vectors first.  Entries are short (each is minimized
   to the first divergent cycle when minted) so a kill here costs a few
   cycles instead of a full-depth check, and the replay rides the exact
   machinery of the legacy checker
   (:func:`repro.vereval.harness._check_many_against_trace` over an
   entry-shaped golden ref): the scalar replay;
2. **legacy full check** — survivors run the unmodified golden-trace
   check, verbatim.  This stage is what makes the verdict a **strict
   refinement**: any candidate the old checker fails still fails here,
   candidate-for-candidate, because the old checker *is* this stage and
   the stages around it can only add kills;
3. **falsification search** — candidates that pass the full check are
   attacked: boundary episodes (held-max, walking ones, alternating),
   mutations of the base stimulus, and fresh random episodes replay
   through :func:`repro.sim.sweep_random_stimulus` (one scalar replay
   per episode) against the compiled golden, and the first divergent
   episode is minimized to its first bad cycle, **verified through the
   checker**, and appended to the set — so the next near-miss of the
   same kind dies in stage 1 at the price of a few cycles.  Searches
   that come up clear are memoized (in-process and via a
   ``cegis-clear`` disk marker), so correct candidates pay the search
   once.

The set persists through :mod:`repro.sim.cache` next to the golden
artifacts, keyed by golden source + module + testbench protocol, with
merge-on-save so concurrent pool workers union their counterexamples
instead of clobbering them.  The canonical payload is built from plain
tuples (sorted name/value pairs) so its pickled bytes are stable across
:data:`~repro.sim.cache.BACKEND_VERSION` bumps — enforced by the
hypothesis suite in ``tests/test_cegis.py``.

Everything is off by default (the legacy checker runs byte-identically)
and is switched on in-process with :func:`configure`, the one switch:
there is no environment route.  :class:`repro.evalkit.stages.CheckStage`
carries the coordinator's configuration to pool workers, and the active
configuration is part of the plan fingerprint
(:meth:`repro.evalkit.EvalPlan.fingerprint` via :func:`fingerprint_token`),
so a checkpoint taken under one CEGIS configuration refuses to resume
under another instead of silently mixing verdict semantics.

Counters (:mod:`repro.obs`): ``cegis.checks``, ``cegis.set_kills``,
``cegis.set_size``, ``cegis.searches``, ``cegis.search_found``,
``cegis.search_clear``, ``cegis.search_skipped``.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.sim import cache as sim_cache
from repro.sim.elaborate import elaborate
from repro.sim.testbench import (
    EquivalenceResult,
    StimulusVector,
    stimulus_rows,
    sweep_random_stimulus,
)
from repro.utils.rng import DeterministicRNG
from repro.verilog import parse_source_fast
from repro.vereval.problems import EvalProblem

__all__ = [
    "CegisConfig",
    "DistinguishingVector",
    "DistinguishingSet",
    "configure",
    "active_config",
    "fingerprint_token",
    "check_designs",
    "distinguishing_set",
    "encode_set",
    "decode_set",
    "set_bytes",
]

#: names never driven by generated stimulus (mirrors
#: :func:`repro.sim.random_stimulus`); the problem's own clock/reset are
#: excluded on top of these at episode-build time
_STIMULUS_EXCLUDE = ("clk", "rst", "rst_n", "reset", "resetn")


@dataclass(frozen=True)
class CegisConfig:
    """The CEGIS configuration (one frozen value).

    ``search_cycles=0`` means "use the problem's own stimulus depth" for
    falsification episodes.
    """

    enabled: bool = False
    max_set: int = 32
    search_rounds: int = 3
    search_lanes: int = 16
    search_cycles: int = 0

    def fingerprint_token(self) -> str:
        """Compact identity string folded into the plan fingerprint."""
        if not self.enabled:
            return "off"
        return (
            f"on:set{self.max_set}:r{self.search_rounds}"
            f":l{self.search_lanes}:c{self.search_cycles}"
        )


#: the process-wide configuration; off until :func:`configure` says otherwise
_configured: CegisConfig = CegisConfig()


def configure(config: Optional[CegisConfig]) -> CegisConfig:
    """Set the process-wide config; returns the previous one.

    ``None`` means off (the default :class:`CegisConfig`).  Evaluation
    stages call this in pool workers so the coordinator's configuration
    holds under every executor start method
    (:class:`repro.evalkit.stages.CheckStage`).
    """
    global _configured
    previous = _configured
    _configured = config if config is not None else CegisConfig()
    return previous


def active_config() -> CegisConfig:
    """The configuration in force (what :func:`configure` last set)."""
    return _configured


def fingerprint_token() -> str:
    """The active config's token (:meth:`EvalPlan.fingerprint` folds it in)."""
    return active_config().fingerprint_token()


# -- the distinguishing-input set --------------------------------------------


@dataclass(frozen=True)
class DistinguishingVector:
    """One stimulus episode known to separate some candidate from golden.

    ``stimulus`` is canonical — per-cycle tuples of sorted
    ``(input, value)`` pairs — so equality, digests, and the persisted
    payload are independent of dict ordering; ``trace`` is the golden's
    per-cycle output tuples under that stimulus, aligned to
    ``output_names``, recorded under the problem's standard testbench
    protocol (reset, then drive/tick per cycle).
    """

    stimulus: Tuple[Tuple[Tuple[str, int], ...], ...]
    output_names: Tuple[str, ...]
    trace: Tuple[Tuple[int, ...], ...]
    origin: str = ""

    @classmethod
    def from_run(
        cls,
        vectors: Sequence[StimulusVector],
        output_names: Sequence[str],
        trace: Sequence[Sequence[int]],
        origin: str = "",
    ) -> "DistinguishingVector":
        return cls(
            stimulus=tuple(
                tuple(sorted((str(k), int(v)) for k, v in vector.items()))
                for vector in vectors
            ),
            output_names=tuple(str(name) for name in output_names),
            trace=tuple(tuple(int(v) for v in row) for row in trace),
            origin=str(origin),
        )

    def vectors(self) -> List[StimulusVector]:
        """The episode as drivable per-cycle input dicts."""
        return [dict(cycle) for cycle in self.stimulus]

    def digest(self) -> str:
        """Content digest (the set's dedup key; origin excluded)."""
        blob = repr((self.stimulus, self.output_names, self.trace))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @property
    def cycles(self) -> int:
        return len(self.stimulus)


class DistinguishingSet:
    """An ordered, digest-deduplicated set of distinguishing vectors."""

    def __init__(
        self, entries: Iterable[DistinguishingVector] = ()
    ) -> None:
        self.entries: List[DistinguishingVector] = []
        self._digests: set = set()
        for entry in entries:
            self.add(entry)

    def add(
        self, entry: DistinguishingVector, max_set: Optional[int] = None
    ) -> bool:
        """Append ``entry`` unless already present or the set is full."""
        digest = entry.digest()
        if digest in self._digests:
            return False
        if max_set is not None and len(self.entries) >= max_set:
            obs.count("cegis.set_full")
            return False
        self.entries.append(entry)
        self._digests.add(digest)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


_PAYLOAD_TAG = "repro-cegis-set"
_PAYLOAD_VERSION = 1


def encode_set(ds: DistinguishingSet) -> tuple:
    """Canonical plain-tuple payload (what :mod:`repro.sim.cache` stores)."""
    return (
        _PAYLOAD_TAG,
        _PAYLOAD_VERSION,
        tuple(
            (entry.stimulus, entry.output_names, entry.trace, entry.origin)
            for entry in ds.entries
        ),
    )


def decode_set(payload: object) -> Optional[DistinguishingSet]:
    """Rebuild a set from a payload; None when the shape is foreign."""
    if (
        not isinstance(payload, tuple)
        or len(payload) != 3
        or payload[0] != _PAYLOAD_TAG
        or payload[1] != _PAYLOAD_VERSION
    ):
        return None
    try:
        return DistinguishingSet(
            DistinguishingVector(
                stimulus=stimulus,
                output_names=output_names,
                trace=trace,
                origin=origin,
            )
            for stimulus, output_names, trace, origin in payload[2]
        )
    except (TypeError, ValueError):
        return None


def set_bytes(ds: DistinguishingSet) -> bytes:
    """Deterministic serialized form of the canonical payload.

    Pinned to pickle protocol 4 so the bytes depend only on the set's
    content — not on the running interpreter's default protocol or on
    :data:`~repro.sim.cache.BACKEND_VERSION` (which lives in the cache
    *envelope*, outside this payload).
    """
    return pickle.dumps(encode_set(ds), protocol=4)


def _set_key(problem: EvalProblem) -> Tuple[str, ...]:
    """Persistence key: golden identity + testbench protocol.

    Deliberately excludes the base stimulus depth and seed — a
    distinguishing vector is self-contained (it carries its own
    stimulus and golden trace), so one set serves every stimulus
    configuration of the same golden design.
    """
    interface = problem.module.interface
    return (
        problem.golden_source,
        problem.module.name,
        repr(
            (
                interface.clock,
                interface.reset,
                interface.reset_active_high,
            )
        ),
    )


#: in-process set registry (write-through to the sim_cache disk tier)
_SET_CACHE: "OrderedDict[Tuple[str, ...], DistinguishingSet]" = OrderedDict()
_SET_CACHE_MAX = 256


def distinguishing_set(problem: EvalProblem) -> DistinguishingSet:
    """The problem's live distinguishing set (loaded/created on demand)."""
    key = _set_key(problem)
    ds = _SET_CACHE.get(key)
    if ds is not None:
        _SET_CACHE.move_to_end(key)
        return ds
    ds = decode_set(sim_cache.load("cegis-set", *key))
    if ds is None:
        ds = DistinguishingSet()
    while len(_SET_CACHE) >= _SET_CACHE_MAX:
        _SET_CACHE.popitem(last=False)
    _SET_CACHE[key] = ds
    return ds


def _save_set(problem: EvalProblem, ds: DistinguishingSet) -> None:
    """Persist the set, merging entries another worker stored meanwhile."""
    key = _set_key(problem)
    existing = decode_set(sim_cache.load("cegis-set", *key))
    if existing is not None:
        for entry in existing:
            ds.add(entry)
    sim_cache.store("cegis-set", encode_set(ds), *key)


# -- replaying entries through the legacy checker ----------------------------


class _EntryRef:
    """A distinguishing vector dressed as a golden ref.

    Duck-types exactly the fields
    :func:`repro.vereval.harness._check_many_against_trace` reads, so
    entry replay reuses the legacy machinery unchanged — signature gate,
    scalar replay.
    """

    __slots__ = (
        "signature", "input_names", "rows", "output_names", "trace",
        "error", "error_phase",
    )

    def __init__(self, golden_ref, entry: DistinguishingVector) -> None:
        self.signature = golden_ref.signature
        self.input_names, self.rows = stimulus_rows(entry.vectors())
        self.output_names = entry.output_names
        self.trace = [tuple(row) for row in entry.trace]
        self.error: Optional[str] = None
        self.error_phase = ""


def _check_entry(
    golden_ref, entry: DistinguishingVector, candidate, problem: EvalProblem
) -> EquivalenceResult:
    """Scalar replay of one candidate against one entry."""
    from repro.vereval import harness

    return harness._check_many_against_trace(
        _EntryRef(golden_ref, entry), [candidate], problem
    )[0]


# -- falsification search ----------------------------------------------------


def _search_spans(ref, problem: EvalProblem) -> List[Tuple[str, int]]:
    """(input, max value) pairs the search may drive, protocol excluded."""
    interface = problem.module.interface
    excluded = set(_STIMULUS_EXCLUDE)
    excluded.update(
        name for name in (interface.clock, interface.reset) if name
    )
    return [
        (name, (1 << width) - 1)
        for name, width in ref.signature["inputs"].items()
        if name not in excluded
    ]


def _boundary_episodes(
    spans: Sequence[Tuple[str, int]], cycles: int,
    rng: DeterministicRNG, lanes: int,
) -> List[Tuple[str, List[StimulusVector]]]:
    """Deterministic corner-case episodes (round 0 of the search)."""
    episodes: List[Tuple[str, List[StimulusVector]]] = [
        ("allmax", [{n: hi for n, hi in spans} for _ in range(cycles)]),
        ("zero", [{n: 0 for n, _ in spans} for _ in range(cycles)]),
        (
            "alt",
            [
                {n: (hi if cycle % 2 == 0 else 0) for n, hi in spans}
                for cycle in range(cycles)
            ],
        ),
    ]
    total_bits = sum(hi.bit_length() for _, hi in spans)
    if total_bits:
        walk = []
        for cycle in range(cycles):
            bit = cycle % total_bits
            vector: StimulusVector = {}
            for name, hi in spans:
                width = hi.bit_length()
                vector[name] = (1 << bit) if 0 <= bit < width else 0
                bit -= width
            walk.append(vector)
        episodes.append(("walk", walk))
    # One input pinned at max, the rest random: catches compare-against-
    # constant traps on a single port without starving the others.
    for name, hi in spans:
        if len(episodes) >= lanes:
            break
        fork = rng.fork("held", name)
        episodes.append(
            (
                f"held:{name}",
                [
                    {
                        n: (hi if n == name else fork.randint(0, h))
                        for n, h in spans
                    }
                    for _ in range(cycles)
                ],
            )
        )
    return episodes[:lanes] if lanes < len(episodes) else episodes


def _mutation_episodes(
    spans: Sequence[Tuple[str, int]], cycles: int,
    rng: DeterministicRNG, lanes: int, problem: EvalProblem,
) -> List[Tuple[str, List[StimulusVector]]]:
    """Base-stimulus mutations plus fresh random episodes (later rounds)."""
    base = [
        {name: rng.fork("base").randint(0, hi) for name, hi in spans}
        for _ in range(cycles)
    ] if spans else [dict() for _ in range(cycles)]
    episodes: List[Tuple[str, List[StimulusVector]]] = []
    half = max(1, lanes // 2)
    for lane in range(half):
        fork = rng.fork("mutate", lane)
        episode = []
        for vector in base:
            mutated = dict(vector)
            for name, hi in spans:
                if fork.maybe(0.25):
                    # Boundary-biased point mutation: corners are where
                    # equality traps and width clips live.
                    mutated[name] = fork.choice([hi, 0, hi >> 1, 1 & hi])
            episode.append(mutated)
        episodes.append((f"mutate:{lane}", episode))
    for lane in range(lanes - len(episodes)):
        fork = rng.fork("fresh", lane)
        episodes.append(
            (
                f"random:{lane}",
                [
                    {name: fork.randint(0, hi) for name, hi in spans}
                    for _ in range(cycles)
                ],
            )
        )
    return episodes


def _dedupe_episodes(
    episodes: List[Tuple[str, List[StimulusVector]]]
) -> List[Tuple[str, List[StimulusVector]]]:
    seen = set()
    unique = []
    for label, episode in episodes:
        key = repr([sorted(vector.items()) for vector in episode])
        if key in seen:
            continue
        seen.add(key)
        unique.append((label, episode))
    return unique


def _search_episodes(
    ref, problem: EvalProblem, config: CegisConfig, round_index: int
) -> List[Tuple[str, List[StimulusVector]]]:
    spans = _search_spans(ref, problem)
    cycles = config.search_cycles or problem.stimulus_cycles
    rng = DeterministicRNG(problem.stimulus_seed).fork(
        "cegis", round_index
    )
    if round_index == 0:
        episodes = _boundary_episodes(
            spans, cycles, rng, config.search_lanes
        )
    else:
        episodes = _mutation_episodes(
            spans, cycles, rng, config.search_lanes, problem
        )
    return _dedupe_episodes(episodes)


#: golden-side sweep memo: the golden half of every search round is a
#: pure function of (problem, config, round), so repeated searches on
#: one problem — every surviving candidate triggers one — pay it once.
#: The golden bundle keeps no design, so a miss elaborates the golden
#: from its source.
_GOLDEN_SWEEP_CACHE: "OrderedDict[Tuple, object]" = OrderedDict()
_GOLDEN_SWEEP_CACHE_MAX = 64


def _golden_sweep(problem, config, round_index, episodes):
    key = (
        _set_key(problem), config.fingerprint_token(), round_index,
    )
    result = _GOLDEN_SWEEP_CACHE.get(key)
    if result is not None:
        _GOLDEN_SWEEP_CACHE.move_to_end(key)
        return result
    golden = elaborate(
        parse_source_fast(problem.golden_source), problem.module.name
    )
    result = _run_sweep(golden, problem, episodes)
    while len(_GOLDEN_SWEEP_CACHE) >= _GOLDEN_SWEEP_CACHE_MAX:
        _GOLDEN_SWEEP_CACHE.popitem(last=False)
    _GOLDEN_SWEEP_CACHE[key] = result
    return result


def _run_sweep(design, problem, episodes):
    interface = problem.module.interface
    stimuli = [episode for _, episode in episodes]
    cycles = len(stimuli[0]) if stimuli else 0
    return sweep_random_stimulus(
        design,
        cycles,
        seeds=tuple(range(len(stimuli))),
        clock=interface.clock,
        reset=interface.reset,
        reset_active_high=interface.reset_active_high,
        stimuli=stimuli,
    )


def _first_divergence(
    golden_trace, candidate_trace, candidate_error
) -> Optional[int]:
    """Cycle index of the first observable difference, or None."""
    for cycle in range(min(len(golden_trace), len(candidate_trace))):
        if golden_trace[cycle] != candidate_trace[cycle]:
            return cycle
    if candidate_error is not None and (
        len(candidate_trace) < len(golden_trace)
    ):
        # The candidate died where the golden ran on; the divergent
        # "cycle" is the one the candidate could not complete.
        return len(candidate_trace)
    return None


def _source_digest(source: Optional[str]) -> Optional[str]:
    if source is None:
        return None
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


#: sources whose falsification search came up clear, per config — the
#: disk tier gets a matching "cegis-clear" marker when a source is known
_CLEAR_MEMO: set = set()


def _falsify(
    ref, candidate, problem: EvalProblem, source: Optional[str],
    config: CegisConfig, ds: DistinguishingSet,
) -> Optional[DistinguishingVector]:
    """Search for a stimulus separating ``candidate`` from the golden.

    Returns a minimized, scalar-verified distinguishing vector (already
    added to ``ds`` and persisted), or None when every round came up
    clear — in which case the clear verdict is memoized so duplicate
    candidates skip the search entirely.
    """
    digest = _source_digest(source)
    token = config.fingerprint_token()
    clear_key = (_set_key(problem), digest, token)
    if digest is not None:
        if clear_key in _CLEAR_MEMO:
            obs.count("cegis.search_skipped")
            return None
        if sim_cache.load("cegis-clear", *clear_key[0], digest, token):
            _CLEAR_MEMO.add(clear_key)
            obs.count("cegis.search_skipped")
            return None
    obs.count("cegis.searches")
    with obs.span(
        "cegis.search", problem=problem.problem_id,
        rounds=config.search_rounds,
    ):
        for round_index in range(config.search_rounds):
            episodes = _search_episodes(ref, problem, config, round_index)
            if not episodes:
                break
            golden = _golden_sweep(problem, config, round_index, episodes)
            candidate_sweep = _run_sweep(candidate, problem, episodes)
            for lane, (label, episode) in enumerate(episodes):
                if golden.errors[lane] is not None:
                    continue  # no trusted golden trace for this lane
                cycle = _first_divergence(
                    golden.traces[lane],
                    candidate_sweep.traces[lane],
                    candidate_sweep.errors[lane],
                )
                if cycle is None:
                    continue
                entry = DistinguishingVector.from_run(
                    episode[: cycle + 1],
                    golden.output_names,
                    golden.traces[lane][: cycle + 1],
                    origin=f"search:{label}",
                )
                # Verification guards the set: only episodes the
                # reference checker agrees are distinguishing get minted.
                if _check_entry(ref, entry, candidate, problem).equivalent:
                    continue
                if ds.add(entry, max_set=config.max_set):
                    _save_set(problem, ds)
                    obs.gauge("cegis.set_size", len(ds))
                obs.count("cegis.search_found")
                return entry
    obs.count("cegis.search_clear")
    if digest is not None:
        _CLEAR_MEMO.add(clear_key)
        sim_cache.store(
            "cegis-clear", True, *clear_key[0], digest, token
        )
    return None


# -- the checker -------------------------------------------------------------


def check_designs(
    ref,
    candidates: Sequence,
    problem: EvalProblem,
    sources: Optional[Sequence[str]] = None,
    config: Optional[CegisConfig] = None,
) -> List[EquivalenceResult]:
    """CEGIS verdicts for elaborated candidates of one problem.

    A strict refinement of
    :func:`repro.vereval.harness._check_many_against_trace`: every
    candidate that function fails, this fails (stage 2 *is* that
    function), and the set pre-check and falsification search can only
    convert passes into fails.  The harness pool calls it for every
    check; it is the legacy check outright when ``config`` (default
    :func:`active_config`) is disabled or the golden itself errored
    (CEGIS needs a healthy golden to search against).
    """
    from repro.vereval import harness

    if config is None:
        config = active_config()
    if ref.error is not None or not config.enabled:
        return harness._check_many_against_trace(ref, candidates, problem)
    n = len(candidates)
    obs.count("cegis.checks", n)
    results: List[Optional[EquivalenceResult]] = [None] * n

    def _pick(indices: List[int], values: Sequence):
        return [values[i] for i in indices]

    # Stage 1: the distinguishing-input set, cheapest first.  Replay
    # rides the legacy pool check with the entry as the golden.
    ds = distinguishing_set(problem)
    alive = list(range(n))
    for position, entry in enumerate(list(ds.entries)):
        if not alive:
            break
        entry_ref = _EntryRef(ref, entry)
        verdicts = harness._check_many_against_trace(
            entry_ref, _pick(alive, candidates), problem
        )
        survivors = []
        for index, verdict in zip(alive, verdicts):
            if verdict.equivalent:
                survivors.append(index)
            else:
                verdict.notes.append(
                    f"cegis: killed by distinguishing vector {position}"
                    + (f" ({entry.origin})" if entry.origin else "")
                )
                results[index] = verdict
                obs.count("cegis.set_kills")
        alive = survivors

    # Stage 2: the unmodified legacy full check — the refinement anchor.
    if alive:
        verdicts = harness._check_many_against_trace(
            ref, _pick(alive, candidates), problem
        )
        passing = []
        for index, verdict in zip(alive, verdicts):
            results[index] = verdict
            if verdict.equivalent:
                passing.append(index)
        alive = passing

    # Stage 3: falsification search for full-check survivors, once per
    # distinct source (duplicates share the found counterexample).
    if alive and config.search_rounds > 0:
        by_source: "OrderedDict[object, List[int]]" = OrderedDict()
        for index in alive:
            key = (
                sources[index] if sources is not None
                else id(candidates[index])
            )
            by_source.setdefault(key, []).append(index)
        for indices in by_source.values():
            first = indices[0]
            entry = _falsify(
                ref,
                candidates[first],
                problem,
                sources[first] if sources is not None else None,
                config,
                ds,
            )
            if entry is None:
                continue
            for index in indices:
                verdict = _check_entry(
                    ref, entry, candidates[index], problem
                )
                if not verdict.equivalent:
                    verdict.notes.append(
                        "cegis: killed by falsification search"
                        + (f" ({entry.origin})" if entry.origin else "")
                    )
                    results[index] = verdict
    return results  # type: ignore[return-value]

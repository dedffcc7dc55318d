"""The four perf-ledger workloads: inputs from a seed, set-up steps, units.

Each workload is a closed loop with one caller.  A *unit* is one call
into a public entry point of ``repro``; an *iteration* is one pass over
the workload's fixed list of units.  A workload object owns

* its inputs, derived from ``--seed`` by :func:`derive_inputs` (the
  program under test only ever receives the generated inputs);
* its named set-up steps (``setup_steps``), timed by the runner;
* ``iterate(clock)``, which times every unit on ``clock`` and checks each
  unit's output against the reference *outside* the timed region,
  returning ``(attempted, failed)`` item counts.

Why these four (one layer group does most of the work in each, and
little in another):

``passk_headline``  the paper's joint protocol, generation-dominated
``check_cold``      checker-dominated, ``sim.cache`` miss + store path
``check_warm``      the same calls on the ``sim.cache`` hit path
``curate_stream``   FreeSet curation: lex/parse and MinHash/LSH dedup
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.copyright import CopyrightBenchmark
from repro.core.freeset import FreeSetBuilder, FreeSetResult
from repro.core.freev import FreeVTrainer
from repro.curation import CurationConfig, CurationPipeline, IncrementalCurator
from repro.evalkit import CopyrightTask, EvalPlan, PassAtKTask
from repro.github import WorldConfig, generate_world
from repro.sim import cache as sim_cache
from repro.utils.rng import DeterministicRNG
from repro.vereval import (
    EvalConfig,
    build_problem_set,
    check_candidates_lockstep,
)
from repro.vgen import mutate

from reference import (
    EXPECTED_DIR,
    cold_start,
    curation_failed,
    headline_failed,
    headline_summary,
)

#: ``benchmarks/conftest.py:BENCH_WORLD_CONFIG`` (copied: that module
#: imports pytest and lives outside the benchmark's paths); its other
#: three values are ``Sizes`` defaults
_BENCH_WORLD = dict(
    seed=0xDAC25,
    licensed_repo_fraction=0.46,
    duplicate_rate=0.55,
)


@dataclass(frozen=True)
class Sizes:
    """Everything that fixes how much work one iteration is."""

    n_repos: int = 400
    mega_file_modules: int = 1100
    proprietary_rate: float = 0.012
    n_problems: int = 60
    num_prompts: int = 100
    max_new_tokens: int = 600
    #: stimulus depth of the headline's problems (``build_problem_set``'s
    #: default)
    headline_cycles: int = 24
    #: ... and of the checker workloads' problems
    stimulus_cycles: int = 384
    pool_size: int = 12
    batch_files: int = 256
    window_specs: int = 64


FULL = Sizes()
#: ``--quick``: the harness test's sizes (seconds, not a measurement)
QUICK = Sizes(
    n_repos=40,
    mega_file_modules=12,
    proprietary_rate=0.05,
    n_problems=6,
    num_prompts=10,
    max_new_tokens=200,
    stimulus_cycles=48,
    batch_files=64,
    window_specs=16,
)


@dataclass(frozen=True)
class Inputs:
    """What ``--seed`` decides."""

    seed: int
    world: WorldConfig
    #: generation seeds: ``EvalConfig.seed`` and ``CopyrightTask`` seed
    eval_seed: int
    stimulus_rng: Optional[DeterministicRNG]
    pool_rng: DeterministicRNG
    arrival_rng: DeterministicRNG


def derive_inputs(seed: int, sizes: Sizes) -> Inputs:
    """The seed moves every *sampling* decision — which candidates are in
    a pool and in what order, which stimulus a problem is checked under,
    which generation seeds the plan uses, in what order files arrive —
    and never the corpus or the problem set.

    Those two fix the amount of work (a world drawn from another seed
    has 7.9k-9.2k files; models trained on it complete the same prompts
    at 0.7-1.1 k specs/s), and runs at different seeds are compared with
    each other.  Seed 0 is the canonical input set: ``build_problem_set``'s
    own stimulus seeds and ``EvalConfig.seed = 0``.
    """
    rng = DeterministicRNG(seed)
    return Inputs(
        seed=seed,
        world=WorldConfig(
            n_repos=sizes.n_repos,
            mega_file_modules=sizes.mega_file_modules,
            proprietary_rate=sizes.proprietary_rate,
            **_BENCH_WORLD,
        ),
        eval_seed=rng.fork("eval").seed if seed else 0,
        stimulus_rng=rng.fork("stimulus") if seed else None,
        pool_rng=rng.fork("pools"),
        arrival_rng=rng.fork("arrival"),
    )


def problem_set(inputs: Inputs, sizes: Sizes, stimulus_cycles: int) -> list:
    """The canonical problems, each under this seed's stimulus."""
    problems = build_problem_set(
        n_problems=sizes.n_problems, stimulus_cycles=stimulus_cycles
    )
    if inputs.stimulus_rng is None:
        return problems
    return [
        dataclasses.replace(
            p, stimulus_seed=inputs.stimulus_rng.fork(p.problem_id).seed
        )
        for p in problems
    ]


Step = Tuple[str, Callable[[], Optional[Iterator[None]]]]


def run_step(step) -> Iterator[Tuple[float, float]]:
    """Run one set-up step, yielding ``(start, end)`` of each segment.

    A plain step is one segment.  A long step may be written as a
    generator that yields between its parts: the runner spins at each
    yield, so the step is calibrated by spins taken while it ran and not
    only at its ends (``check_warm``'s 2-4 s ``cache_fill`` read 1.9-2.7
    calibrated seconds over six rounds with spins at its ends alone).
    """
    start = time.perf_counter()
    parts = step()
    if parts is not None:
        for _ in parts:
            yield start, time.perf_counter()
            start = time.perf_counter()
    yield start, time.perf_counter()


class Workload:
    """Common shape; see the module docstring."""

    name = ""

    def __init__(
        self, inputs: Inputs, sizes: Sizes, scratch: str, expected_dir: str
    ) -> None:
        self.inputs = inputs
        self.sizes = sizes
        #: directory the workload may write in (``sim.cache`` roots)
        self.scratch = scratch
        self.expected_dir = expected_dir
        #: this workload's section of the expected file (set by the runner)
        self.expected: Optional[dict] = None

    def setup_steps(self) -> List[Step]:
        raise NotImplementedError

    def items_per_iteration(self) -> int:
        raise NotImplementedError

    def iterate(self, clock) -> Tuple[int, int]:
        """``clock`` is a ``measure.UnitClock``: ``start()`` before a unit,
        ``lap(unit_id)`` after it."""
        raise NotImplementedError


# -- world / corpus steps shared by passk_headline and curate_stream ---------


class _WorldMixin:
    def _step_world(self) -> None:
        self.world = generate_world(self.inputs.world)

    def _step_scrape(self) -> None:
        self.builder = FreeSetBuilder(world=self.world)
        self.files, self.scrape_report = self.builder.scrape()


# -- passk_headline ----------------------------------------------------------


class PasskHeadline(_WorldMixin, Workload):
    """``FreeVTrainer.headline``'s plan: base + FreeV, pass@k + copyright."""

    name = "passk_headline"

    def setup_steps(self) -> List[Step]:
        return [
            ("world", self._step_world),
            ("scrape", self._step_scrape),
            ("curate", self._step_curate),
            ("corpus", self._step_corpus),
            ("train_base", self._step_train_base),
            ("train_freev", self._step_train_freev),
            ("problems", self._step_problems),
            ("index", self._step_index),
        ]

    def _step_curate(self) -> None:
        dataset = CurationPipeline(CurationConfig()).run(self.files)
        self.trainer = FreeVTrainer(
            freeset=FreeSetResult(
                dataset=dataset,
                scrape_report=self.scrape_report,
                raw_files=self.files,
            )
        )

    def _step_corpus(self) -> None:
        self.corpus = self.trainer.copyrighted_corpus

    def _step_train_base(self) -> None:
        self.base = self.trainer.base_model()

    def _step_train_freev(self) -> None:
        self.freev = self.trainer.train()

    def _step_problems(self) -> None:
        self.problems = problem_set(
            self.inputs, self.sizes, self.sizes.headline_cycles
        )

    def _step_index(self) -> None:
        self.benchmark = CopyrightBenchmark(
            self.corpus, num_prompts=self.sizes.num_prompts
        )
        self.passk = PassAtKTask(
            self.problems,
            EvalConfig(
                max_new_tokens=self.sizes.max_new_tokens,
                seed=self.inputs.eval_seed,
            ),
        )
        self.copyright = CopyrightTask(
            self.benchmark, seed=self.inputs.eval_seed
        )
        self.plan = self.build_plan()

    def build_plan(self, executor=None) -> EvalPlan:
        return EvalPlan(
            [self.base, self.freev],
            [self.passk, self.copyright],
            chunk_size=8,
            executor=executor,
        )

    def items_per_iteration(self) -> int:
        return self.plan.total_specs()

    def iterate(self, clock, **run_kwargs) -> Tuple[int, int]:
        """``run_kwargs`` reach ``EvalPlan.run`` (the traced run's
        checkpointed and pooled variants)."""
        sim_cache.configure("")
        window = self.sizes.window_specs
        closed = 0

        def on_progress(progress) -> None:
            nonlocal closed
            while progress.done >= window * (closed + 1):
                clock.lap(closed)
                closed += 1

        clock.start()
        run = self.plan.run(on_progress=on_progress, **run_kwargs)
        if len(clock.seconds) < self.n_units():
            clock.lap(closed)
        attempted = self.plan.total_specs()
        failed = headline_failed(headline_summary(self, run), self.expected)
        return attempted, failed

    def n_units(self) -> int:
        return -(-self.plan.total_specs() // self.sizes.window_specs)


# -- check_cold / check_warm -------------------------------------------------

#: body-only operator swaps; the spaced forms cannot touch ``<=``
_SWAPS = (
    (" + ", " - "),
    (" - ", " + "),
    (" & ", " | "),
    (" | ", " & "),
    (" ^ ", " | "),
    (" == ", " != "),
    (" != ", " == "),
    (" << ", " >> "),
    (" >> ", " << "),
    (" < ", " > "),
    (" > ", " < "),
    (" && ", " || "),
)


def build_pool(problem, rng: DeterministicRNG, size: int) -> List[Tuple[str, str]]:
    """A seeded ``(kind, source)`` pool mimicking one low-temperature
    pass@k sample set whose candidates elaborate.

    golden verbatim, a whitespace/comment variant (AST-identical
    resample), every ``vgen.mutate`` near-miss, up to three body-only
    operator swaps, one truncated source, one renamed module, padded
    with verbatim duplicates and shuffled.
    """
    source = problem.golden_source
    name = problem.module.name
    pool: List[Tuple[str, str]] = [
        ("golden", source),
        ("resample", "// resample\n" + source.replace("\n", "\n  ", 1)),
    ]
    pool.extend((f"mutant:{m.kind}", m.source) for m in mutate(problem.module))
    body_at = source.index(");") + 2
    sites = []
    for old, new in _SWAPS:
        at = source.find(old, body_at)
        while at != -1:
            sites.append((at, old, new))
            at = source.find(old, at + len(old))
    sites.sort()
    for at, old, new in sorted(rng.sample(sites, min(3, len(sites)))):
        pool.append(("swap", source[:at] + new + source[at + len(old):]))
    pool.append(("truncated", source[: len(source) * 2 // 3]))
    pool.append(
        ("renamed", source.replace(f"module {name}", f"module {name}_x", 1))
    )
    while len(pool) < size:
        pool.append(("dup", source))
    rng.shuffle(pool)
    return pool


class _CheckWorkload(Workload):

    def setup_steps(self) -> List[Step]:
        return [("problems", self._step_problems), ("pools", self._step_pools)]

    def _step_problems(self) -> None:
        self.problems = problem_set(
            self.inputs, self.sizes, self.sizes.stimulus_cycles
        )

    def _step_pools(self) -> None:
        rng = self.inputs.pool_rng
        self.pools = [
            build_pool(p, rng.fork(p.problem_id), self.sizes.pool_size)
            for p in self.problems
        ]
        self.sources = [[src for _, src in pool] for pool in self.pools]

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.scratch, f"simcache_{self.name}")

    def empty_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)

    def items_per_iteration(self) -> int:
        return sum(len(pool) for pool in self.pools)

    def prepare_iteration(self) -> None:
        raise NotImplementedError

    def iterate(self, clock) -> Tuple[int, int]:
        self.prepare_iteration()
        expected = self.expected["verdicts"]
        attempted = failed = 0
        for index, (problem, sources) in enumerate(
            zip(self.problems, self.sources)
        ):
            clock.start()
            verdicts = check_candidates_lockstep(problem, sources)
            clock.lap(index)
            attempted += len(sources)
            failed += sum(
                1
                for got, want in zip(verdicts, expected[index])
                if [got[0], got[1]] != list(want)
            )
        return attempted, failed


class CheckCold(_CheckWorkload):
    """``sim.cache`` directory emptied before every iteration."""

    name = "check_cold"

    def prepare_iteration(self) -> None:
        sim_cache.configure(self.cache_dir)
        self.empty_cache()
        cold_start()


class CheckWarm(_CheckWorkload):
    """``sim.cache`` filled once in set-up; only in-process state cleared
    per iteration (a pool worker, or a restarted service)."""

    name = "check_warm"

    def setup_steps(self) -> List[Step]:
        return super().setup_steps() + [("cache_fill", self._step_cache_fill)]

    def _step_cache_fill(self) -> Iterator[None]:
        sim_cache.configure(self.cache_dir)
        self.empty_cache()
        cold_start()
        for problem, sources in zip(self.problems, self.sources):
            check_candidates_lockstep(problem, sources)
            yield

    def prepare_iteration(self) -> None:
        sim_cache.configure(self.cache_dir)
        cold_start()


# -- curate_stream -----------------------------------------------------------


class CurateStream(_WorldMixin, Workload):
    """FreeSet curation, batch by batch, through ``IncrementalCurator``."""

    name = "curate_stream"

    def setup_steps(self) -> List[Step]:
        return [
            ("world", self._step_world),
            ("scrape", self._step_scrape),
            ("arrival", self._step_arrival),
        ]

    def _step_arrival(self) -> None:
        # scrape() output is license-faceted (its tail is the unlicensed
        # facet, dropped whole by the first filter), so scrape-order
        # batches are bimodal: half cost nothing.  Files arrive at an
        # incremental curator in no such order; a seeded shuffle makes
        # every batch a mix and the unit percentiles meaningful.
        # fork(): a fresh stream each repetition of the step
        self.arrivals = self.inputs.arrival_rng.fork("shuffle").shuffled(
            self.files
        )
        size = self.sizes.batch_files
        self.batches = [
            self.arrivals[i:i + size]
            for i in range(0, len(self.arrivals), size)
        ]

    def items_per_iteration(self) -> int:
        return len(self.arrivals)

    def iterate(self, clock) -> Tuple[int, int]:
        curator = IncrementalCurator(CurationConfig())
        for index, batch in enumerate(self.batches):
            clock.start()
            curator.ingest(batch)
            clock.lap(index)
        kept = [f.file_id for f in curator.kept_files]
        funnel = [
            [s.name, s.in_count, s.out_count] for s in curator.funnel.stages
        ]
        failed = curation_failed(kept, funnel, self.expected)
        return len(self.arrivals), failed


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PasskHeadline, CheckCold, CheckWarm, CurateStream)
}
WORKLOAD_NAMES = tuple(WORKLOADS)


def make_workload(
    name: str, seed: int, sizes: Sizes, scratch: str,
    expected_dir: str = EXPECTED_DIR,
) -> Workload:
    return WORKLOADS[name](
        derive_inputs(seed, sizes), sizes, scratch, expected_dir
    )

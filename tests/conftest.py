"""Shared fixtures: one small synthetic world and its derived artifacts.

Expensive artifacts (world, scrape, curated dataset, trained models) are
session-scoped so the suite stays fast while many test modules share
realistic inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.comparison import ModelZoo
from repro.core.freeset import FreeSetBuilder
from repro.copyright import collect_copyrighted_corpus
from repro.github import SimulatedGitHubAPI, WorldConfig, generate_world
from repro.llm import LanguageModel
from repro.sim import cache as sim_cache
from repro.sim import default_backend, set_default_backend
from repro.utils.rng import DeterministicRNG
from repro.vereval import cegis
from repro.vgen import generate as generate_module

#: the perf ledger's workloads (read-only here): the headline fixture
#: runs its ``passk_headline`` plan
PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

SMALL_WORLD_CONFIG = WorldConfig(
    n_repos=80,
    seed=0xA11CE,
    mega_file_modules=12,
)


def _pin(configure):
    """The current override of a ``configure(value) -> previous`` pin."""
    value = configure(None)
    configure(value)
    return value


@pytest.fixture(autouse=True)
def _restore_module_pins():
    """Every test leaves the process-wide pins as it found them.

    ``cegis.configure``, ``set_default_backend``, ``sim.cache.configure``
    and ``obs.configure`` are module globals: a test that sets one (or
    unpickles a ``CheckStage``, whose ``__setstate__`` re-applies its
    pins) would otherwise change what every later test runs under.
    """
    backend = default_backend()
    cegis_pin = _pin(cegis.configure)
    cache_pin = _pin(sim_cache.configure)
    obs_mode, obs_dir = obs.configure()
    yield
    set_default_backend(backend)
    cegis.configure(cegis_pin)
    sim_cache.configure(cache_pin)
    obs.configure(obs_mode, obs_dir or "")


@pytest.fixture(scope="session")
def world():
    return generate_world(SMALL_WORLD_CONFIG)


@pytest.fixture(scope="session")
def api(world):
    return SimulatedGitHubAPI(world)


@pytest.fixture(scope="session")
def freeset_result(world):
    return FreeSetBuilder(world=world).build()


@pytest.fixture(scope="session")
def raw_files(freeset_result):
    return freeset_result.raw_files


@pytest.fixture(scope="session")
def copyrighted_corpus(raw_files):
    return collect_copyrighted_corpus(raw_files)


@pytest.fixture(scope="session")
def module_pool():
    """A pool of generated modules for corpus-level tests."""
    rng = DeterministicRNG(0x906)
    return [generate_module(rng.fork(i)) for i in range(120)]


@pytest.fixture(scope="session")
def tiny_verilog_corpus(module_pool):
    return [m.source for m in module_pool]


@pytest.fixture(scope="session")
def tiny_model(tiny_verilog_corpus):
    """A small trained LM shared by sampler/benchmark tests."""
    return LanguageModel.pretrain(
        "tiny", tiny_verilog_corpus[:60], num_merges=200
    )


@pytest.fixture(scope="session")
def model_zoo(raw_files, copyrighted_corpus):
    return ModelZoo(
        raw_files,
        list(copyrighted_corpus.entries.values()),
        max_train_tokens=200_000,
    )


@pytest.fixture(scope="session")
def headline_runs(tmp_path_factory):
    """The perf ledger's ``passk_headline`` plan, run once at full size
    at seeds 0 and 1: ``{seed: (workload, RunResult)}``.

    The seed moves only the problems' stimulus and the generation seeds,
    so seed 1 reuses seed 0's world, corpus and models and repeats only
    the ``problems`` and ``index`` set-up steps.
    """
    if str(PERF_DIR) not in sys.path:
        sys.path.insert(0, str(PERF_DIR))
    from workloads import FULL, make_workload, run_step

    previous = sim_cache.configure("")
    runs = {}
    try:
        for seed in (0, 1):
            workload = make_workload(
                "passk_headline", seed, FULL,
                str(tmp_path_factory.mktemp("headline")),
            )
            for name, step in workload.setup_steps():
                if runs and name not in ("problems", "index"):
                    continue
                if runs and name == "problems":
                    first = runs[0][0]
                    vars(workload).update(
                        (k, v) for k, v in vars(first).items()
                        if k not in vars(workload)
                    )
                for _ in run_step(step):
                    pass
            runs[seed] = (workload, workload.plan.run())
    finally:
        sim_cache.configure(previous)
    return runs

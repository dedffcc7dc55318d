"""Reference outputs, produced by paths independent of the ones timed.

* ``check_*``: the ``interp``-pinned per-candidate
  ``check_candidate_source`` loop (the AST-walking simulator, no lane
  form, no lockstep, no ``sim.cache``), cross-checked against the
  answers fixed by construction (golden passes, truncated -> ``syntax``,
  renamed -> ``missing_module``).
* ``passk_headline``: the same plan under pinned ``interp``; pass@k
  recomputed from the pass counts with ``math.comb``; per-sample seeds
  recomputed from the ``DeterministicRNG`` fork chain.
* ``curate_stream``: the plain serial components — ``LicenseFilter.apply``
  -> ``deduplicate`` (per-file signatures) -> ``CopyrightFilter.apply``
  -> reference-lexer ``check_syntax``.

``make_expected.py`` commits these for seeds 0 and 1; for any other seed
the runner computes them inline (reported as ``reference_s``, outside
``setup_s``).  The comparison helpers live here too, so the timed side
and the reference side summarise a result with the same code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence

from repro.copyright.prompts import build_prompt
from repro.curation import CopyrightFilter, CurationConfig, LicenseFilter
from repro.dedup import deduplicate
from repro.sim import cache as sim_cache
from repro.sim import set_default_backend
from repro.utils.rng import DeterministicRNG
from repro.vereval import cegis as _cegis
from repro.vereval import check_candidate_source
from repro.vereval import harness as _harness
from repro.verilog import check_syntax

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: verdicts fixed by construction, whatever any simulator says
BY_CONSTRUCTION = {
    "golden": (True, ""),
    "dup": (True, ""),
    "resample": (True, ""),
    "truncated": (False, "syntax"),
    "renamed": (False, "missing_module"),
}


def cold_start() -> None:
    """Drop the checker's in-process golden artifacts and CEGIS memos.

    The one private touch the benchmark makes: ``repro`` has no public
    reset for these module-level caches (follow-up for a later issue).
    """
    _harness._GOLDEN_CACHE.clear()
    _cegis._SET_CACHE.clear()
    _cegis._GOLDEN_SWEEP_CACHE.clear()


class pinned_interp:
    """Context: interpreter backend, disk tier off, cold in-process state."""

    def __enter__(self) -> None:
        self._backend = set_default_backend("interp")
        self._cache = sim_cache.configure("")
        cold_start()

    def __exit__(self, *exc_info) -> None:
        set_default_backend(self._backend)
        sim_cache.configure(self._cache)
        cold_start()


# -- expected files ----------------------------------------------------------


def expected_path(directory: str, seed: int) -> str:
    return os.path.join(directory, f"seed_{seed}.json")


def load_expected(directory: str, seed: int, sizes, section: str) -> Optional[dict]:
    """One workload's committed reference, or None when there is none for
    this seed at these sizes (a file made at other sizes is not used)."""
    try:
        with open(expected_path(directory, seed)) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    if data.get("sizes") != dataclasses.asdict(sizes):
        return None
    return data.get(section)


def section_of(workload_name: str) -> str:
    """``check_cold`` and ``check_warm`` share pools, hence verdicts."""
    return "check" if workload_name.startswith("check_") else workload_name


def compute_reference(workload) -> dict:
    return {
        "check": check_reference,
        "passk_headline": headline_reference,
        "curate_stream": curation_reference,
    }[section_of(workload.name)](workload)


# -- check_* -----------------------------------------------------------------


def check_reference(workload) -> dict:
    verdicts: List[List[List]] = []
    with pinned_interp():
        for problem, pool in zip(workload.problems, workload.pools):
            memo: Dict[str, tuple] = {}
            row = []
            for kind, source in pool:
                if source not in memo:
                    memo[source] = check_candidate_source(problem, source)
                verdict = memo[source]
                fixed = BY_CONSTRUCTION.get(kind)
                if fixed is not None and tuple(verdict) != fixed:
                    raise AssertionError(
                        f"{problem.problem_id}: reference says {verdict} for "
                        f"a {kind} candidate, fixed by construction at {fixed}"
                    )
                row.append([verdict[0], verdict[1]])
            verdicts.append(row)
    return {"verdicts": verdicts}


# -- passk_headline ----------------------------------------------------------


def _digest(values: Sequence[int]) -> str:
    return hashlib.sha256(repr(list(values)).encode("utf-8")).hexdigest()[:16]


def headline_summary(workload, run) -> dict:
    """What a headline run produced, in the expected file's shape."""
    passk, copyright_task = workload.passk, workload.copyright
    out: dict = {
        "passes": {}, "failures": {}, "pass_at_k": {},
        "seed_digest": {}, "violations": {}, "violation_rate": {},
    }
    for model in run.model_names:
        result = run.result(model, passk.task_id)
        out["passes"][model] = {
            str(t): [o.passes for o in outcomes]
            for t, outcomes in result.outcomes.items()
        }
        failures: Dict[str, int] = {}
        for outcomes in result.outcomes.values():
            for outcome in outcomes:
                for reason, count in outcome.failures.items():
                    failures[reason] = failures.get(reason, 0) + count
        out["failures"][model] = dict(sorted(failures.items()))
        out["pass_at_k"][model] = {
            str(t): {str(k): v for k, v in sorted(scores.items())}
            for t, scores in result.per_temperature.items()
        }
        out["seed_digest"][model] = {
            task.task_id: _digest(run.seeds(model, task.task_id))
            for task in (passk, copyright_task)
        }
        report = run.result(model, copyright_task.task_id)
        out["violations"][model] = "".join(
            "1" if r.violation else "0" for r in report.results
        )
        out["violation_rate"][model] = report.violation_rate
    return out


def _pass_at_k(n: int, c: int, k: int) -> float:
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def headline_reference(workload) -> dict:
    with pinned_interp():
        run = workload.build_plan().run()
        summary = headline_summary(workload, run)
    config = workload.passk.config
    benchmark = workload.benchmark
    for model in summary["passes"]:
        # pass@k from the counts, not from the library's estimator
        summary["pass_at_k"][model] = {
            t: {
                str(k): sum(
                    _pass_at_k(config.n_samples, c, k) for c in counts
                ) / len(counts)
                for k in config.ks
            }
            for t, counts in summary["passes"][model].items()
        }
        # seeds from the fork chain, not from the records
        passk_seeds = [
            DeterministicRNG(config.seed)
            .fork(model, temperature, problem.problem_id, sample)
            .seed
            for temperature in config.temperatures
            for problem in workload.problems
            for sample in range(config.n_samples)
        ]
        copyright_seeds = [
            DeterministicRNG(workload.copyright.seed).fork(key, index).seed
            for index, key in enumerate(benchmark.prompt_keys)
            if build_prompt(benchmark.corpus.text(key), benchmark.prompt_spec)
        ]
        summary["seed_digest"][model] = {
            workload.passk.task_id: _digest(passk_seeds),
            workload.copyright.task_id: _digest(copyright_seeds),
        }
    return summary


def headline_failed(got: dict, want: dict) -> int:
    """Specs whose outcome differs from the reference."""
    failed = 0
    for model, by_temp in want["passes"].items():
        group_failed = 0
        for temp, counts in by_temp.items():
            have = got["passes"].get(model, {}).get(temp, [])
            if len(have) != len(counts):
                group_failed += len(counts)
                continue
            group_failed += sum(abs(a - b) for a, b in zip(have, counts))
            for k, value in want["pass_at_k"][model][temp].items():
                seen = got["pass_at_k"].get(model, {}).get(temp, {}).get(k)
                if seen is None or abs(seen - value) > 1e-9:
                    group_failed = max(group_failed, 1)
        if got["failures"].get(model) != want["failures"][model]:
            diff = sum(
                abs(got["failures"].get(model, {}).get(r, 0) - c)
                for r, c in want["failures"][model].items()
            )
            group_failed = max(group_failed, diff, 1)
        for task, digest in want["seed_digest"][model].items():
            if got["seed_digest"].get(model, {}).get(task) != digest:
                group_failed = max(group_failed, 1)
        bits, have_bits = want["violations"][model], got["violations"].get(model, "")
        if len(bits) != len(have_bits):
            group_failed += len(bits)
        else:
            group_failed += sum(a != b for a, b in zip(bits, have_bits))
        if abs(got["violation_rate"].get(model, -1.0)
               - want["violation_rate"][model]) > 1e-9:
            group_failed = max(group_failed, 1)
        failed += group_failed
    return failed


# -- curate_stream -----------------------------------------------------------


def curation_reference(workload) -> dict:
    config = CurationConfig()
    arrivals = workload.arrivals
    licensed = LicenseFilter().apply(arrivals)
    result = deduplicate(
        [(f.file_id, f.content) for f in licensed],
        threshold=config.dedup_threshold,
        seed=config.seed,
    )
    kept_keys = set(result.kept_keys)
    deduped = [f for f in licensed if f.file_id in kept_keys]
    clean = CopyrightFilter().apply(deduped)
    final = [f for f in clean if check_syntax(f.content).ok]
    counts = [len(arrivals), len(arrivals), len(licensed), len(deduped),
              len(clean), len(final)]
    names = ["extracted", "license_filter", "dedup", "copyright_filter",
             "syntax_check"]
    return {
        "kept": [f.file_id for f in final],
        "funnel": [
            [name, counts[i], counts[i + 1]] for i, name in enumerate(names)
        ],
    }


def curation_failed(kept: List[str], funnel: List[list], want: dict) -> int:
    """Files whose keep/drop decision differs, plus wrong funnel rows."""
    failed = len(set(kept) ^ set(want["kept"]))
    if not failed and kept != want["kept"]:
        failed = 1  # same set, wrong order
    failed += sum(
        1 for row in want["funnel"] if row not in [list(r) for r in funnel]
    )
    return failed

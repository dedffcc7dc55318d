#!/usr/bin/env python3
"""Perf ledger runner: absolute end-to-end numbers, layer by layer.

One measured round of one workload (what the benchmark driver runs)::

    python3 benchmarks/perf/run.py --workload check_cold --seed 3 \\
        --seconds 12 --trace 0

prints every metric by name with its unit, checks every output against
an independent reference, ends with one JSON line, and exits non-zero on
any wrong output.  ``--trace 1`` runs the traced variant instead: the
benchmark's own spans around the units and around a walk through each
layer's public functions, giving every per-layer metric and writing
``benchmarks/perf/out/trace_<workload>.jsonl``.

Without ``--workload`` it measures a full *set*: ``ROUNDS`` rounds of
each workload, each round a fresh child process, interleaved
(w1 w2 w3 w4 w1 ...) so a sustained slow phase of the host lands on at
most one round per workload; the estimator takes each unit's fastest
sample over all rounds.  ``--trace`` adds one traced child per workload,
``--out FILE`` writes the set as JSON (``BENCH_<n>.json``),
``--selfcheck`` measures two sets back to back, diffs them with
``diff.py`` and writes this PR's baseline, ``--quick`` is the harness
test's seconds-long smoke run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import diff  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
from workloads import FULL, QUICK, WORKLOAD_NAMES, make_workload  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline", "BENCH_11.json")
#: rounds (fresh processes) per workload in a full set
ROUNDS = 3


def print_metrics(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>14.6g} {unit}")


def rows_of(metrics: dict) -> list:
    """``with_units`` output as ``print_metrics`` rows."""
    return [(name, m["value"], m["unit"]) for name, m in metrics.items()]


def with_units(values: dict, declared: list) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


# -- one round (the driver's command) ----------------------------------------


def run_one(args, bench: dict) -> int:
    """Measure one round of ``args.workload``; print the result line."""
    sizes = QUICK if args.quick else FULL
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        workload = make_workload(
            args.workload, args.seed, sizes, scratch, args.expected_dir
        )
        if args.trace:
            import layers

            declared = bench["per_layer"]
            result = layers.run_traced(
                workload, args.quick, OUT_DIR, [m["name"] for m in declared]
            )
            info = result["info"]
        else:
            result = measure.run_round(
                workload, args.seconds, 1 if args.quick else measure.SETUP_MIN_REPS
            )
            result["metrics"] = measure.e2e_metrics([result])
            declared = bench["end_to_end"]
            info = measure.info_lines([result])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_metrics(f"{args.workload} seed={args.seed} (informational)", info)
    metrics = with_units(result["metrics"], declared)
    print_metrics(f"{args.workload} seed={args.seed}", rows_of(metrics))
    if args.raw:
        with open(args.raw, "w") as handle:
            json.dump(result, handle)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


# -- a full set --------------------------------------------------------------


def child(args, workload: str, trace: int) -> dict:
    """One round in a fresh process; its raw result."""
    fd, raw = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    os.close(fd)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--raw", raw, "--expected-dir", args.expected_dir,
    ] + (["--quick"] if args.quick else [])
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if os.path.getsize(raw) == 0:
            sys.stdout.write(done.stdout)
            raise RuntimeError(f"{workload}: child exited {done.returncode}")
        with open(raw) as handle:
            return json.load(handle)
    finally:
        os.remove(raw)


def run_set(args, bench: dict) -> dict:
    """``ROUNDS`` interleaved rounds of every workload (+ traced runs)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds = {name: [] for name in WORKLOAD_NAMES}
    for index in range(1 if args.quick else ROUNDS):
        for name in WORKLOAD_NAMES:
            print(f"round {index + 1}: {name}", flush=True)
            rounds[name].append(child(args, name, 0))
    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
        "workloads": {},
    }
    for name, raw in rounds.items():
        entry = {
            "metrics": with_units(measure.e2e_metrics(raw), bench["end_to_end"]),
            "failed_frac": measure.failed_frac(raw),
            "info": {n: v for n, v, _ in measure.info_lines(raw)},
            "round_metrics": [measure.e2e_metrics([r]) for r in raw],
            "rounds": raw,
        }
        if args.trace:
            print(f"traced: {name}", flush=True)
            traced = child(args, name, 1)
            entry["layers"] = with_units(traced["metrics"], bench["per_layer"])
        result["workloads"][name] = entry
    return result


def print_set(result: dict) -> None:
    for name, entry in result["workloads"].items():
        rows = rows_of(entry["metrics"])
        rows.append(("failed_frac", entry["failed_frac"], "frac"))
        rows.extend((n, v, "") for n, v in entry["info"].items())
        print_metrics(name, rows)
        if "layers" in entry:
            print_metrics(f"{name} (per layer)", rows_of(entry["layers"]))


def set_failed(result: dict) -> bool:
    return any(e["failed_frac"] > 0 for e in result["workloads"].values())


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def selfcheck(args, bench: dict) -> int:
    """Two sets of the same code must agree within the declared bounds."""
    first = run_set(args, bench)
    second = run_set(args, bench)
    print_set(second)
    rows = diff.compare(first, second, bench)
    diff.print_rows(rows)
    write_json(args.out or BASELINE, {"sets": [first, second]})
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 1 if bad or set_failed(first) or set_failed(second) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed iterations run until this much time has passed "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, every per-layer metric and the span file",
    )
    parser.add_argument("--out", help="write the full set here as JSON")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument(
        "--quick", action="store_true",
        help="small inputs, one round, one iteration (a smoke run)",
    )
    parser.add_argument("--expected-dir", default=reference.EXPECTED_DIR)
    parser.add_argument("--raw", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bench = diff.load_benchmark()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(bench["run_seconds"])
    if args.workload:
        return run_one(args, bench)
    if args.selfcheck:
        return selfcheck(args, bench)
    result = run_set(args, bench)
    print_set(result)
    if args.out:
        write_json(args.out, result)
    return 1 if set_failed(result) else 0


if __name__ == "__main__":
    sys.exit(main())

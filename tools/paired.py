#!/usr/bin/env python3
"""Paired perf runs: a change against its parent, seed by seed.

Usage::

    python3 tools/paired.py --workload passk_headline --seeds 760-769 \\
        [--workload check_cold ...] [--seconds 10] [--base HEAD] \\
        [--parent-dir DIR] [--out FILE]

The *change* is the working tree this file sits in; the *parent* is
``--base`` (default ``HEAD``), materialised with ``git worktree add`` in
a temporary directory and removed afterwards, or an already materialised
tree given as ``--parent-dir`` (a ``git archive`` of the parent, say).
For every seed, and every workload at that seed, the unedited
``benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0``
runs once in each tree, in a fresh process; the parent goes first on
even pairs and the change first on odd ones, so a slow phase of the host
is shared out between the two.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints both medians and quartiles, the change's wins of N pairs, the
ratio of the medians, whether the change's median gain is larger than
the parent's interquartile range, and whether the change is inside the
metric's bound.  ``--out`` writes the rows and the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "perf", "run.py")

#: the two trees, in the order the even pairs run them
TREES = ("parent", "change")


def parse_seeds(text: str) -> List[int]:
    """``"760-769"`` or ``"3,5,8"`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_round(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` round in ``tree``: its last output line, parsed,
    with the exit status; ``correct`` is False if the round failed."""
    proc = subprocess.run(
        [
            sys.executable, RUNNER, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    if proc.returncode != 0:
        result["correct"] = False
        result["stderr"] = proc.stderr[-2000:]
    return result


def run_pairs(
    trees: Dict[str, str], workloads: Sequence[str], seeds: Sequence[int],
    seconds: float, log=print,
) -> List[dict]:
    """Every pair's two rounds as rows: ``{workload, seed, pair, tree,
    correct, metrics: {name: value}}``."""
    rows: List[dict] = []
    for pair, seed in enumerate(seeds):
        order = TREES if pair % 2 == 0 else TREES[::-1]
        for workload in workloads:
            for tree in order:
                result = run_round(trees[tree], workload, seed, seconds)
                rows.append({
                    "workload": workload, "seed": seed, "pair": pair,
                    "tree": tree, "correct": bool(result.get("correct")),
                    "metrics": {
                        name: metric["value"]
                        for name, metric in result.get("metrics", {}).items()
                    },
                })
                log(
                    f"{workload} seed={seed} {tree}: "
                    + ("ok" if rows[-1]["correct"] else "FAILED")
                )
    return rows


def _quartiles(values: Sequence[float]):
    """``(q1, median, q3)``, inclusive method (one value: itself)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(rows: Sequence[dict], bench: dict) -> List[dict]:
    """One entry per workload and end-to-end metric of ``bench``.

    Only pairs whose two rounds are both correct and both carry the
    metric count.  ``wins`` counts pairs where the change is better in
    the metric's direction; ``gain`` is the change of the median in that
    direction (positive: better); ``clears_iqr`` is whether ``gain`` is
    larger than the parent's interquartile range; ``inside_bound`` is
    whether the change's median is no worse than the parent's by more
    than the metric's bound (a fraction of the parent's median).
    """
    by_pair: Dict[tuple, Dict[str, dict]] = {}
    workloads: List[str] = []
    for row in rows:
        if row["workload"] not in workloads:
            workloads.append(row["workload"])
        key = (row["workload"], row["pair"])
        by_pair.setdefault(key, {})[row["tree"]] = row
    out: List[dict] = []
    for workload in workloads:
        pairs = [
            trees for (w, _), trees in sorted(by_pair.items()) if w == workload
        ]
        for metric in bench["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = [
                tuple(trees[tree]["metrics"][name] for tree in TREES)
                for trees in pairs
                if all(
                    tree in trees and trees[tree]["correct"]
                    and name in trees[tree]["metrics"]
                    for tree in TREES
                )
            ]
            entry = {"workload": workload, "metric": name, "n": len(values)}
            if values:
                parent = _quartiles([p for p, _ in values])
                change = _quartiles([c for _, c in values])
                sign = 1.0 if higher else -1.0
                gain = sign * (change[1] - parent[1])
                entry.update(
                    parent_q1=parent[0], parent_median=parent[1],
                    parent_q3=parent[2], change_q1=change[0],
                    change_median=change[1], change_q3=change[2],
                    wins=sum(sign * (c - p) > 0 for p, c in values),
                    ratio=change[1] / parent[1] if parent[1] else None,
                    gain=gain,
                    clears_iqr=gain > parent[2] - parent[0],
                    inside_bound=gain >= -metric["bound"] * abs(parent[1]),
                )
            out.append(entry)
    return out


def format_summary(summary: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<12} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'wins':>6} {'ratio':>7} "
        f"{'>IQR':>5} {'bound':>6}"
    ]
    for e in summary:
        if not e["n"]:
            lines.append(f"{e['workload']:<15} {e['metric']:<12} no pairs")
            continue
        quart = lambda who: "{:.4g}/{:.4g}/{:.4g}".format(  # noqa: E731
            e[f"{who}_q1"], e[f"{who}_median"], e[f"{who}_q3"]
        )
        ratio = "-" if e["ratio"] is None else f"{e['ratio']:.3f}"
        lines.append(
            f"{e['workload']:<15} {e['metric']:<12} {quart('parent'):>30} "
            f"{quart('change'):>30} {e['wins']:>3}/{e['n']:<2} {ratio:>7} "
            f"{'yes' if e['clears_iqr'] else 'no':>5} "
            f"{'in' if e['inside_bound'] else 'OUT':>6}"
        )
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--parent-dir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    worktree = None
    parent = args.parent_dir
    if parent is None:
        worktree = tempfile.mkdtemp(prefix="paired-parent-")
        os.rmdir(worktree)
        _git("worktree", "add", "--detach", worktree, args.base)
        parent = worktree
    try:
        rows = run_pairs(
            {"parent": parent, "change": ROOT}, args.workload, args.seeds,
            seconds,
        )
    finally:
        if worktree is not None:
            _git("worktree", "remove", "--force", worktree)
    summary = summarize(rows, bench)
    print(format_summary(summary))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "parent": args.parent_dir or args.base,
                "seeds": args.seeds, "seconds": seconds,
                "rows": rows, "summary": summary,
            }, handle, indent=1)
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

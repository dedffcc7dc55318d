#!/usr/bin/env python3
"""Compare two perf-ledger sets: ``python3 benchmarks/perf/diff.py A.json B.json``.

``A`` is the base (the parent commit's set), ``B`` the change's.  Every
(end-to-end metric, workload) pair is its own row, printed as a ratio
*with its base*, judged against the bound ``BENCHMARK.json`` fixes for
that metric:

``regression``  B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unchanged``   within the bound
``unresolved``  within the bound, but the measurement cannot support
                "unchanged": the two files' ``host.calib_ms`` minima
                differ by more than 5 % (the host itself changed speed),
                or the row's own round-to-round spread exceeds its bound

Exits non-zero on any regression or on a higher ``failed_frac``.
A file holding ``{"sets": [...]}`` (``run.py --selfcheck``) stands for
its last set.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import estimator  # noqa: E402

#: how far the two files' calibration minima may differ
CALIB_TOLERANCE = 0.05


def load_benchmark() -> dict:
    """``BENCHMARK.json`` at the repository root: metrics and bounds."""
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_set(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    return data["sets"][-1] if "sets" in data else data


def calib_min(result: dict) -> float:
    """The file's fastest calibration spin, in ms."""
    return 1e3 * min(
        spin
        for entry in result["workloads"].values()
        for r in entry["rounds"]
        for row in r["iterations"]
        for spin in row["spin_s"]
    )


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def judge(worse: float, bound: float, noisy: bool) -> str:
    if worse > bound:
        return "regression"
    if worse < -bound:
        return "improved"
    return "unresolved" if noisy else "unchanged"


def compare(a: dict, b: dict, bench: dict) -> List[dict]:
    """One row per (workload, end-to-end metric), plus ``failed_frac``."""
    calib_a, calib_b = calib_min(a), calib_min(b)
    host_moved = (
        abs(calib_a - calib_b) / min(calib_a, calib_b) > CALIB_TOLERANCE
    )
    rows: List[dict] = []
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        entry_a, entry_b = a["workloads"][name], b["workloads"][name]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            base = entry_a["metrics"][key]["value"]
            new = entry_b["metrics"][key]["value"]
            spreads = [
                estimator.relative_spread([r[key] for r in e["round_metrics"]])
                for e in (entry_a, entry_b)
            ]
            noisy = host_moved or max(spreads) > metric["bound"]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "base": base, "new": new, "ratio": new / base,
                "bound": metric["bound"], "spread": max(spreads),
                "verdict": judge(
                    worsening(base, new, metric["better"]),
                    metric["bound"], noisy,
                ),
            })
        base, new = entry_a["failed_frac"], entry_b["failed_frac"]
        rows.append({
            "workload": name, "metric": "failed_frac", "unit": "frac",
            "base": base, "new": new,
            "ratio": new / base if base else float(new > 0),
            "bound": 0.0, "spread": 0.0,
            "verdict": "regression" if new > base else "unchanged",
        })
    return rows


def print_rows(rows: List[dict]) -> None:
    print(
        f"{'workload':<16}{'metric':<14}{'base':>13}{'new':>13}"
        f"{'new/base':>10}{'bound':>7}{'spread':>8}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<16}{row['metric']:<14}"
            f"{row['base']:>13.6g}{row['new']:>13.6g}"
            f"{row['ratio']:>10.4f}{row['bound']:>7.2f}{row['spread']:>8.3f}"
            f"  {row['verdict']} ({row['unit']})"
        )


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    a, b = load_set(paths[0]), load_set(paths[1])
    print(
        f"host.calib_ms minima: base {calib_min(a):.3f} ms, "
        f"new {calib_min(b):.3f} ms"
    )
    rows = compare(a, b, load_benchmark())
    print_rows(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

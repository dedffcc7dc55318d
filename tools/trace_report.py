#!/usr/bin/env python
"""Render a human report from traced-run artifacts (``repro.obs``).

Usage::

    python tools/trace_report.py [DIR] [--top N] [--merge]

``DIR`` defaults to ``REPRO_OBS_DIR`` or ``repro_obs``; it may be a run
directory containing ``events.jsonl`` directly, or a parent directory
holding any number of exported runs (``<name>-<pid>-<seq>/``) — each run
found is reported in turn, or, with ``--merge``, every log found is
folded into one combined report (spans concatenated, counters summed,
gauges last-wins) — the view you want for a cluster run, whose
coordinator and ``cluster-worker-<id>-<pid>/`` logs land side by side.
For every run the report shows:

* the per-span breakdown: call count, total/mean/max wall time, CPU
  time, grouped by span name;
* the final metric values (counters, gauges);
* the top-N slowest ``vereval.problem`` spans — the problems to look at
  first when an evaluation run is slow.

Reads only the ``events.jsonl`` log, so it works on artifacts shipped
from another machine (e.g. a CI trace artifact) without the repo's
source tree on ``sys.path`` beyond this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Tuple

_NS_PER_S = 1_000_000_000.0


def find_event_logs(root: str) -> List[str]:
    """Every ``events.jsonl`` under ``root`` (or ``root`` itself)."""
    if os.path.isfile(root):
        return [root]
    direct = os.path.join(root, "events.jsonl")
    if os.path.isfile(direct):
        return [direct]
    found: List[str] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        if "events.jsonl" in filenames:
            found.append(os.path.join(dirpath, "events.jsonl"))
    return found


def read_lines(path: str) -> Iterator[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                yield json.loads(raw)


def _fmt_seconds(ns: float) -> str:
    return f"{ns / _NS_PER_S:9.3f}s"


def _span_table(spans: List[Dict[str, Any]]) -> List[str]:
    agg: Dict[str, List[float]] = {}
    for span in spans:
        entry = agg.setdefault(span["name"], [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] = max(entry[2], span["dur"])
        entry[3] += span.get("cpu") or 0.0
    if not agg:
        return []
    width = max(len(name) for name in agg)
    lines = [
        f"  {'span':<{width}}  {'n':>7}  {'total':>10} "
        f"{'mean':>10} {'max':>10} {'cpu':>10}"
    ]
    for name, (n, total, peak, cpu) in sorted(
        agg.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"  {name:<{width}}  {n:>7}  {_fmt_seconds(total):>10} "
            f"{_fmt_seconds(total / n):>10} {_fmt_seconds(peak):>10} "
            f"{_fmt_seconds(cpu):>10}"
        )
    return lines


def _metric_table(lines_in: List[Dict[str, Any]]) -> List[str]:
    rows: List[Tuple[str, str]] = []
    for line in lines_in:
        if line["type"] in ("counter", "gauge"):
            rows.append((line["name"], f"{line['value']:g}"))
    if not rows:
        return []
    width = max(len(name) for name, _ in rows)
    return [f"  {name:<{width}}  {value}" for name, value in sorted(rows)]


def _slowest_problems(
    spans: List[Dict[str, Any]], top: int
) -> List[str]:
    problems = [s for s in spans if s["name"] == "vereval.problem"]
    problems.sort(key=lambda s: -s["dur"])
    lines = []
    for span in problems[:top]:
        attrs = span.get("attrs") or {}
        label = attrs.get("problem", "?")
        candidates = attrs.get("candidates", "?")
        lines.append(
            f"  {_fmt_seconds(span['dur'])}  {label} "
            f"(candidates={candidates})"
        )
    return lines


def _report_block(
    header: str, lines_in: List[Dict[str, Any]], top: int
) -> List[str]:
    spans = [line for line in lines_in if line["type"] == "span"]
    out = [header]
    span_table = _span_table(spans)
    if span_table:
        out.append("spans:")
        out.extend(span_table)
    metric_table = _metric_table(lines_in)
    if metric_table:
        out.append("metrics:")
        out.extend(metric_table)
    slowest = _slowest_problems(spans, top)
    if slowest:
        out.append(f"slowest problems (top {top}):")
        out.extend(slowest)
    return out


def report_run(path: str, top: int) -> List[str]:
    lines_in = list(read_lines(path))
    meta = next(
        (line for line in lines_in if line["type"] == "meta"), {}
    )
    header = (
        f"== {os.path.dirname(path) or path} "
        f"(run={meta.get('run', '?')}, mode={meta.get('mode', '?')}) =="
    )
    return _report_block(header, lines_in, top)


def merge_logs(paths: List[str]) -> List[Dict[str, Any]]:
    """Fold several event logs into one combined line list.

    Spans concatenate; counters sum by name; gauges are last-wins.  This
    is how a cluster run — one coordinator log plus one residual log per
    worker — reads as a single report.
    """
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    runs: List[str] = []
    for path in paths:
        for line in read_lines(path):
            kind = line["type"]
            if kind == "meta":
                runs.append(str(line.get("run", "?")))
            elif kind == "span":
                spans.append(line)
            elif kind == "counter":
                counters[line["name"]] = (
                    counters.get(line["name"], 0) + line["value"]
                )
            elif kind == "gauge":
                gauges[line["name"]] = line["value"]
    out: List[Dict[str, Any]] = [
        {"type": "meta", "run": "+".join(runs) or "?", "mode": "merged"}
    ]
    out.extend(spans)
    out.extend(
        {"type": "counter", "name": name, "value": value}
        for name, value in counters.items()
    )
    out.extend(
        {"type": "gauge", "name": name, "value": value}
        for name, value in gauges.items()
    )
    return out


def report_merged(paths: List[str], top: int) -> List[str]:
    lines_in = merge_logs(paths)
    meta = lines_in[0]
    header = f"== merged: {len(paths)} logs (runs={meta['run']}) =="
    return _report_block(header, lines_in, top)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize repro.obs trace artifacts."
    )
    parser.add_argument(
        "directory",
        nargs="?",
        default=os.environ.get("REPRO_OBS_DIR") or "repro_obs",
        help="run directory or parent of run directories "
        "(default: $REPRO_OBS_DIR or ./repro_obs)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="slowest problems to list per run (default 10)",
    )
    parser.add_argument(
        "--merge",
        action="store_true",
        help="fold every log found into one combined report "
        "(e.g. a cluster coordinator plus its worker logs)",
    )
    args = parser.parse_args(argv)
    logs = find_event_logs(args.directory)
    if not logs:
        print(
            f"no events.jsonl found under {args.directory!r} "
            "(run with REPRO_OBS=trace to produce one)",
            file=sys.stderr,
        )
        return 1
    if args.merge:
        blocks = [report_merged(logs, args.top)]
    else:
        blocks = [report_run(path, args.top) for path in logs]
    print("\n\n".join("\n".join(block) for block in blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())

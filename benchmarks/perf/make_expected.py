#!/usr/bin/env python3
"""Write the committed reference outputs: ``expected/seed_<n>.json``.

    python3 benchmarks/perf/make_expected.py            # seeds 0 and 1
    python3 benchmarks/perf/make_expected.py --seed 7   # one more seed

Each file holds, for one seed at the full sizes, what ``reference.py``
computes by paths independent of the ones ``run.py`` times: the
``check_*`` verdicts, the ``passk_headline`` summary and the
``curate_stream`` kept list and funnel.  Regenerate after any change to
the workload inputs (``workloads.Sizes``, pool construction, seed
derivation); a file made at other sizes is ignored by the runner.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import reference  # noqa: E402
from workloads import FULL, Sizes, make_workload, run_step  # noqa: E402

#: one workload per section of the file (check_cold and check_warm share)
SECTION_WORKLOADS = ("check_cold", "passk_headline", "curate_stream")


def build(seed: int, sizes: Sizes = FULL, workloads=SECTION_WORKLOADS) -> dict:
    """The expected file's content for ``seed`` at ``sizes``."""
    expected = {"seed": seed, "sizes": dataclasses.asdict(sizes)}
    scratch = tempfile.mkdtemp(prefix="expected-")
    try:
        for name in workloads:
            workload = make_workload(name, seed, sizes, scratch)
            for _, step in workload.setup_steps():
                for _ in run_step(step):
                    pass
            expected[reference.section_of(name)] = reference.compute_reference(
                workload
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return expected


def write(directory: str, expected: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = reference.expected_path(directory, expected["seed"])
    with open(path, "w") as handle:
        json.dump(expected, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--out-dir", default=reference.EXPECTED_DIR)
    args = parser.parse_args(argv)
    for seed in args.seed or [0, 1]:
        print(write(args.out_dir, build(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Execute the documentation so it cannot rot.

Three kinds of checks, all wired into CI and into the tier-1 suite
through ``tests/test_docs.py``:

* every fenced ```python code block in ``README.md`` and ``docs/*.md``
  runs top to bottom in its own namespace (blocks are self-contained by
  convention; any uncaught exception fails the check and names the file
  and line the block starts on);
* the doctests of the public simulation API modules
  (:mod:`repro.sim.simulator`, :mod:`repro.sim.testbench`) run via
  :mod:`doctest`, so the examples in those docstrings stay executable;
* the ``REPRO_*`` names mentioned under ``src/`` equal the rows of the
  "Environment variables" table in ``docs/architecture.md``, so a knob
  cannot be added or removed without its row.

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

With no arguments it checks README.md plus every markdown file under
docs/, and the environment-variable table.
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import re
import sys
import traceback
from typing import List, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: modules whose docstring examples must stay runnable
DOCTEST_MODULES = (
    "repro.sim.simulator",
    "repro.sim.testbench",
    "repro.sim.coverage",
)

_FENCE = re.compile(r"^```(\w*)\s*$")

_ENV_NAME = re.compile(r"REPRO_[A-Z_]+")
_ENV_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|")
_ENV_HEADING = "## Environment variables"


def extract_blocks(path: pathlib.Path) -> List[Tuple[int, str]]:
    """Fenced ```python blocks in ``path`` as (start line, code) pairs."""
    blocks: List[Tuple[int, str]] = []
    language = None
    start = 0
    lines: List[str] = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        fence = _FENCE.match(line)
        if fence is None:
            if language is not None:
                lines.append(line)
            continue
        if language is None:
            language = fence.group(1).lower()
            start = lineno + 1
            lines = []
        else:
            if language == "python":
                blocks.append((start, "\n".join(lines) + "\n"))
            language = None
    return blocks


def run_block(path: pathlib.Path, lineno: int, code: str) -> bool:
    """Execute one code block; report and return False on failure."""
    namespace = {"__name__": f"docblock:{path.name}:{lineno}"}
    # Pad with blank lines so traceback line numbers are absolute in the
    # markdown file instead of relative to the block.
    padded = "\n" * (lineno - 1) + code
    try:
        exec(compile(padded, str(path), "exec"), namespace)
    except Exception:
        print(f"FAIL {path}:{lineno}")
        traceback.print_exc()
        return False
    print(f"ok   {path}:{lineno}")
    return True


def run_doctests(module_name: str) -> bool:
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    if results.failed:
        print(f"FAIL doctests: {module_name} ({results.failed} failing)")
        return False
    print(f"ok   doctests: {module_name} ({results.attempted} examples)")
    return True


def env_names_in_source(src: pathlib.Path) -> Set[str]:
    """Every ``REPRO_*`` name in the python files under ``src``.

    Names ending in ``_`` are prose globs (``REPRO_CLUSTER_*``), not
    variables.
    """
    names: Set[str] = set()
    for path in sorted(src.rglob("*.py")):
        names.update(_ENV_NAME.findall(path.read_text(encoding="utf-8")))
    return {name for name in names if not name.endswith("_")}


def env_table_rows(doc: pathlib.Path) -> Set[str]:
    """First-column names of the "Environment variables" table in ``doc``."""
    rows: Set[str] = set()
    in_section = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_section = line.strip() == _ENV_HEADING
        elif in_section:
            row = _ENV_ROW.match(line)
            if row is not None:
                rows.add(row.group(1))
    return rows


def check_env_table(src: pathlib.Path, doc: pathlib.Path) -> bool:
    names = env_names_in_source(src)
    rows = env_table_rows(doc)
    if names != rows:
        print(f"FAIL env table: {doc}")
        for name in sorted(names - rows):
            print(f"  {name} is read under {src} but has no table row")
        for name in sorted(rows - names):
            print(f"  {name} has a table row but is not read under {src}")
        return False
    print(f"ok   env table: {len(names)} REPRO_* knobs = {len(rows)} rows")
    return True


def default_paths() -> List[pathlib.Path]:
    paths = [REPO_ROOT / "README.md"]
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        paths.extend(sorted(docs.glob("*.md")))
    return paths


def main(argv: Sequence[str] = ()) -> int:
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    paths = [pathlib.Path(arg) for arg in argv] or default_paths()
    ok = True
    total = 0
    for path in paths:
        for lineno, code in extract_blocks(path):
            total += 1
            ok = run_block(path, lineno, code) and ok
    for module_name in DOCTEST_MODULES:
        ok = run_doctests(module_name) and ok
    if not argv:
        ok = check_env_table(src, REPO_ROOT / "docs" / "architecture.md") and ok
    if total == 0:
        print("FAIL: no python code blocks found — wrong paths?")
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python
"""Function census: which ``src/repro`` functions does no entry point reach?

Runs the four ledger workloads traced and untraced at seed 0, ``run.py
--quick``, every ``examples/*.py``, ``tools/check_docs.py`` and the ten paper
benches under a generated ``sitecustomize`` that installs ``sys.setprofile``
in every process they start; writes per file each ``ast``-enumerated function
none of them called (with its line count) and, for each called one, the
entry-point groups that reach it.  Evidence for deletions, not a gate (~12
min on 2 cores); the entry points write their usual artifacts, so run it as
``python tools/census.py --tree <scratch clone> --out CENSUS_24.json``.
"""

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile

_SITECUSTOMIZE = '''
import atexit, json, os, signal, sys, threading
from multiprocessing import util
_ROOT, _OUT = os.environ["CENSUS_ROOT"], os.environ["CENSUS_OUT"]
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _flush(*_):
    rows = sorted({(c.co_filename[len(_ROOT):], c.co_firstlineno, c.co_name)
                   for c in list(_seen) if c.co_filename.startswith(_ROOT)})
    name = "%s-%d.json" % (os.environ["CENSUS_GROUP"], os.getpid())
    with open(os.path.join(_OUT, name), "w") as handle:
        json.dump(rows, handle)
def _on_term(signum, frame):
    _flush()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)
atexit.register(_flush)
# multiprocessing children end by os._exit and never run atexit, and their
# finalizer registry is cleared on start: register the flush after each fork
util.register_after_fork(_flush, lambda f: util.Finalize(None, f, exitpriority=0))
os.register_at_fork(after_in_child=lambda: sys.setprofile(_hook))
if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
    signal.signal(signal.SIGTERM, _on_term)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(tree: str) -> dict:
    """Entry-point group -> argv tails (run as ``python ...``, ``cwd=tree``)."""
    run = "benchmarks/perf/run.py"
    workloads = ("passk_headline", "check_cold", "check_warm", "curate_stream")
    return {
        "ledger": [
            [run, "--workload", w, "--seed", "0", "--seconds", "2", "--trace", t]
            for w in workloads for t in ("0", "1")
        ],
        "quick": [[run, "--quick"]],
        "examples": [[p] for p in sorted(glob.glob("examples/*.py", root_dir=tree))],
        "docs": [["tools/check_docs.py"]],
        # the paper's tables, figures and ablations; *_perf.py are ratio benches
        "benches": [
            ["-m", "pytest", "-q", "-p", "no:cacheprovider", path]
            for path in sorted(glob.glob("benchmarks/bench_*.py", root_dir=tree))
            if not path.endswith("_perf.py")
        ],
    }


def enumerate_functions(src_root: str) -> dict:
    """``{relpath: {(firstlineno, name): (qualname, n_lines)}}`` by ``ast``;
    ``firstlineno`` is the first decorator's line, as in ``co_firstlineno``."""
    def visit(node, prefix, found):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                found[(min(lines), child.name)] = (
                    prefix + child.name, child.end_lineno - min(lines) + 1)
            if hasattr(child, "decorator_list"):  # a def or a class
                inner = prefix + child.name + "."
            visit(child, inner, found)
        return found

    table = {}
    for rel in sorted(glob.glob("**/*.py", root_dir=src_root, recursive=True)):
        with open(os.path.join(src_root, rel), encoding="utf-8") as handle:
            table[rel] = visit(ast.parse(handle.read()), "", {})
    return table


def run_entry_points(tree: str, src_root: str):
    """``{(relpath, firstlineno, name): groups that called it}``, exit codes."""
    reached, runs = {}, []
    with tempfile.TemporaryDirectory(prefix="census_") as work:
        with open(os.path.join(work, "sitecustomize.py"), "w") as handle:
            handle.write(_SITECUSTOMIZE)
        roots = [work, os.path.join(tree, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, CENSUS_ROOT=src_root, CENSUS_OUT=work,
                   PYTHONPATH=os.pathsep.join(filter(None, roots)))
        for group, commands in entry_points(tree).items():
            env["CENSUS_GROUP"] = group
            for tail in commands:
                done = subprocess.run(
                    [sys.executable] + tail, cwd=tree, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                runs.append({"group": group, "argv": tail, "exit": done.returncode})
                print(runs[-1], file=sys.stderr)
        for path in glob.glob(os.path.join(work, "*.json")):
            group = os.path.basename(path).rsplit("-", 1)[0]
            with open(path) as handle:
                for rel, line, name in json.load(handle):
                    reached.setdefault((rel, line, name), set()).add(group)
    return reached, runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=".", help="checkout to run")
    parser.add_argument("--out", default="CENSUS_24.json")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    src_root = os.path.join(tree, "src", "repro") + os.sep
    reached, runs = run_entry_points(tree, src_root)
    files = {}
    for rel, found in enumerate_functions(src_root).items():
        entry = files[rel] = {"unreached": {}, "reached": {}}
        for (line, name), (qual, n_lines) in sorted(found.items()):
            groups = reached.get((rel, line, name))
            if groups:
                entry["reached"][f"{qual}:{line}"] = ",".join(sorted(groups))
            else:
                entry["unreached"][f"{qual}:{line}"] = n_lines
    missed = [n for entry in files.values() for n in entry["unreached"].values()]
    totals = {"functions": len(missed) + sum(len(e["reached"]) for e in files.values()),
              "unreached": len(missed), "unreached_lines": sum(missed)}
    with open(args.out, "w") as handle:
        json.dump({"totals": totals, "entry_points": runs, "files": files},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(totals), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

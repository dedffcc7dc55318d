"""Persistent on-disk cache for simulation compile artifacts.

Evaluation pool workers each pay the full lex -> parse -> elaborate ->
stimulate -> simulate pipeline for every golden module (the in-process
caches are per worker), and duplicate low-temperature completions
re-elaborate verbatim-identical candidate sources in every fresh process.
This module gives those paths a disk tier:

* artifacts are pickled under a content-addressed key —
  ``sha256(kind, source, module name, *extra)`` — so a cache entry can
  never alias a different source text, module, or protocol; every entry
  carries :data:`BACKEND_VERSION` in an envelope, and a version mismatch
  (the entry predates a backend-semantics bump) is **counted and
  evicted** rather than silently served or stranded on disk forever;
* the cache root comes from the ``REPRO_SIM_CACHE`` environment variable
  or :func:`configure`; when neither is set every call is a cheap no-op,
  so the tier is strictly opt-in;
* writes are atomic (temp file + ``os.replace``) so concurrent pool
  workers can share one directory; unreadable/corrupt entries are
  deleted, treated as misses, and counted (a one-line warning fires the
  first time a corrupt entry is evicted in a process);
* every outcome feeds the :mod:`repro.obs` metrics registry
  (``sim.cache.hit`` / ``.miss`` / ``.store`` / ``.evict`` /
  ``.corrupt`` / ``.version_mismatch``), and :func:`stats` snapshots
  those counters — so cache behaviour is a measured quantity instead of
  an anecdote.

Consumers: :func:`repro.vereval.harness._golden_ref` persists whole
golden artifact bundles (design + stimulus rows + output trace),
:func:`~repro.vereval.harness.check_candidates_lockstep` (which
:func:`~repro.vereval.harness.check_candidate_source` runs as a pool of
one) persists elaborated candidate designs, and
:class:`repro.evalkit.stages.CheckStage` forwards the configured cache
directory to pool workers.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from typing import Any, Dict, Optional

from repro import obs
from repro.sim.elaborate import Design
from repro.testing import faults

__all__ = [
    "BACKEND_VERSION",
    "cache_dir",
    "configure",
    "load",
    "store",
    "stats",
    "get_design",
    "put_design",
]

#: Version carried inside every entry's envelope.  Bump on any change to
#: backend semantics or to the layout of pickled artifacts: stale entries
#: are then counted as ``sim.cache.version_mismatch`` and evicted instead
#: of deserializing stale behaviour (or leaking on disk forever, as the
#: old key-embedded-version scheme did).  9: a persisted ``Design`` carries
#: its compiled image (tables + marshalled code objects of the generated
#: source, see ``repro.sim.compile``).  10: an identity self-assign
#: (``assign x = x;``) no longer blocks levelization, so a version-9 image
#: of such a design carries a stale non-levelized schedule.  11: the
#: generic form holds only sequential and ``initial`` bodies, and its
#: ``commit`` takes four arguments (version-10 code passes six).  12: a
#: pickled ``Design`` carries its AST as one nested pickle, unpickled on
#: first read, and a golden bundle stores its stimulus as input names +
#: value rows instead of per-cycle dicts.
BACKEND_VERSION = 12

_ENV = "REPRO_SIM_CACHE"

#: process-wide override; None defers to the environment, "" disables
_configured: Optional[str] = None

_log = logging.getLogger("repro.sim.cache")

#: set after the first corrupt-entry eviction warning in this process
_warned_corrupt = False


def cache_dir() -> Optional[str]:
    """The active cache root, or None when the disk tier is disabled."""
    if _configured is not None:
        return _configured or None
    return os.environ.get(_ENV) or None


def configure(path: Optional[str]) -> Optional[str]:
    """Set the process-wide cache root; returns the previous override.

    ``None`` defers to ``REPRO_SIM_CACHE`` again; ``""`` disables the
    cache even if the environment variable is set.  Evaluation stages
    call this in pool workers so a run's cache directory survives
    executor start methods that do not inherit the environment.
    """
    global _configured
    previous = _configured
    _configured = path
    return previous


def stats() -> Dict[str, float]:
    """Snapshot of the ``sim.cache.*`` counters recorded so far.

    Counters accumulate per process and, after a parallel run, include
    the worker-side counts merged home through the executor's chunk
    buffers (see :mod:`repro.obs`).
    """
    snapshot = obs.counters("sim.cache.")
    return {name.split("sim.cache.", 1)[1]: value
            for name, value in snapshot.items()}


def _key(kind: str, *parts: str) -> str:
    digest = hashlib.sha256()
    digest.update(repr(("repro-sim-cache", kind)).encode("utf-8"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def _path_for(root: str, key: str) -> str:
    # Two-level fan-out keeps directories small under large sweeps.
    return os.path.join(root, key[:2], key + ".pkl")


def _evict(path: str) -> None:
    try:
        os.remove(path)
        obs.count("sim.cache.evict")
    except OSError:
        pass


def _evict_corrupt(path: str) -> None:
    global _warned_corrupt
    obs.count("sim.cache.corrupt")
    obs.count("sim.cache.miss")
    _evict(path)
    if not _warned_corrupt:
        _warned_corrupt = True
        _log.warning(
            "evicted corrupt sim-cache entry %s (counted under "
            "sim.cache.corrupt; this warning fires once per process)",
            path,
        )


def load(kind: str, *parts: str) -> Optional[Any]:
    """Fetch the artifact stored under ``(kind, *parts)``, or None.

    Misses, a disabled cache, and unreadable entries all return None;
    corrupt and version-stale entries are evicted so they stop costing a
    read each time, and every outcome is counted (see :func:`stats`).
    """
    root = cache_dir()
    if root is None:
        return None
    path = _path_for(root, _key(kind, *parts))
    try:
        # An armed "raise" at this point stands in for a corrupt or
        # unreadable entry: it lands in the generic handler below, so
        # the evict-and-miss recovery path is directly testable.
        faults.fire("sim.cache.load")
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
    except FileNotFoundError:
        obs.count("sim.cache.miss")
        return None
    except Exception:
        _evict_corrupt(path)
        return None
    if not (isinstance(entry, tuple) and len(entry) == 2):
        _evict_corrupt(path)
        return None
    version, payload = entry
    if version != BACKEND_VERSION:
        obs.count("sim.cache.version_mismatch")
        obs.count("sim.cache.miss")
        _evict(path)
        return None
    obs.count("sim.cache.hit")
    return payload


def store(kind: str, payload: Any, *parts: str) -> bool:
    """Persist ``payload`` under ``(kind, *parts)``; True when written.

    The payload is wrapped in a ``(BACKEND_VERSION, payload)`` envelope.
    Atomic against concurrent writers of the same key (last replace
    wins — both wrote identical content-addressed payloads).  Failures
    (unpicklable payload, full disk, read-only root) are swallowed: the
    cache is an accelerator, never a correctness dependency.
    """
    root = cache_dir()
    if root is None:
        return False
    path = _path_for(root, _key(kind, *parts))
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    (BACKEND_VERSION, payload),
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
    except Exception:
        return False
    obs.count("sim.cache.store")
    return True


def get_design(source: str, module_name: str) -> Optional[Design]:
    """Disk-cached elaborated design for ``module_name`` in ``source``."""
    design = load("design", source, module_name)
    return design if isinstance(design, Design) else None


def put_design(source: str, module_name: str, design: Design) -> bool:
    """Persist an elaborated design keyed by its exact source text."""
    return store("design", design, source, module_name)


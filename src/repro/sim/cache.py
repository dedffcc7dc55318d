"""Persistent on-disk cache for the checker's golden artifacts and verdicts.

Evaluation pool workers each pay the full lex -> parse -> elaborate ->
stimulate -> simulate pipeline for every golden module (the in-process
caches are per worker), and a re-run checks sources it already decided.
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
* one key is one file: :func:`store` pickles
  ``(BACKEND_VERSION, payload)`` into a temp name built from the pid
  and a per-process counter (opened with ``O_EXCL``) in a flat
  directory, then ``os.replace``-s it onto ``root/<key>.pkl``.  The last
  writer wins, so concurrent pool workers can share one directory, and a
  reader sees a whole entry or none;
* :func:`load` opens the key's name and unpickles it; an unpickle error,
  a malformed envelope and a payload the caller's ``accept`` rejects
  count as ``corrupt``, a stale envelope as ``version_mismatch``.
  Either way the entry is a miss and its name is unlinked (a one-line
  warning fires the first time a corrupt entry is evicted in a process);
* every outcome feeds the :mod:`repro.obs` metrics registry
  (``sim.cache.hit`` / ``.miss`` / ``.store`` / ``.evict`` /
  ``.corrupt`` / ``.version_mismatch``, one count per entry), and
  :func:`stats` snapshots those counters — so cache behaviour is a
  measured quantity instead of an anecdote;
* the checker keeps one ``golden`` entry per golden bundle: the pickled
  bundle (plain data: the golden's token digest, interface signature,
  stimulus rows and output trace, no ``Design``) and a table of the
  ``(passed, reason)`` of every source checked against it, keyed by
  every input that can change a verdict (what is read and written, and
  why the table is untouched under CEGIS: see
  :func:`~repro.vereval.harness.check_candidates_lockstep`);
* a ``design`` entry holds an elaborated :class:`Design` with its AST
  inline and no execution image (:func:`put_design` /
  :func:`get_design`, see ``Design.__getstate__``); the checker writes
  none.

Consumers: :func:`~repro.vereval.harness.check_candidates_lockstep`
(which :func:`~repro.vereval.harness.check_candidate_source` runs as a
pool of one) loads and stores golden entries; :mod:`repro.vereval.cegis`
persists distinguishing sets (``cegis-set``) and clear searches
(``cegis-clear``); and :class:`repro.evalkit.stages.CheckStage` forwards
the configured cache directory to pool workers.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
from typing import Any, Callable, Dict, Optional

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
#: backend semantics, to what the checker decides for any source (a
#: stored verdict is served as the verdict, with nothing re-checked),
#: or to the layout of pickled artifacts: stale entries
#: are then counted as ``sim.cache.version_mismatch`` and evicted instead
#: of deserializing stale behaviour (or leaking on disk forever, as the
#: old key-embedded-version scheme did).  9: a persisted ``Design`` carries
#: its compiled image (tables + the code objects of the generated
#: source, see ``repro.sim.compile``).  10: an identity self-assign
#: (``assign x = x;``) no longer blocks levelization, so a version-9 image
#: of such a design carries a stale non-levelized schedule.  11: the
#: per-block form (removed in 15) holds only sequential and ``initial``
#: bodies, and its
#: ``commit`` takes four arguments (version-10 code passes six).  12: a
#: pickled ``Design`` carries its AST as one nested pickle, unpickled on
#: first read, and a golden bundle stores its stimulus as input names +
#: value rows instead of per-cycle dicts.  13: entries live in packs
#: hard-linked into a flat directory; a pre-13 directory's fan-out
#: subdirectories are never read.  14: a ``design`` entry may hold a
#: front-end failure reason instead of a ``Design``, and a golden bundle
#: carries the all-vectors rung's input columns and expected matrix.
#: 15: a compiled image holds one code object (``comb``, ``init`` and the
#: edge functions) instead of a form-keyed dict, and designs whose edges
#: cascade or split across clock domains no longer compile.  16: a
#: pickled ``Design`` carries the token digest of its source file outside
#: the AST blob, and the checker passes a candidate whose digest is the
#: golden's without compiling or replaying it (a version-15 design has no
#: digest, so it would always be replayed).  17: a pickled ``Design`` that
#: carries compiled code and knows its source text stores that text in
#: place of its AST blob, and derives the AST again on first read (a
#: version-16 reader would find neither).  18: the checker stores a
#: ``verdict`` entry per decided source instead of ``design`` entries
#: holding a candidate's design or front-end failure reason.  19: one
#: ``golden`` entry per golden bundle holds the pickled bundle and its
#: sources' verdicts, one file per key with no packs (18 also covered
#: bundles with and without the lanes slot); a version-18 tree reads
#: other names, and its names are left on disk, as pre-13 fan-out
#: subdirectories were.  20: a golden bundle is plain data (token
#: digest, signature, stimulus rows, trace, error) with no ``Design``,
#: and a pickled ``Design`` carries its AST inline and no compiled
#: image.
BACKEND_VERSION = 20

_ENV = "REPRO_SIM_CACHE"

#: process-wide override; None defers to the environment, "" disables
_configured: Optional[str] = None

_log = logging.getLogger("repro.sim.cache")

#: set after the first corrupt-entry eviction warning in this process
_warned_corrupt = False

#: numbers this process's temp names
_temp_names = itertools.count()

#: the size of one read of an entry
_CHUNK = 1 << 16


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
    return os.path.join(root, key + ".pkl")


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


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


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``, read without a buffered file
    object: a read of a regular file comes back short only at its end,
    so an entry under 64 KiB takes one ``read``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _CHUNK)]
        while len(chunks[-1]) == _CHUNK:
            chunks.append(os.read(fd, _CHUNK))
    finally:
        os.close(fd)
    return b"".join(chunks)


def load(
    kind: str, *parts: str, accept: Optional[Callable[[Any], bool]] = None
) -> Optional[Any]:
    """Fetch the artifact stored under ``(kind, *parts)``, or None.

    Misses, a disabled cache, and unreadable entries all return None;
    corrupt entries (a payload ``accept`` rejects included) and
    version-stale ones are evicted so they stop costing a read each
    time, and every outcome is counted (see :func:`stats`).
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
        entry = pickle.loads(_read(path))
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
    if accept is not None and not accept(payload):
        _evict_corrupt(path)
        return None
    obs.count("sim.cache.hit")
    return payload


def _create(root: str, path: str) -> int:
    """Open ``path`` for writing, exclusively; the root is made only
    when it is missing."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        os.makedirs(root, exist_ok=True)
        return os.open(path, flags, 0o644)


def store(kind: str, payload: Any, *parts: str) -> bool:
    """Persist ``payload`` under ``(kind, *parts)``; True when written.

    The ``(BACKEND_VERSION, payload)`` envelope is written to a temp
    name of this process's own and renamed onto the key's name, so a
    reader sees the old entry or the new one, never a torn file, and the
    last writer wins.  Failures (an unpicklable payload, a full disk, a
    read-only root) are swallowed and leave no temp file: the cache is
    an accelerator, never a correctness dependency.
    """
    root = cache_dir()
    if root is None:
        return False
    try:
        data = pickle.dumps(
            (BACKEND_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        path = _path_for(root, _key(kind, *parts))
        temp = os.path.join(
            root, f"{os.getpid()}-{next(_temp_names)}.tmp"
        )
        fd = _create(root, temp)
    except Exception:
        return False
    written = False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # An armed "raise" here is a store that dies between writing the
        # entry and naming it: no name, no temp file, the next load a miss.
        faults.fire("sim.cache.store")
        os.replace(temp, path)
        written = True
    except Exception:
        pass
    finally:
        if not written:
            _remove(temp)
    if written:
        obs.count("sim.cache.store")
    return written


def get_design(source: str, module_name: str) -> Optional[Design]:
    """Disk-cached elaborated design for ``module_name`` in ``source``."""
    return load(
        "design", source, module_name,
        accept=lambda payload: isinstance(payload, Design),
    )


def put_design(source: str, module_name: str, design: Design) -> bool:
    """Persist an elaborated design keyed by its exact source text."""
    return store("design", design, source, module_name)

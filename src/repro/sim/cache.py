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
* one call's entries share one **pack** file: :func:`store_many` writes
  a header, an index (key digest -> offset, length) and the
  ``(BACKEND_VERSION, payload)`` records under a temp name, hard-links
  that one inode to ``root/<key>.pkl`` once per key in a flat directory
  (no fan-out subdirectories), then unlinks the temp name — so a cold
  pool check creates one inode, not one file per entry.  A name that
  already exists is replaced (link under a temp name, ``os.replace``
  onto the key): the last writer wins, and concurrent pool workers can
  share one directory;
* :func:`load` opens the key's name and reads the index and its own
  record only (one open, at most two reads for packs of up to 85
  entries); a bad index, a key missing from it and an unpickle error
  count as ``corrupt``, a stale envelope as ``version_mismatch``.
  Either way the entry is a miss and its one name is unlinked — its
  siblings stay loadable, and the pack's inode goes with its last name
  (a one-line warning fires the first time a corrupt entry is evicted
  in a process);
* every outcome feeds the :mod:`repro.obs` metrics registry
  (``sim.cache.hit`` / ``.miss`` / ``.store`` / ``.evict`` /
  ``.corrupt`` / ``.version_mismatch``; ``store`` counts entries, not
  packs), and :func:`stats` snapshots those counters — so cache
  behaviour is a measured quantity instead of an anecdote;
* the checker's ``verdict`` entry of ``(source, *golden key)`` is the
  source's ``(passed, reason)`` against that golden bundle, whose key
  holds every input that can change a verdict (when it is written and
  read, and why never under CEGIS: see
  :func:`~repro.vereval.harness.check_candidates_lockstep`).
  :func:`get_verdict` reads it; a payload that is not a ``(bool, str)``
  whose reason is empty exactly when it passed counts as ``corrupt``;
* a ``design`` entry holds an elaborated :class:`Design`
  (:func:`put_design` / :func:`get_design`); the checker writes none.  A
  ``Design`` that carries compiled code and knows its source text is
  pickled with that text in place of its AST, which the first read of
  an AST field derives again (see ``Design.__getstate__``): the golden
  bundle's design is stored that way, and a hit that replays never
  reads it.

Consumers: :func:`~repro.vereval.harness.check_candidates_lockstep`
(which :func:`~repro.vereval.harness.check_candidate_source` runs as a
pool of one) loads candidates' verdicts and golden artifact bundles
(design + stimulus rows + output trace),
and stores the bundle it built plus every verdict it derived as one
pack;
:mod:`repro.vereval.cegis` persists distinguishing sets; and
:class:`repro.evalkit.stages.CheckStage` forwards the configured cache
directory to pool workers.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
import tempfile
from typing import (
    Any, Callable, Dict, Iterable, Optional, Sequence, Tuple,
)

from repro import obs
from repro.sim.elaborate import Design
from repro.testing import faults

__all__ = [
    "BACKEND_VERSION",
    "cache_dir",
    "configure",
    "load",
    "store",
    "store_many",
    "stats",
    "get_design",
    "get_verdict",
    "put_design",
]

#: Version carried inside every entry's envelope.  Bump on any change to
#: backend semantics, to what the checker decides for any source (a
#: ``verdict`` entry is served as the verdict, with nothing re-checked),
#: or to the layout of pickled artifacts: stale entries
#: are then counted as ``sim.cache.version_mismatch`` and evicted instead
#: of deserializing stale behaviour (or leaking on disk forever, as the
#: old key-embedded-version scheme did).  9: a persisted ``Design`` carries
#: its compiled image (tables + marshalled code objects of the generated
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
#: holding a candidate's design or front-end failure reason.
BACKEND_VERSION = 18

_ENV = "REPRO_SIM_CACHE"

#: process-wide override; None defers to the environment, "" disables
_configured: Optional[str] = None

_log = logging.getLogger("repro.sim.cache")

#: set after the first corrupt-entry eviction warning in this process
_warned_corrupt = False

#: pack header (magic, entry count) and one index entry (sha256 digest of
#: the key, record offset from the start of the pack, record length)
_MAGIC = b"RSCP"
_HEADER = struct.Struct("<4sI")
_ENTRY = struct.Struct("<32sQQ")

#: a load's first read: the header plus the index of any pack of up to
#: 85 entries, and whatever records follow it
_HEAD_BYTES = 4096

#: one store_many entry: (kind, key parts, payload)
Entry = Tuple[str, Sequence[str], Any]


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


def _head(records: Dict[str, bytes]) -> bytes:
    """Header and index of one pack; the records follow in order."""
    offset = _HEADER.size + len(records) * _ENTRY.size
    index = [_HEADER.pack(_MAGIC, len(records))]
    for key, record in records.items():
        index.append(_ENTRY.pack(bytes.fromhex(key), offset, len(record)))
        offset += len(record)
    return b"".join(index)


def _read_record(path: str, key: str) -> bytes:
    """``key``'s record from the pack at ``path``.

    Raises ``FileNotFoundError`` when the name does not exist, and
    ``ValueError`` or ``struct.error`` when the pack is malformed,
    truncated or does not index ``key``.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        head = os.read(fd, _HEAD_BYTES)
        magic, count = _HEADER.unpack_from(head)
        if magic != _MAGIC:
            raise ValueError("not a sim-cache pack")
        end = _HEADER.size + count * _ENTRY.size
        if end > len(head):
            if end > os.fstat(fd).st_size:
                raise ValueError("truncated pack index")
            head += os.pread(fd, end - len(head), len(head))
        digest = bytes.fromhex(key)
        for entry, offset, length in _ENTRY.iter_unpack(
            head[_HEADER.size:end]
        ):
            if entry == digest:
                break
        else:
            raise ValueError("key not in pack index")
        if offset + length <= len(head):
            return head[offset:offset + length]
        record = os.pread(fd, length, offset)
    finally:
        os.close(fd)
    if len(record) != length:
        raise ValueError("truncated pack record")
    return record


def load(kind: str, *parts: str) -> Optional[Any]:
    """Fetch the artifact stored under ``(kind, *parts)``, or None.

    Misses, a disabled cache, and unreadable entries all return None;
    corrupt and version-stale entries are evicted (their one name) so
    they stop costing a read each time, and every outcome is counted
    (see :func:`stats`).
    """
    return _load(kind, parts, None)


def _load(
    kind: str, parts: Sequence[str], accept: Optional[Callable[[Any], bool]]
) -> Optional[Any]:
    """:func:`load`, where a payload ``accept`` rejects counts as corrupt."""
    root = cache_dir()
    if root is None:
        return None
    key = _key(kind, *parts)
    path = _path_for(root, key)
    try:
        # An armed "raise" at this point stands in for a corrupt or
        # unreadable entry: it lands in the generic handler below, so
        # the evict-and-miss recovery path is directly testable.
        faults.fire("sim.cache.load")
        entry = pickle.loads(_read_record(path, key))
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


def _link(pack_path: str, path: str) -> None:
    """Give the pack at ``pack_path`` the name ``path``, replacing a name
    that exists (the last writer wins)."""
    try:
        os.link(pack_path, path)
        return
    except FileExistsError:
        pass
    # mkstemp names never contain "-", so this alias is the caller's own
    alias = pack_path[: -len(".tmp")] + "-link.tmp"
    os.link(pack_path, alias)
    try:
        os.replace(alias, path)
    except BaseException:
        _remove(alias)
        raise


def store_many(entries: Iterable[Entry]) -> int:
    """Persist ``(kind, parts, payload)`` entries as one pack; returns
    how many were stored.

    Each payload is wrapped in a ``(BACKEND_VERSION, payload)`` envelope
    and pickled on its own: an entry that cannot be pickled is skipped
    and the rest are still written, and a key repeated within one call
    is stored once (its last payload).  The pack is written under a temp
    name, hard-linked to every key's name, then unlinked.  Failures
    (full disk, read-only root, a filesystem without hard links) are
    swallowed: the cache is an accelerator, never a correctness
    dependency.  ``sim.cache.store`` counts one per linked entry.
    """
    root = cache_dir()
    if root is None:
        return 0
    records: Dict[str, bytes] = {}
    for kind, parts, payload in entries:
        try:
            records[_key(kind, *parts)] = pickle.dumps(
                (BACKEND_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            continue
    if not records:
        return 0
    stored = 0
    pack_path = None
    try:
        os.makedirs(root, exist_ok=True)
        fd, pack_path = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(_head(records))
            for record in records.values():
                handle.write(record)
        # An armed "raise" here is a store that dies between writing the
        # pack and naming it: no name, no temp file, the next load a miss.
        faults.fire("sim.cache.store")
        for key in records:
            _link(pack_path, _path_for(root, key))
            stored += 1
    except Exception:
        pass
    finally:
        if pack_path is not None:
            _remove(pack_path)
    if stored:
        obs.count("sim.cache.store", stored)
    return stored


def store(kind: str, payload: Any, *parts: str) -> bool:
    """Persist ``payload`` under ``(kind, *parts)``; True when written.

    A pack of one entry (:func:`store_many`).
    """
    return store_many([(kind, parts, payload)]) == 1


def get_design(source: str, module_name: str) -> Optional[Design]:
    """Disk-cached elaborated design for ``module_name`` in ``source``."""
    return _load(
        "design", (source, module_name),
        lambda payload: isinstance(payload, Design),
    )


def put_design(source: str, module_name: str, design: Design) -> bool:
    """Persist an elaborated design keyed by its exact source text."""
    return store("design", design, source, module_name)


def _is_verdict(payload: Any) -> bool:
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], bool)
        and isinstance(payload[1], str)
        and payload[0] == (payload[1] == "")
    )


def get_verdict(
    source: str, *golden_key: str
) -> Optional[Tuple[bool, str]]:
    """The ``(passed, reason)`` stored for ``source`` against the golden
    bundle keyed by ``golden_key``, or None on a miss."""
    return _load("verdict", (source, *golden_key), _is_verdict)

"""Durable pickle-per-key checkpoint store with generation fallback.

Writes are crash-safe: the payload is written to a temp file, flushed
and fsynced, atomically renamed over the target with ``os.replace``,
and the directory entry is fsynced too.  A crash mid-save — including a
power cut or a hard-killed run, which ``os.replace`` alone does not
cover because the rename can hit disk before the data — leaves either
the old snapshot or the new one, never a torn file.  That durability is
what resuming a killed :class:`~repro.evalkit.EvalPlan` leans on.

On top of the atomic write, every key keeps **two generations**: saving
rotates the current snapshot to ``<key>.ckpt.1`` before the new one
lands.  A load that finds the newest generation truncated or otherwise
unreadable — bit-rot, a filesystem that reordered the rename ahead of
the data, a fault-injected torn write — falls back to the previous
generation instead of stranding the run, counting
``checkpoint.corrupt_recovered`` so silent media problems surface in
telemetry.  Only when *no* generation is readable does the original
error propagate.

The save path hosts the ``checkpoint.save`` fault point
(:mod:`repro.testing.faults`): ``raise`` / ``exit`` fire before any
bytes move, and the site-interpreted ``torn`` kind corrupts the
just-written snapshot — which is how the recovery fallback is tested
without staging a real power cut.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, List, Union

from repro import obs
from repro.testing import faults


class CheckpointStore:
    """Directory-backed key/value store for engine snapshots."""

    SUFFIX = ".ckpt"
    #: suffix of the previous-generation snapshot a save rotates aside
    PREV_SUFFIX = ".ckpt.1"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid checkpoint key {key!r}")
        return self.root / f"{key}{self.SUFFIX}"

    def _prev_path(self, key: str) -> Path:
        return self.root / f"{key}{self.PREV_SUFFIX}"

    def save(self, key: str, obj: Any) -> None:
        """Atomically persist ``obj`` under ``key``, keeping one prior
        generation as the corruption-recovery fallback."""
        path = self._path(key)
        kind = faults.fire("checkpoint.save")
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{key}.", suffix=".tmp"
        )
        link_name = tmp_name + ".1"
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            # Copy the readable current snapshot to the .1 suffix first
            # (a hard link, renamed into place) and only then replace
            # the key: every crash window leaves either the new
            # generation at the key or the old one at the .1 suffix —
            # load checks both — and the key's file never goes missing,
            # so a concurrent load never falls back on a healthy store.
            if path.exists():
                os.link(path, link_name)
                os.replace(link_name, self._prev_path(key))
            os.replace(tmp_name, path)
            self._fsync_dir()
        except BaseException:
            for name in (tmp_name, link_name):
                try:
                    os.unlink(name)
                except OSError:
                    pass
            raise
        if kind == "torn":
            # Injected bit-rot: truncate the snapshot we just wrote, so
            # the next load exercises the generation fallback.
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))

    def _fsync_dir(self) -> None:
        # Persist the rename itself; best-effort where directories
        # cannot be opened or fsynced (some filesystems/platforms).
        try:
            dir_fd = os.open(str(self.root), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def load(self, key: str, default: Any = None) -> Any:
        """The newest readable generation of ``key`` (or ``default``).

        A truncated or corrupt newest generation falls back to the
        rotated previous one, counting ``checkpoint.corrupt_recovered``;
        when neither generation is readable the newest generation's
        error propagates (a fallback would silently rewind the run).
        """
        paths = (self._path(key), self._prev_path(key))
        first_error = None
        for index, path in enumerate(paths):
            if not path.exists():
                continue
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                continue
            if index > 0:
                obs.count("checkpoint.corrupt_recovered")
                obs.event(
                    "checkpoint.corrupt_recovered",
                    key=key,
                    generation=index,
                )
            return value
        if first_error is not None:
            raise first_error
        return default

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists() or self._prev_path(key).exists()

    def keys(self) -> List[str]:
        current = {
            p.name[: -len(self.SUFFIX)]
            for p in self.root.glob(f"*{self.SUFFIX}")
        }
        previous = {
            p.name[: -len(self.PREV_SUFFIX)]
            for p in self.root.glob(f"*{self.PREV_SUFFIX}")
        }
        return sorted(current | previous)

    def delete(self, key: str) -> bool:
        deleted = False
        for path in (self._path(key), self._prev_path(key)):
            if path.exists():
                path.unlink()
                deleted = True
        return deleted

    def clear(self) -> None:
        for key in self.keys():
            self.delete(key)

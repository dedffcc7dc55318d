"""Deterministic fault injection: named points, armed on demand.

Recovery paths used to be testable only through bespoke tricks — a
stage that calls ``os._exit`` when it sees item 13, a monkeypatched
``CheckpointStore.save`` that kills the process after N calls — each
one a small race wired to incidental data.  This module replaces those
with a first-class switchboard:

* Production code hosts **fault points**: a call to :func:`fire` with a
  stable dotted name (``checkpoint.save``, ``pool.chunk``,
  ``sim.cache.load``, ``sim.cache.store``).
  Unarmed, a point costs one dict lookup and is a no-op.
* Tests (or CI smoke runs) **arm** faults — programmatically via
  :func:`arm` or from the environment::

      REPRO_FAULTS=point:kind:nth[:once_marker][,point:kind:nth...]

  The fault fires on the ``nth`` activation of the point *in that
  process* (``nth=0`` fires on every activation), then disarms.  The
  optional ``once_marker`` is a filesystem path used as a cross-process
  once-gate: the first process to reach the trigger atomically creates
  the marker and fires; everyone else skips — which is how "exactly one
  pool worker dies, once" is expressed without races.

Kinds with built-in behavior: ``raise`` (raise :class:`InjectedFault`,
a :class:`~repro.errors.TransientError`) and ``exit`` (hard
``os._exit(23)`` — the recognizable injected-death exit code).  Any
other kind is *site-interpreted*: :func:`fire` returns the kind string
and the hosting code enacts it (e.g. ``checkpoint.save`` treats
``torn`` as "corrupt the written snapshot").

Environment arming is re-synced whenever ``REPRO_FAULTS`` changes, so
``monkeypatch.setenv`` works mid-process, and pool workers —
which inherit the environment — parse their own copy with their own
activation counters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.errors import TransientError

__all__ = [
    "ENV_VAR",
    "EXIT_CODE",
    "InjectedFault",
    "arm",
    "armed",
    "check",
    "disarm",
    "fire",
]

ENV_VAR = "REPRO_FAULTS"

#: the process exit code of an injected ``exit`` fault, so a test can
#: tell an injected death from a genuine crash
EXIT_CODE = 23


class InjectedFault(TransientError):
    """The error an armed ``raise`` fault throws at its point.

    Subclasses :class:`~repro.errors.TransientError`: an injected crash
    is the retryable kind of failure the recovery tests exercise.
    """

    def __init__(self, point: str) -> None:
        self.point = point
        super().__init__(f"injected fault at {point!r}")


@dataclass
class _Fault:
    point: str
    kind: str
    nth: int  # 0 = every activation
    once_marker: Optional[str] = None
    from_env: bool = False
    fired: bool = False


#: armed faults by point name (env- and program-armed together)
_armed: Dict[str, List[_Fault]] = {}
#: per-point activation counters for this process
_hits: Dict[str, int] = {}
#: the raw REPRO_FAULTS string the current env arming was parsed from
_env_raw: Optional[str] = None


def arm(
    point: str,
    kind: str,
    nth: int = 1,
    once_marker: Optional[str] = None,
) -> None:
    """Arm ``kind`` at ``point``, firing on the ``nth`` activation.

    ``nth=0`` fires on every activation (until :func:`disarm`).
    ``once_marker`` makes the fault a cross-process once-gate: it only
    fires if it can atomically create that file.
    """
    if nth < 0:
        raise ValueError(f"nth must be >= 0, got {nth}")
    _armed.setdefault(point, []).append(
        _Fault(point=point, kind=kind, nth=nth, once_marker=once_marker)
    )


def disarm(point: Optional[str] = None) -> None:
    """Drop armed faults (all of them when ``point`` is None) and reset
    activation counters.  Environment-armed faults are dropped too; they
    re-arm only if ``REPRO_FAULTS`` changes afterwards."""
    global _env_raw
    if point is None:
        _armed.clear()
        _hits.clear()
        _env_raw = os.environ.get(ENV_VAR)  # treat current env as seen
        return
    _armed.pop(point, None)
    _hits.pop(point, None)


def armed() -> Dict[str, List[str]]:
    """Live summary (point -> ["kind@nth", ...]) for diagnostics."""
    _sync_env()
    return {
        point: [f"{f.kind}@{f.nth}" for f in faults if not f.fired]
        for point, faults in _armed.items()
        if any(not f.fired for f in faults)
    }


def _parse_env(raw: str) -> List[_Fault]:
    faults: List[_Fault] = []
    for spec in raw.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":")
        if len(parts) < 3:
            raise ValueError(
                f"bad {ENV_VAR} entry {spec!r} "
                "(expected point:kind:nth[:once_marker])"
            )
        point, kind, nth = parts[0], parts[1], parts[2]
        marker = ":".join(parts[3:]) or None
        try:
            n = int(nth)
        except ValueError:
            raise ValueError(
                f"bad {ENV_VAR} entry {spec!r}: nth {nth!r} is not an "
                "integer"
            ) from None
        if n < 0:
            raise ValueError(
                f"bad {ENV_VAR} entry {spec!r}: nth must be >= 0, got {n}"
            )
        faults.append(
            _Fault(point=point, kind=kind, nth=n, once_marker=marker,
                   from_env=True)
        )
    return faults


def _sync_env() -> None:
    """Re-arm from ``REPRO_FAULTS`` when the variable changed.

    Program-armed faults survive; previous env-armed ones are replaced
    wholesale, and activation counters reset for the affected points so
    ``nth`` counts from the moment of arming.
    """
    global _env_raw
    raw = os.environ.get(ENV_VAR)
    if raw == _env_raw:
        return
    _env_raw = raw
    for point in list(_armed):
        kept = [f for f in _armed[point] if not f.from_env]
        if kept:
            _armed[point] = kept
        else:
            del _armed[point]
    if raw:
        for fault in _parse_env(raw):
            _hits.pop(fault.point, None)
            _armed.setdefault(fault.point, []).append(fault)


def _take_marker(path: str) -> bool:
    """Atomically create the once-gate; False when someone else did."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # unreachable marker dir: never fire
    os.close(fd)
    return True


def check(point: str) -> Optional[str]:
    """Activate ``point``; return the armed kind when a fault fires.

    Each call counts one activation.  A fault whose ``nth`` matches (or
    is 0) fires — subject to its once-marker — and single-shot faults
    disarm after firing.  Returns None (the overwhelmingly common case)
    when nothing fires; the caller enacts the kind otherwise.
    """
    _sync_env()
    faults = _armed.get(point)
    if not faults:
        return None
    hits = _hits.get(point, 0) + 1
    _hits[point] = hits
    for fault in faults:
        if fault.fired:
            continue
        if fault.nth != 0 and fault.nth != hits:
            continue
        if fault.once_marker is not None and not _take_marker(
            fault.once_marker
        ):
            if fault.nth != 0:
                fault.fired = True  # trigger consumed by another process
            continue
        if fault.nth != 0:
            fault.fired = True
        return fault.kind
    return None


def fire(point: str) -> Optional[str]:
    """Activate ``point`` and enact built-in kinds.

    ``raise`` raises :class:`InjectedFault`, ``exit`` calls
    ``os._exit(EXIT_CODE)``.  Site-interpreted kinds
    (anything else) are returned for the hosting code to enact; None
    means nothing fired.  Every firing is counted (``faults.fired``)
    and evented before the action, so even an ``exit`` leaves a trace
    in worker-side buffers already shipped home.
    """
    kind = check(point)
    if kind is None:
        return None
    obs.count("faults.fired")
    obs.event("faults.fired", point=point, kind=kind)
    if kind == "raise":
        raise InjectedFault(point)
    if kind == "exit":
        os._exit(EXIT_CODE)
    return kind

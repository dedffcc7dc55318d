"""Validated environment parsing for the ``REPRO_*`` tuning knobs.

:func:`env_int` reads one integer knob with range checks.  A bad value
raises :class:`~repro.errors.ConfigError` *naming the variable* at
construction time, instead of surfacing as a bare ``ValueError``
traceback deep inside a subsystem.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError

__all__ = [
    "ConfigError",
    "env_int",
]


def env_int(
    name: str,
    default: Optional[int],
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    """``int(os.environ[name])`` with range checks and a typed error.

    Unset or blank returns ``default``; anything unparseable or outside
    ``[minimum, maximum]`` raises :class:`~repro.errors.ConfigError`
    naming the variable and the offending value.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not a valid integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(
            f"{name}={raw!r} is below the minimum of {minimum}"
        )
    if maximum is not None and value > maximum:
        raise ConfigError(
            f"{name}={raw!r} is above the maximum of {maximum}"
        )
    return value

"""Shared, validated ``REPRO_*`` environment-variable parsing.

Every subsystem that reads configuration from the environment — the
``REPRO_MATCH_WORKERS`` parallel-matching knob, the ``REPRO_STORE_*``
packed-row store knobs and the ``REPRO_NET_*`` transport knobs — goes
through these helpers, so the error behaviour is uniform: an unset or
blank variable keeps the caller's default, a malformed value raises
``ValueError`` naming the variable, and a value outside an explicit
``choices`` set is rejected up front instead of surfacing as a downstream
validation error.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

__all__ = ["env_int", "env_float", "env_bool", "env_str"]

#: Accepted spellings for boolean environment knobs.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _raw(name: str) -> Optional[str]:
    """The variable's value, or ``None`` when unset/blank (keep default)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    return raw.strip()


def env_int(name: str, default: int) -> int:
    """Integer knob; unset/blank keeps ``default``."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def env_float(name: str, default: float) -> float:
    """Float knob; unset/blank keeps ``default``."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from None


def env_bool(name: str, default: bool) -> bool:
    """Boolean knob (1/true/yes/on vs 0/false/no/off, case-insensitive)."""
    raw = _raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"environment variable {name} must be a boolean "
        f"({'/'.join(_TRUE)} or {'/'.join(_FALSE)}), got {raw!r}"
    )


def env_str(
    name: str, default: str, choices: Optional[Sequence[str]] = None
) -> str:
    """String knob, optionally restricted to ``choices``."""
    raw = _raw(name)
    value = default if raw is None else raw
    if choices is not None and value not in choices:
        raise ValueError(
            f"environment variable {name} must be one of {tuple(choices)}, "
            f"got {value!r}"
        )
    return value

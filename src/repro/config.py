"""Knob groups: one dataclass field per knob, everything else derived.

A knob group is a frozen dataclass — :class:`~repro.elastic.ElasticityPolicy`,
:class:`~repro.filtering.StoreConfig`, :class:`~repro.transport.TransportConfig`
— whose fields are the only declaration of its knobs.  A field's default
gives the knob's type (bool, int, float or str; a ``None`` default is an
optional str) and its ``metadata`` may carry ``env`` (the ``REPRO_*``
variable that sets it — only knobs something actually sets that way have
one), ``choices`` and ``help``.  The four functions below walk
``dataclasses.fields(cls)``, so the environment reader, the CLI flags
and the ``repro policy`` provenance table cannot drift from the fields
or from each other:

* :func:`from_env` — CLI flag > environment variable > default, resolved
  *before* the group's ``__post_init__`` validates the result once.
* :func:`provenance` — where each resolved value came from.
* :func:`add_flags` / :func:`flag_overrides` — one ``--flag`` per field
  and the parsed values back as :func:`from_env` overrides.

The ``env_*`` helpers parse one variable each and make the error
behaviour uniform: an unset or blank variable keeps the default, a
malformed value or one outside ``choices`` raises ``ValueError`` naming
the variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "env_int",
    "env_float",
    "env_bool",
    "env_str",
    "knob",
    "from_env",
    "provenance",
    "add_flags",
    "flag_overrides",
]

#: Accepted spellings for boolean environment knobs.
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _raw(name: str) -> Optional[str]:
    """The variable's value, or ``None`` when unset/blank (keep default)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    return raw.strip()


def env_int(name: str, default: Optional[int]) -> Optional[int]:
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
    name: str, default: Optional[str], choices: Optional[Sequence[str]] = None
) -> Optional[str]:
    """String knob, optionally restricted to ``choices``."""
    raw = _raw(name)
    if raw is None:
        return default
    if choices is not None and raw not in choices:
        raise ValueError(
            f"environment variable {name} must be one of {tuple(choices)}, "
            f"got {raw!r}"
        )
    return raw


# -- the derivation: everything below reads dataclasses.fields(cls) ---------


def knob(
    default,
    help: str,
    env: Optional[str] = None,
    choices: Optional[Sequence[str]] = None,
):
    """A knob-group field: ``dataclasses.field`` with the knob metadata.

    ``help`` is the CLI help text, ``env`` the ``REPRO_*`` variable that
    sets the knob (omit it for knobs nothing sets from the environment),
    ``choices`` what the flag of a str knob accepts (the group's
    ``__post_init__`` is what rejects other values, whatever their source).
    """
    metadata = {"help": help}
    if env is not None:
        metadata["env"] = env
    if choices is not None:
        metadata["choices"] = tuple(choices)
    return dataclasses.field(default=default, metadata=metadata)


def _kind(field: dataclasses.Field) -> type:
    """The knob's value type, read off the field's default."""
    return str if field.default is None else type(field.default)


#: Environment reader per knob type.
_ENV_READERS = {bool: env_bool, int: env_int, float: env_float, str: env_str}


def _resolve(cls, overrides: dict) -> List[Tuple[str, object, str]]:
    """``(field name, value, source)`` per field, before validation."""
    fields = dataclasses.fields(cls)
    unknown = set(overrides) - {field.name for field in fields}
    if unknown:
        raise TypeError(f"{cls.__name__} has no knob {sorted(unknown)}")
    rows = []
    for field in fields:
        env = field.metadata.get("env")
        if overrides.get(field.name) is not None:
            rows.append((field.name, overrides[field.name], "cli"))
        elif env is not None and _raw(env) is not None:
            value = _ENV_READERS[_kind(field)](env, field.default)
            rows.append((field.name, value, f"env:{env}"))
        else:
            rows.append((field.name, field.default, "default"))
    return rows


def _build(cls, rows):
    """Validate once, after precedence; a rejected value that came from
    the environment is reported with its variable."""
    try:
        return cls(**{name: value for name, value, _ in rows})
    except ValueError as exc:
        variables = [src[4:] for _, _, src in rows if src.startswith("env:")]
        if not variables:
            raise
        raise ValueError(
            f"{exc} (environment sets {', '.join(variables)})"
        ) from None


def from_env(cls, **overrides):
    """Build knob group ``cls``: override > environment variable > default.

    ``overrides`` with value ``None`` are ignored (unset CLI flags), so
    callers forward :func:`flag_overrides` verbatim; an unknown name is a
    ``TypeError``.  Precedence is settled first and the group validated
    once, so a bad environment value that a flag overrides never raises.
    """
    return _build(cls, _resolve(cls, overrides))


def provenance(cls, **overrides) -> List[Tuple[str, object, str]]:
    """``(knob, resolved value, source)`` rows, one per field of ``cls``.

    The source is ``cli`` for a non-``None`` override, ``env:<VAR>`` for a
    set environment variable, else ``default``.  Values are read back
    from the validated group.
    """
    resolved_rows = _resolve(cls, overrides)
    resolved = _build(cls, resolved_rows)
    return [
        (name, getattr(resolved, name), source)
        for name, _, source in resolved_rows
    ]


def add_flags(parser: argparse.ArgumentParser, cls, prefix: str = "") -> None:
    """One ``--<prefix><field>`` flag per field of knob group ``cls``.

    Every flag defaults to ``None`` ("not passed"), so the environment
    and the built-in default stay visible to :func:`from_env`; bool knobs
    get both ``--x`` and ``--no-x``.
    """
    for field in dataclasses.fields(cls):
        kind, meta = _kind(field), field.metadata
        source = f"{meta['env']} or " if "env" in meta else ""
        options = {
            "dest": prefix + field.name,
            "default": None,
            "help": f"{meta['help']} (default: {source}{field.default})",
        }
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = kind
            if "choices" in meta:
                options["choices"] = list(meta["choices"])
        parser.add_argument(
            "--" + (prefix + field.name).replace("_", "-"), **options
        )


def flag_overrides(args: argparse.Namespace, cls, prefix: str = "") -> dict:
    """The parsed :func:`add_flags` values as :func:`from_env` overrides."""
    return {
        field.name: getattr(args, prefix + field.name, None)
        for field in dataclasses.fields(cls)
    }

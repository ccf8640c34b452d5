"""Knob groups: one dataclass field per knob, everything else derived.

A knob group is a frozen dataclass — :class:`~repro.elastic.ElasticityPolicy`,
:class:`~repro.filtering.StoreConfig`, :class:`~repro.transport.TransportConfig`
— whose fields are the only declaration of its knobs.  A field's default
gives the knob's type (bool, int, float or str; a ``None`` default is an
optional str) and its ``metadata`` carries ``help`` and, for a str knob,
``choices``.  Settings are constructor arguments: code passes a group,
and the CLI derives one flag per field from the same fields, so the
flags and the ``repro policy`` provenance table cannot drift from them:

* :func:`add_flags` / :func:`flag_overrides` — one ``--flag`` per field
  and the parsed values back as keyword overrides.
* :func:`from_flags` — a passed flag over the field's default, validated
  once by the group's ``__post_init__``.
* :func:`provenance` — whether each resolved value came from a flag.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "knob",
    "from_flags",
    "provenance",
    "add_flags",
    "flag_overrides",
]


def knob(default, help: str, choices: Optional[Sequence[str]] = None):
    """A knob-group field: ``dataclasses.field`` with the knob metadata.

    ``help`` is the CLI help text, ``choices`` what the flag of a str knob
    accepts (the group's ``__post_init__`` is what rejects other values,
    whoever passes them).
    """
    metadata = {"help": help}
    if choices is not None:
        metadata["choices"] = tuple(choices)
    return dataclasses.field(default=default, metadata=metadata)


def _kind(field: dataclasses.Field) -> type:
    """The knob's value type, read off the field's default."""
    return str if field.default is None else type(field.default)


def from_flags(cls, **overrides):
    """Build knob group ``cls``: a passed flag over the field's default.

    ``overrides`` with value ``None`` are ignored (unset CLI flags), so
    callers forward :func:`flag_overrides` verbatim; an unknown name is a
    ``TypeError``.
    """
    return cls(**{name: value for name, value in overrides.items()
                  if value is not None})


def provenance(cls, **overrides) -> List[Tuple[str, object, str]]:
    """``(knob, resolved value, source)`` rows, one per field of ``cls``.

    The source is ``cli`` for a non-``None`` override, else ``default``.
    Values are read back from the validated group.
    """
    resolved = from_flags(cls, **overrides)
    return [
        (field.name, getattr(resolved, field.name),
         "default" if overrides.get(field.name) is None else "cli")
        for field in dataclasses.fields(cls)
    ]


def add_flags(parser: argparse.ArgumentParser, cls, prefix: str = "") -> None:
    """One ``--<prefix><field>`` flag per field of knob group ``cls``.

    Every flag defaults to ``None`` ("not passed"), so the field's own
    default stays visible to :func:`from_flags`; bool knobs get both
    ``--x`` and ``--no-x``.
    """
    for field in dataclasses.fields(cls):
        kind, meta = _kind(field), field.metadata
        options = {
            "dest": prefix + field.name,
            "default": None,
            "help": f"{meta['help']} (default: {field.default})",
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
    """The parsed :func:`add_flags` values as :func:`from_flags` overrides."""
    return {
        field.name: getattr(args, prefix + field.name, None)
        for field in dataclasses.fields(cls)
    }

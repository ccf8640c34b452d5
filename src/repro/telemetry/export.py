"""Exporters: the one atomic file writer, Prometheus text and JSON.

:func:`write_atomic` is the only way this package puts a file on disk:
content goes to a temporary file in the destination directory and is
renamed into place only once fully written, so a
failure mid-write (an unserializable payload, a full disk) leaves any
previous version of the file untouched and no temporary file behind.
Span traces, Prometheus scrapes, bench payloads and every ``repro metrics
--out`` go through it.

The Prometheus 0.0.4 text exposition format lets a registry snapshot be
scraped (or diffed) by standard tooling.  Output is deterministic:
families sort by name, children by label values, and numbers render via
``repr``-stable formatting — two identical runs produce byte-identical
scrapes.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterable, List

from .registry import MetricFamily, MetricsRegistry

__all__ = [
    "to_json",
    "to_prometheus",
    "write_atomic",
    "write_json",
    "write_prometheus",
]


def write_atomic(path: str, chunks: Iterable[str]) -> str:
    """Write the concatenated ``chunks`` to ``path`` atomically (parents
    are created); returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".write-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def to_json(payload: Dict[str, Any]) -> str:
    """The JSON text every JSON writer produces: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path: str, payload: Dict[str, Any]) -> str:
    """Write :func:`to_json` of ``payload`` atomically; returns ``path``."""
    return write_atomic(path, [to_json(payload)])


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render without exponent."""
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _family_lines(family: MetricFamily) -> List[str]:
    lines = []
    if family.help:
        help_text = family.help + (f" [{family.unit}]" if family.unit else "")
        lines.append(f"# HELP {family.name} {_escape(help_text)}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for labels, child in family.samples():
        if family.kind == "histogram":
            for bound, cumulative in child.cumulative_buckets():
                bucket_labels = dict(labels)
                bucket_labels["le"] = _fmt(bound)
                lines.append(
                    f"{family.name}_bucket{_labels_text(bucket_labels)} {cumulative}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{family.name}_bucket{_labels_text(inf_labels)} {child.count}"
            )
            lines.append(f"{family.name}_sum{_labels_text(labels)} {_fmt(child.sum)}")
            lines.append(f"{family.name}_count{_labels_text(labels)} {child.count}")
        else:
            lines.append(f"{family.name}{_labels_text(labels)} {_fmt(child.value)}")
    return lines


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the whole registry in the Prometheus text format."""
    lines: List[str] = []
    for family in registry:
        lines.extend(_family_lines(family))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, registry: MetricsRegistry) -> str:
    """Write :func:`to_prometheus` output atomically; returns ``path``."""
    return write_atomic(path, [to_prometheus(registry)])

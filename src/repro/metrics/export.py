"""Result exporter: an atomic JSON file writer.

The benchmark harness prints tables; :func:`write_json` additionally
persists a run's payload to a file (for external plotting and CI
artifacts).

The write is atomic: content goes to a temporary file in the destination
directory first and is moved into place with ``os.replace`` only once
fully written.  A failure mid-write (a payload that cannot be
serialized) leaves any previous version of the file untouched instead of
silently truncating it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict

__all__ = ["write_json"]


def write_json(path: str, payload: Dict[str, Any]) -> str:
    """Write a JSON document to ``path`` atomically (parents are created)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".export-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path

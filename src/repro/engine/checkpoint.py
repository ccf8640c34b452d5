"""Slice checkpoints and the stable checkpoint store.

A checkpoint captures, atomically under the slice's write lock:

* the handler state (the explicit state management used by migration),
* the per-source timestamp vector (``last_processed``),
* the slice's *outgoing* sequence counters — so a recovered instance
  regenerates identical sequence numbers for re-emissions, which is what
  lets receivers deduplicate them.

Checkpoints are shipped to a :class:`CheckpointStore` standing in for
stable storage (a replicated store in a real deployment); the transfer is
charged on the origin host's NIC and the serialization on its CPU.
Slices only: the elasticity manager keeps its own state in the
coordination kernel (:mod:`repro.elastic.manager`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Checkpoint", "CheckpointStore", "STABLE_STORAGE"]

#: Pseudo host id of the stable checkpoint store on the fabric.
STABLE_STORAGE = "stable-storage"


@dataclass(frozen=True)
class Checkpoint:
    """One captured slice checkpoint."""

    slice_id: str
    epoch: int
    captured_at: float
    state: Any
    vector: Dict[str, int]
    seq_counters: Dict[str, int]
    state_bytes: int


class CheckpointStore:
    """Latest checkpoint per slice (stable storage stand-in)."""

    def __init__(self) -> None:
        self._latest: Dict[str, Checkpoint] = {}
        self.checkpoints_stored = 0
        self.bytes_stored = 0

    def put(self, checkpoint: Checkpoint) -> None:
        current = self._latest.get(checkpoint.slice_id)
        if current is not None and current.epoch >= checkpoint.epoch:
            raise ValueError(
                f"stale checkpoint for {checkpoint.slice_id}: epoch "
                f"{checkpoint.epoch} <= stored {current.epoch}"
            )
        self._latest[checkpoint.slice_id] = checkpoint
        self.checkpoints_stored += 1
        self.bytes_stored += checkpoint.state_bytes

    def get(self, slice_id: str) -> Optional[Checkpoint]:
        return self._latest.get(slice_id)

    def slices(self) -> List[str]:
        return sorted(self._latest)

    def __len__(self) -> int:
        return len(self._latest)

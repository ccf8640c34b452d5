"""Stream events flowing between operator slices.

Every event carries the identity of the *logical* slice (or external
source) that emitted it together with a per-(source, destination) sequence
number.  Sequence numbers are the backbone of the migration protocol: the
destination slice of a migration buffers duplicated events per source and
the copied state is tagged with the vector of last-processed sequence
numbers, letting the new instance discard obsolete events and preventing
duplicate processing (paper §IV-A).
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["StreamEvent"]


class StreamEvent(NamedTuple):
    """One message on a slice-to-slice channel (immutable)."""

    #: Application-level type tag (e.g. "publication", "subscription").
    kind: str
    #: Application payload (opaque to the engine).
    payload: Any
    #: Logical id of the sender ("AP:0", "source:2", "external").
    source: str
    #: Per (source, destination logical slice) sequence number, from 0.
    seq: int
    #: Wire size used for network accounting.
    size_bytes: int
    #: Simulated send time.
    sent_at: float
    #: True when re-delivered during crash recovery (enables receive-side
    #: deduplication against the per-channel received watermark).
    replayed: bool = False

    def __repr__(self) -> str:
        flag = " replayed" if self.replayed else ""
        return f"<{self.kind} #{self.seq} from {self.source}{flag}>"

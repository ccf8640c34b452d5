"""Message types flowing through the STREAMHUB pipeline.

Every record is a ``typing.NamedTuple``: immutable, with the field names,
defaults and ``repr`` of a frozen dataclass at a third of its
construction cost — the event plane builds several per publication
(DESIGN.md, "DES hot-path diet").  Hot paths build them with
``tuple.__new__(Record, (...))``, which skips the generated ``__new__``
frame and its arity check; every field is then passed, in declaration
order (``tests/pubsub/test_messages.py`` checks what the hot paths build).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

__all__ = ["Subscription", "Publication", "MatchList", "Notification"]


class Subscription(NamedTuple):
    """A subscriber's registered interest.

    ``filter_payload`` is whatever the configured filtering scheme needs:
    a plaintext :class:`~repro.filtering.PredicateSet`, an
    :class:`~repro.filtering.EncryptedSubscription`, or ``None`` in
    sampled-matching simulations.
    """

    sub_id: int
    subscriber: int
    filter_payload: Any = None


class Publication(NamedTuple):
    """A published event.

    ``payload`` is the plaintext attribute tuple or an
    :class:`~repro.filtering.EncryptedPublication` (or ``None`` when
    matching is sampled).  ``published_at`` is stamped by the source
    operator and carried end-to-end for delay measurement.
    """

    pub_id: int
    payload: Any = None
    published_at: float = 0.0


class MatchList(NamedTuple):
    """Partial list of matching subscribers from one M slice.

    ``subscriber_ids`` is ``None`` in sampled mode, where only ``count``
    is meaningful.
    """

    pub_id: int
    m_slice: int
    count: int
    subscriber_ids: Optional[Tuple[int, ...]]
    published_at: float


class Notification(NamedTuple):
    """Aggregated notification batch for one publication at one EP slice."""

    pub_id: int
    count: int
    subscriber_ids: Optional[Tuple[int, ...]]
    published_at: float

"""The three STREAMHUB operators as engine slice handlers (paper §III).

* :class:`AccessPointHandler` (AP) — stateless.  Partitions subscriptions
  over M slices by modulo hashing of the subscription id and broadcasts
  publications to all M slices.
* :class:`MatcherHandler` (M) — stateful.  Stores its partition of the
  subscriptions in a matching backend; on each publication, produces the
  partial list of matching subscribers and forwards it to the EP operator
  (modulo hashing on the publication id).
* :class:`ExitPointHandler` (EP) — small transient state.  Collects, per
  publication, the partial lists of *all* M slices; once complete,
  prepares and dispatches the notifications to the sink.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from ..engine import BROADCAST, SliceContext, SliceHandler, StreamEvent
from ..filtering import CostModel, MatchResult, MatchingBackend
from .messages import MatchList, Notification, Publication, Subscription

__all__ = [
    "AccessPointHandler",
    "MatcherHandler",
    "ExitPointHandler",
    "NotificationSinkHandler",
    "KIND_SUBSCRIPTION",
    "KIND_PUBLICATION",
    "KIND_MATCH_LIST",
    "KIND_NOTIFY",
    "KIND_NOTIFICATION",
]

KIND_SUBSCRIPTION = "subscription"
KIND_PUBLICATION = "publication"
KIND_MATCH_LIST = "match_list"
#: EP-internal completion event carrying the aggregated notification work.
KIND_NOTIFY = "notify"
KIND_NOTIFICATION = "notification"

#: Publications per real kernel call when an M slice matches ahead of the
#: simulated clock: what the kernel's tiles are sized for
#: (``repro.filtering.aspe._TILE_ROWS`` keeps a 128-publication tile's
#: temporaries at 1 MB), and past it a call gains nothing per cell.  A
#: constant of the host-side batching, not of the simulated system — no
#: simulated value depends on it, so it is not configuration.
_MATCH_AHEAD = 128

#: Builds a record from a full field tuple without the generated
#: ``__new__`` frame (see :mod:`repro.pubsub.messages`).
_new = tuple.__new__


class AccessPointHandler(SliceHandler):
    """AP operator: stateless subscription partitioning / pub broadcast."""

    def __init__(
        self,
        cost_model: CostModel,
        matching_operator: str = "M",
        batch_limit: int = 1,
    ):
        if batch_limit <= 0:
            raise ValueError("batch_limit must be positive")
        self.cost_model = cost_model
        self.matching_operator = matching_operator
        #: Max consecutively queued events coalesced into one routing pass
        #: whose emissions share per-destination network transfers.
        self.batch_limit = batch_limit
        self.publications_routed = 0
        self.subscriptions_routed = 0
        #: Events that arrived in coalesced batches of size > 1.
        self.events_batched = 0

    def cost(self, event: StreamEvent) -> float:
        return self.cost_model.ap_event_s

    def coalesce_limit(self, event: StreamEvent) -> int:
        return self.batch_limit

    def coalesce_with(self, head: StreamEvent, candidate: StreamEvent) -> bool:
        # AP work is stateless and uniformly "R"-locked; any mix of
        # subscriptions and publications may share a batch.
        return candidate.kind in (KIND_SUBSCRIPTION, KIND_PUBLICATION)

    def process(self, event: StreamEvent, ctx: SliceContext) -> None:
        operator, kind, payload, size_bytes, key = self._emission(event)
        if key is BROADCAST:
            ctx.emit_broadcast(operator, kind, payload, size_bytes)
        else:
            ctx.emit(operator, kind, payload, size_bytes, key=key)

    def process_batch(self, events, ctx: SliceContext) -> None:
        """Route a coalesced run of events with shared per-slice transfers.

        Emissions keep the events' queued order, so destination slices
        observe the exact sequence a non-batched AP would have produced;
        only the number of simulated network transfers shrinks.
        """
        ctx.emit_batch([self._emission(event) for event in events])
        if len(events) > 1:
            self.events_batched += len(events)

    def _emission(self, event: StreamEvent) -> Tuple[str, str, Any, int, Any]:
        if event.kind == KIND_SUBSCRIPTION:
            subscription: Subscription = event.payload
            self.subscriptions_routed += 1
            return (
                self.matching_operator,
                KIND_SUBSCRIPTION,
                subscription,
                self.cost_model.subscription_bytes,
                subscription.sub_id,
            )
        if event.kind == KIND_PUBLICATION:
            publication: Publication = event.payload
            self.publications_routed += 1
            return (
                self.matching_operator,
                KIND_PUBLICATION,
                publication,
                self.cost_model.publication_bytes,
                BROADCAST,
            )
        raise ValueError(f"AP cannot handle event kind {event.kind!r}")


class MatcherHandler(SliceHandler):
    """M operator: stores a subscription partition, filters publications.

    When the backend's library keeps a mutation epoch
    (``ExactBackend.library_epoch()``), the *real* kernel call is
    decoupled from the simulated batch: a batch that needs results makes
    one ``match_batch`` call over its own publications plus those the
    slice already has in hand at the same library state
    (``SliceContext.upcoming()``), up to :data:`_MATCH_AHEAD`, and later
    batches pop their results instead of calling the kernel.  Every
    simulated cost, order and counter is untouched — only which host call
    computed a :class:`MatchResult` changes (DESIGN.md §7).
    """

    def __init__(
        self,
        slice_index: int,
        backend: MatchingBackend,
        cost_model: CostModel,
        encrypted: bool = True,
        exit_operator: str = "EP",
        batch_limit: int = 1,
        store_config=None,
    ):
        if batch_limit <= 0:
            raise ValueError("batch_limit must be positive")
        self.slice_index = slice_index
        self.backend = backend
        self.cost_model = cost_model
        self.encrypted = encrypted
        self.exit_operator = exit_operator
        #: Max consecutively queued publications coalesced into one
        #: backend ``match_batch`` call (1 = no coalescing).
        self.batch_limit = batch_limit
        self.publications_matched = 0
        #: Publications that arrived in coalesced batches of size > 1.
        self.publications_batched = 0
        #: Publications matched by an earlier batch's kernel call.
        self.publications_matched_ahead = 0
        #: Subscriptions dropped because their id was already stored.
        self.duplicate_subscriptions = 0
        #: sub_id → subscriber, resolved when emitting match lists.
        self._subscribers: Dict[int, int] = {}
        #: ``(stored subscriptions, match cost)`` of the last publication.
        self._match_cost = (-1, 0.0)
        if store_config is not None:
            configure = getattr(
                getattr(backend, "library", None), "configure_store", None
            )
            if configure is not None:
                configure(store_config)
        self._telemetry_bound = False
        #: ``backend.library_epoch`` when results may be computed ahead
        #: (the library keeps an epoch), else ``None``.
        self._library_epoch = None
        library_epoch = getattr(self.backend, "library_epoch", None)
        if library_epoch is not None and library_epoch() is not None:
            self._library_epoch = library_epoch
        #: Results matched ahead, ``id(event)`` → ``(event, result)``: the
        #: entry holds the event so its ``id()`` cannot be recycled, and two
        #: in-flight publications sharing a ``pub_id`` stay apart.  All
        #: entries were computed at ``_ahead_stamp``, a ``(library, epoch)``;
        #: a batch that finds another drops them unread.  Never more than
        #: ``_MATCH_AHEAD`` entries.
        self._ahead: Dict[int, Tuple[StreamEvent, MatchResult]] = {}
        self._ahead_stamp: Optional[Tuple[Any, int]] = None

    def _bind_store_telemetry(self, telemetry) -> None:
        """First-contact bind of the backing store's wall-clock metrics."""
        self._telemetry_bound = True
        if telemetry is None:
            return
        bind = getattr(
            getattr(self.backend, "library", None), "bind_telemetry", None
        )
        if bind is not None:
            bind(telemetry, f"M:{self.slice_index}")

    def cost(self, event: StreamEvent) -> float:
        if event.kind == KIND_PUBLICATION:
            # Keyed by the stored count, not invalidated on store: perfbench
            # preloads subscriptions straight into the library.
            count = self.backend.subscription_count()
            if self._match_cost[0] != count:
                self._match_cost = (count, self.cost_model.match_cost_s(
                    count, encrypted=self.encrypted))
            return self._match_cost[1]
        return self.cost_model.ap_event_s  # storing one subscription is cheap

    def lock_mode(self, event: StreamEvent) -> str:
        # Matching only reads the subscription store; storing mutates it.
        return "R" if event.kind == KIND_PUBLICATION else "W"

    def coalesce_limit(self, event: StreamEvent) -> int:
        # Only publications coalesce: they share the "R" lock mode and map
        # onto one vectorized match_batch call.
        return self.batch_limit if event.kind == KIND_PUBLICATION else 1

    def coalesce_with(self, head: StreamEvent, candidate: StreamEvent) -> bool:
        return candidate.kind == KIND_PUBLICATION

    def prepare_batch(self, events, ctx: SliceContext) -> None:
        """Nothing to prepare.  Deliberate leftover: ``perfbench/layers.py``
        wraps ``MatcherHandler.__dict__["prepare_batch"]`` and may not be
        edited here, so the method must exist on this class; it goes with
        the ``SliceHandler`` hook and its call in ``engine/instance.py``
        in the PR that has ``perfbench/**`` in bounds (ROADMAP item 0)."""

    def detach(self) -> None:
        """Slice teardown (migration/recovery): results matched ahead for
        a dead slice are discarded, never delivered."""
        self._ahead.clear()

    def _match_now(self, events) -> List[MatchResult]:
        """One backend call over the publications of ``events``."""
        if len(events) == 1:
            publication = events[0].payload
            return [self.backend.match(publication.pub_id, publication.payload)]
        publications = [event.payload for event in events]
        return self.backend.match_batch(
            [publication.pub_id for publication in publications],
            [publication.payload for publication in publications],
        )

    def _match_ahead(self, events, upcoming) -> List[MatchResult]:
        """Results for ``events``, matched now or by an earlier batch.

        What an earlier call left for these events is popped; if anything
        is missing, *one* backend call matches it together with the
        publications ``upcoming()`` says the slice will process next at
        this library state — the running R batches (certain: no writer gets
        the lock before they finish) and the inbox's leading run of
        publications when no one waits for the lock (likely: an event on
        its way to an idle worker can still overtake them) — and keeps
        those results for the batches they belong to.  The stamp settles
        the uncertain cases: after any mutation every kept result is
        dropped unread and matched again when its batch is processed.
        A batch already at the cap, or with nothing behind it, pays for no
        bookkeeping at all.
        """
        ahead = self._ahead
        stamp = (self.backend.library, self._library_epoch())
        if stamp != self._ahead_stamp:
            ahead.clear()
            self._ahead_stamp = stamp
        missing = events
        results = None
        if ahead:
            results = [ahead.pop(id(event), None) for event in events]
            missing = [event for event, held in zip(events, results) if held is None]
            if not missing:
                return [held[1] for held in results]
        extra: List[StreamEvent] = []
        # A simulated batch at the cap looks no further, even for a short
        # remainder: its look-ahead would cut the next full batch the same
        # way, and every batch behind it would pay the bookkeeping.
        room = 0
        if len(events) < _MATCH_AHEAD:
            room = _MATCH_AHEAD - len(missing) - len(ahead)
        if room > 0:
            for event in upcoming():
                if event.kind != KIND_PUBLICATION:
                    break
                if id(event) not in ahead:
                    extra.append(event)
                    if len(extra) == room:
                        break
        if extra:
            own = len(missing)
            matched = self._match_now([*missing, *extra])
            for event, result in zip(extra, matched[own:]):
                ahead[id(event)] = (event, result)
            self.publications_matched_ahead += len(extra)
            del matched[own:]
        else:
            matched = self._match_now(missing)
        if results is None:
            return matched
        fresh = iter(matched)
        return [next(fresh) if held is None else held[1] for held in results]

    def _results(self, events, ctx: SliceContext) -> List[MatchResult]:
        """One :class:`MatchResult` per publication event of a batch."""
        if self._library_epoch is not None:
            upcoming = getattr(ctx, "upcoming", None)
            if upcoming is not None:
                return self._match_ahead(events, upcoming)
        return self._match_now(events)

    def process(self, event: StreamEvent, ctx: SliceContext) -> None:
        if not self._telemetry_bound:
            self._bind_store_telemetry(getattr(ctx, "telemetry", None))
        if event.kind == KIND_SUBSCRIPTION:
            self.preload(event.payload)
        elif event.kind == KIND_PUBLICATION:
            result = self._results((event,), ctx)[0]
            telemetry = getattr(ctx, "telemetry", None)
            if telemetry is not None:
                telemetry.matcher_publications.inc()
                telemetry.matcher_matches.inc(result.count)
            ctx.emit(*self._match_emissions((event,), (result,))[0])
        else:
            raise ValueError(f"M cannot handle event kind {event.kind!r}")

    def process_batch(self, events, ctx: SliceContext) -> None:
        """Match a coalesced run of publications and emit their lists.

        Match lists keep the events' queued order and go out in one
        micro-batched routing pass, so the EP join and all cost/delay
        accounting observe the exact event stream a non-batched matcher
        would have produced — only the backend call count and the number
        of simulated network transfers shrink.
        """
        if not self._telemetry_bound:
            self._bind_store_telemetry(getattr(ctx, "telemetry", None))
        results = self._results(events, ctx)
        telemetry = getattr(ctx, "telemetry", None)
        if telemetry is not None:
            telemetry.matcher_publications.inc(len(results))
            telemetry.matcher_matches.inc(sum(result.count for result in results))
        ctx.emit_batch(self._match_emissions(events, results))
        if len(events) > 1:
            self.publications_batched += len(events)

    def _match_emissions(
        self, events, results
    ) -> List[Tuple[str, str, Any, int, Any]]:
        """One match-list emission to the EP per publication event."""
        subscriber_of = self._subscribers.get
        m_slice = self.slice_index
        exit_operator = self.exit_operator
        list_bytes = self.cost_model.match_list_bytes
        emissions = []
        for event, result in zip(events, results):
            publication: Publication = event.payload
            pub_id = publication.pub_id
            count = result.count
            ids = result.ids
            if ids is not None:
                # (get(sub_id, sub_id) per id, resolved without a Python frame.)
                ids = tuple(map(subscriber_of, ids, ids))
            match_list = _new(
                MatchList, (pub_id, m_slice, count, ids, publication.published_at)
            )
            emissions.append(
                (exit_operator, KIND_MATCH_LIST, match_list, list_bytes(count), pub_id)
            )
        self.publications_matched += len(emissions)
        return emissions

    def preload(self, subscription: Subscription) -> None:
        """Install a subscription directly, bypassing the pipeline.

        Equivalent to receiving it via the AP (the caller must respect the
        AP's partitioning: ``sub_id mod m_slices == slice_index``), which
        is how :meth:`process` stores one.  Used by large-scale
        experiments to skip the unmeasured storage phase.  A subscription
        whose id is already held is dropped and counted: subscriptions are
        never replaced, so a repeated id (a buggy or hostile client)
        neither crashes the slice nor grows its store.
        """
        if subscription.sub_id in self._subscribers:
            self.duplicate_subscriptions += 1
            return
        self._ahead.clear()
        self.backend.store(subscription.sub_id, subscription.filter_payload)
        self._subscribers[subscription.sub_id] = subscription.subscriber

    # -- migration state ------------------------------------------------------

    def export_state(self) -> Any:
        return {
            "backend": self.backend.export_state(),
            "subscribers": dict(self._subscribers),
        }

    def import_state(self, state: Any) -> None:
        if state is not None:
            self._ahead.clear()
            self.backend.import_state(state["backend"])
            self._subscribers = dict(state["subscribers"])

    def state_size_bytes(self) -> int:
        # The persistent state is the stored subscription partition.
        return self.backend.subscription_count() * self.cost_model.subscription_bytes


class ExitPointHandler(SliceHandler):
    """EP operator: joins the M slices' partial lists, dispatches."""

    def __init__(
        self,
        cost_model: CostModel,
        m_slice_count: int,
        own_operator: str = "EP",
        sink_operator: Optional[str] = "SINK",
        batch_limit: int = 1,
    ):
        if m_slice_count <= 0:
            raise ValueError("m_slice_count must be positive")
        if batch_limit <= 0:
            raise ValueError("batch_limit must be positive")
        self.cost_model = cost_model
        self.m_slice_count = m_slice_count
        self.own_operator = own_operator
        self.sink_operator = sink_operator
        #: Max consecutively queued events coalesced into one join pass;
        #: completed notifications of the whole batch dispatch together.
        self.batch_limit = batch_limit
        #: pub_id → [m-slices received, total matches, ids per m-slice,
        #: published_at].  Partial subscriber lists are kept *per M slice*
        #: and concatenated in M-slice index order at completion, so the
        #: notification content is independent of the arrival order of
        #: the partial lists — adaptively flushed runs emit
        #: byte-identical notifications to serial runs (DESIGN.md §9).
        self.pending: Dict[int, List[Any]] = {}
        self.notifications_sent = 0
        #: Events that arrived in coalesced batches of size > 1.
        self.events_batched = 0

    def cost(self, event: StreamEvent) -> float:
        if event.kind == KIND_MATCH_LIST:
            return self.cost_model.ep_partial_s
        if event.kind == KIND_NOTIFY:
            notification: Notification = event.payload
            return notification.count * self.cost_model.ep_notification_s
        return 0.0

    def lock_mode(self, event: StreamEvent) -> str:
        # Both joining and dispatch touch the pending table.
        return "W"

    def coalesce_limit(self, event: StreamEvent) -> int:
        return self.batch_limit

    def coalesce_with(self, head: StreamEvent, candidate: StreamEvent) -> bool:
        # Everything the EP handles runs under the "W" lock; partial lists
        # and self-addressed dispatch events may share a batch.
        return candidate.kind in (KIND_MATCH_LIST, KIND_NOTIFY)

    def process(self, event: StreamEvent, ctx: SliceContext) -> None:
        emission = self._handle(event)
        if emission is not None:
            ctx.emit(*emission)

    def process_batch(self, events, ctx: SliceContext) -> None:
        """Join a coalesced run of events, dispatching completions together.

        Partial lists accumulate across the whole batch before the
        resulting emissions go out in one micro-batched routing pass; the
        emissions keep the per-event order, so the downstream observes
        the same content and sequence numbers as the per-event path.
        """
        handle = self._handle
        emissions = []
        for event in events:
            emission = handle(event)
            if emission is not None:
                emissions.append(emission)
        if emissions:
            ctx.emit_batch(emissions)
        if len(events) > 1:
            self.events_batched += len(events)

    def _handle(self, event: StreamEvent) -> Optional[Tuple[str, str, Any, int, Any]]:
        if event.kind == KIND_MATCH_LIST:
            return self._join(event.payload)
        if event.kind == KIND_NOTIFY:
            return self._dispatch(event.payload)
        raise ValueError(f"EP cannot handle event kind {event.kind!r}")

    def _join(self, match_list: MatchList) -> Optional[Tuple[str, str, Any, int, Any]]:
        pub_id, m_slice, count, subscriber_ids, published_at = match_list
        pending = self.pending
        entry = pending.get(pub_id)
        if entry is None:
            entry = pending[pub_id] = [
                set(), 0, {} if subscriber_ids is not None else None, published_at
            ]
        received, _, ids_by_slice, _ = entry
        if m_slice in received:
            # Content-level idempotence: a duplicate delivery of the same
            # partial list (crash-recovery replay) is ignored, keyed by
            # the originating M slice.
            return None
        received.add(m_slice)
        entry[1] += count
        if ids_by_slice is not None and subscriber_ids is not None:
            ids_by_slice[m_slice] = subscriber_ids
        if len(received) < self.m_slice_count:
            return None
        del pending[pub_id]
        ids: Optional[Tuple[int, ...]] = None
        if ids_by_slice is not None:
            ids = tuple(chain.from_iterable(map(ids_by_slice.get, sorted(ids_by_slice))))
        notification = _new(Notification, (pub_id, entry[1], ids, entry[3]))
        # Dispatching has its own CPU cost proportional to the number
        # of notifications; route it through a self-addressed event so
        # the engine charges it (same slice: key = pub_id).
        return (
            self.own_operator,
            KIND_NOTIFY,
            notification,
            self.cost_model.frame_bytes,
            pub_id,
        )

    def _dispatch(self, notification: Notification) -> Optional[Tuple[str, str, Any, int, Any]]:
        self.notifications_sent += notification.count
        if self.sink_operator is None:
            return None
        return (
            self.sink_operator,
            KIND_NOTIFICATION,
            notification,
            self.cost_model.frame_bytes
            + notification.count * self.cost_model.notification_bytes,
            notification.pub_id,
        )

    # -- migration state -----------------------------------------------------

    def export_state(self) -> Any:
        return {
            pub_id: [set(entry[0]), entry[1],
                     dict(entry[2]) if entry[2] is not None else None, entry[3]]
            for pub_id, entry in self.pending.items()
        }

    def import_state(self, state: Any) -> None:
        if state is not None:
            self.pending = {
                pub_id: [set(entry[0]), entry[1],
                         dict(entry[2]) if entry[2] is not None else None, entry[3]]
                for pub_id, entry in state.items()
            }

    def state_size_bytes(self) -> int:
        # Transient and expected to be small (paper §IV-A).
        return len(self.pending) * self.cost_model.ep_pending_bytes


class NotificationSinkHandler(SliceHandler):
    """Convenience sink operator slice: records notification delays."""

    def __init__(self, collector):
        """``collector`` is a callable ``(Notification, now) -> None``."""
        self.collector = collector
        self.received = 0

    def process(self, event: StreamEvent, ctx: SliceContext) -> None:
        if event.kind != KIND_NOTIFICATION:
            raise ValueError(f"sink cannot handle event kind {event.kind!r}")
        self.collector(event.payload, ctx.now)
        self.received += 1

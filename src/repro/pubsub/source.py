"""Source driver: pushes publications into the hub.

Stands in for the paper's *source* convenience operator, which pushes
pre-encrypted events from disk at a controlled rate (§VI-A).  After the
subscriptions are stored, publications flow at a constant rate, a
synthetic rate profile, or a replayed trace.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from ..sim import Environment, Process
from .hub import StreamHub
from .messages import Publication

__all__ = ["SourceDriver"]


class SourceDriver:
    """Feeds one hub from a named external source."""

    def __init__(
        self,
        hub: StreamHub,
        name: str = "source:0",
        seed: int = 0,
        poisson: bool = False,
        pub_id_offset: int = 0,
        pub_id_stride: int = 1,
    ):
        """Multiple drivers feeding one hub must use disjoint publication
        id spaces (EP slices join partial match lists by publication id):
        give driver ``i`` of ``n`` ``pub_id_offset=i, pub_id_stride=n``.
        """
        if pub_id_stride <= 0 or not 0 <= pub_id_offset < pub_id_stride:
            raise ValueError("need 0 <= pub_id_offset < pub_id_stride")
        self.hub = hub
        self.env: Environment = hub.env
        self.name = name
        self.poisson = poisson
        self._rng = random.Random(seed)
        self._next_pub_id = pub_id_offset
        self._pub_id_stride = pub_id_stride
        self.publications_sent = 0

    # -- publication phases -----------------------------------------------------------

    def publish_constant(
        self,
        rate_per_s: float,
        duration_s: float,
        payload_factory: Optional[Callable[[int], Any]] = None,
    ) -> Process:
        """Publish at a constant rate for ``duration_s``."""
        return self.publish_profile(lambda t: rate_per_s, duration_s, payload_factory)

    def publish_profile(
        self,
        rate_fn: Callable[[float], float],
        duration_s: float,
        payload_factory: Optional[Callable[[int], Any]] = None,
        idle_resolution_s: float = 1.0,
    ) -> Process:
        """Publish following ``rate_fn(t)`` (t relative to phase start).

        With ``poisson`` sourcing, inter-publication gaps are exponential
        with the instantaneous rate; otherwise they are deterministic
        ``1 / rate`` spacings.  While the rate is zero the driver idles in
        ``idle_resolution_s`` steps.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")

        def run():
            start = self.env.now
            while self.env.now - start < duration_s:
                rate = max(0.0, rate_fn(self.env.now - start))
                if rate <= 0.0:
                    yield self.env.timeout(idle_resolution_s)
                    continue
                self._emit(payload_factory)
                gap = (
                    self._rng.expovariate(rate) if self.poisson else 1.0 / rate
                )
                yield self.env.timeout(gap)
            return self.publications_sent

        return self.env.process(run())

    def publish_now(self, payload: Any = None) -> Publication:
        """Publish a single event immediately; returns the publication."""
        publication = Publication(
            pub_id=self._next_pub_id, payload=payload, published_at=self.env.now
        )
        self._next_pub_id += self._pub_id_stride
        self.hub.publish(publication, source=self.name)
        self.publications_sent += 1
        return publication

    def _emit(self, payload_factory: Optional[Callable[[int], Any]]) -> None:
        payload = payload_factory(self._next_pub_id) if payload_factory else None
        self.publish_now(payload)

"""Output oracle: what a repetition delivered, against what it should have.

Every repetition must deliver each publication exactly once and the same
notification multiset (SHA-256, :func:`repro.experiments.chaos.multiset_digest`)
as every other repetition.  For the exact-matching workloads the delivered
subscriber sets must also equal a reference computed without the hub: a
fresh dense :class:`~repro.filtering.AspeLibrary` fed the same ciphertexts in
injection order, itself cross-checked against per-pair
:func:`~repro.filtering.aspe.match_encrypted`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.experiments.chaos import notification_multiset
from repro.filtering import AspeLibrary, StoreConfig
from repro.filtering.aspe import match_encrypted

__all__ = ["delivery_failures", "delivered_sets", "reference_sets",
           "pair_check_failures"]

#: Publications per reference ``match_batch`` call (bounds its workspace).
_REFERENCE_BATCH = 128


def delivery_failures(hub) -> int:
    """Publications not delivered exactly once, plus duplicate notifications."""
    seen = Counter(notification.pub_id for notification in hub.notification_log)
    wrong = sum(1 for pub_id in range(hub.published_count) if seen[pub_id] != 1)
    return wrong + hub.duplicate_notifications


def delivered_sets(hub, every: int) -> Dict[int, Tuple[int, ...]]:
    """Sorted subscriber ids of every ``every``-th publication delivered."""
    return {
        pub_id: ids
        for pub_id, _count, ids in notification_multiset(hub)
        if pub_id % every == 0
    }


def reference_sets(inputs, every: int) -> Dict[int, Tuple[int, ...]]:
    """What every ``every``-th publication must match, computed hub-free.

    Replays the injection order of ``inputs.waves`` on one dense library:
    new subscriptions are stored where they were injected, so a publication
    sees exactly the subscriptions injected before it.
    """
    library = AspeLibrary(StoreConfig())
    library.store_many(inputs.subscriptions)
    expected: Dict[int, Tuple[int, ...]] = {}
    pending: List[int] = []

    def flush() -> None:
        for low in range(0, len(pending), _REFERENCE_BATCH):
            pub_ids = pending[low:low + _REFERENCE_BATCH]
            matches = library.match_batch([inputs.publications[i] for i in pub_ids])
            for pub_id, ids in zip(pub_ids, matches):
                expected[pub_id] = tuple(sorted(ids))
        pending.clear()

    for wave in inputs.waves:
        for kind, item in wave:
            if kind == "sub":
                flush()
                library.store(*item)
            elif item % every == 0:
                pending.append(item)
    flush()
    return expected


def pair_check_failures(inputs, expected, publications: int = 8,
                        subscriptions: int = 2000) -> int:
    """Reference publications the scalar per-pair matcher disagrees on.

    Restricted to the first ``subscriptions`` preloaded subscriptions, which
    every publication sees whatever was subscribed since.
    """
    sample = inputs.subscriptions[:subscriptions]
    limit = sample[-1][0]
    failures = 0
    for pub_id in sorted(expected)[:publications]:
        publication = inputs.publications[pub_id]
        scalar = tuple(
            sub_id for sub_id, ciphertext in sample
            if match_encrypted(publication, ciphertext)
        )
        if scalar != tuple(i for i in expected[pub_id] if i <= limit):
            failures += 1
    return failures

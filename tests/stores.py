"""The two packed-row stores the store-sensitive tests run on.

A test that builds an :class:`~repro.filtering.AspeLibrary` (directly or
through a hub's ``store=``) takes the ``store_config`` fixture
(``tests/conftest.py``: the default in-RAM store).  Its module then
collects it a second time on :data:`SMALL_MMAP_STORE` — module-level
tests through :func:`on_mmap_store`, a test class through a subclass
binding :func:`small_mmap_store` — so every such test checks the store
equivalence contract (DESIGN.md §8) while the default runs keep their
test ids.
"""

import pytest

from repro.filtering import StoreConfig

#: Sixteen-row chunks over spill files under a ~1 KiB residency budget,
#: about one chunk at the tests' cipher widths: a library of a few dozen
#: subscriptions spans several chunks, and a match pass or state export
#: over it evicts and faults (the failover hubs of
#: ``tests/elastic/test_manager_failover_chaos.py`` do both).
SMALL_MMAP_STORE = StoreConfig(
    backend="mmap", chunk_rows=16, memory_budget_mb=0.001
)


@pytest.fixture(scope="class", name="store_config")
def small_mmap_store(self):
    """``store_config`` inside a test class: :data:`SMALL_MMAP_STORE`.
    A subclass of a store-sensitive test class binds it with
    ``store_config = stores.small_mmap_store`` (imported by name into a
    module, it would replace ``store_config`` for the whole module)."""
    return SMALL_MMAP_STORE


def on_mmap_store(*tests):
    """A test class collecting module-level ``tests`` again with
    ``store_config`` bound to :data:`SMALL_MMAP_STORE`; assign it to
    ``TestOnMmapStore``."""
    namespace = {"store_config": small_mmap_store}
    namespace.update((test.__name__, staticmethod(test)) for test in tests)
    return type("TestOnMmapStore", (), namespace)

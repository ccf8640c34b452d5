"""Tests for the HubConfig store-backend knobs."""

import dataclasses

import pytest

from repro.filtering import STORE_BACKENDS, AspeLibrary, ExactBackend, StoreConfig
from repro.pubsub import HubConfig

from .conftest import HubHarness, small_exact_config


def test_defaults_are_chunked():
    config = HubConfig(ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1)
    assert config.store is None  # each library keeps its own store
    store = AspeLibrary().store_config
    assert store == StoreConfig()
    assert store.backend == "chunked"
    assert store.chunk_rows == 65536
    assert store.memory_budget_mb == 0.0


def test_the_store_has_one_spelling_and_two_backends():
    assert STORE_BACKENDS == ("chunked", "mmap")
    assert not [
        field.name
        for field in dataclasses.fields(HubConfig)
        if field.name.startswith("store_")
    ]
    assert not hasattr(HubConfig, "store_config")
    with pytest.raises(ValueError, match="chunked.*mmap"):
        StoreConfig(backend="dense")


def test_invalid_knobs_rejected_at_config_time():
    with pytest.raises(ValueError, match="store_backend"):
        StoreConfig(backend="tape")
    with pytest.raises(ValueError, match="store_memory_budget_mb"):
        StoreConfig(memory_budget_mb=-1)
    with pytest.raises(ValueError, match="store_chunk_rows"):
        StoreConfig(chunk_rows=0)


def test_matcher_libraries_use_configured_backend():
    config = HubConfig(
        ap_slices=1, m_slices=2, ep_slices=1, sink_slices=1,
        store=StoreConfig(backend="chunked", chunk_rows=128),
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
    )
    h = HubHarness(config)
    for index in range(2):
        handler = h.hub.runtime.handler_of(f"M:{index}")
        stats = handler.backend.library.store_stats()
        assert stats["backend"] == "chunked"
        assert stats["chunk_rows"] == 128


def test_non_aspe_backend_ignores_store_config():
    # BruteForceLibrary has no configure_store; the knob must not break it.
    h = HubHarness(small_exact_config(store=StoreConfig(backend="mmap")))
    assert h.hub.runtime.handler_of("M:0") is not None


def test_a_library_keeps_its_own_store_without_a_hub_store():
    """No ``store=`` means no override: the backend factory's store is
    the one deployed, not a default config switched in behind it."""
    own = StoreConfig(backend="mmap", chunk_rows=2048, memory_budget_mb=1.0)
    config = HubConfig(
        ap_slices=1, m_slices=2, ep_slices=1, sink_slices=1,
        backend_factory=lambda index: ExactBackend(AspeLibrary(own)),
    )
    h = HubHarness(config)
    for index in range(2):
        library = h.hub.runtime.handler_of(f"M:{index}").backend.library
        assert library.store_config == own

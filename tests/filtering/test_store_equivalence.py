"""Property suite: every store layout is observationally identical.

Random sequences of stores and bulk stores (a store under an id already
held is refused, and must change nothing) drive three
:class:`AspeLibrary` instances in lockstep — the default store (one growing
chunk), 3-row RAM chunks and 3-row ``mmap`` chunks under a two-chunk budget.
After every operation the libraries must
agree with each other *and* with a hub-free oracle (a plain dict of the
stored ciphertexts filtered by :func:`match_encrypted`), and the three
``AspeLibrary`` variants must walk *identical* ``epoch`` sequences.
"""

import pytest

import random

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
    StoreConfig,
    match_encrypted,
)

_KEY = AspeKey.generate(dimensions=2, rng=random.Random(202))
_CIPHER = AspeCipher(_KEY, rng=random.Random(303))
_RNG = random.Random(404)
_SUBS = {
    sub_id: _CIPHER.encrypt_subscription(
        PredicateSet.of(
            Predicate(0, Op.GE, low := _RNG.uniform(0, 80)),
            Predicate(0, Op.LE, low + 25),
        )
    )
    for sub_id in range(10)
}
_PUBS = [
    _CIPHER.encrypt_publication([_RNG.uniform(0, 100), 0.0]) for _ in range(6)
]

# Tiny chunks so short sequences cross chunk boundaries.
_CONFIGS = {
    "default": StoreConfig(),
    "chunked": StoreConfig(backend="chunked", chunk_rows=3),
    "mmap": StoreConfig(backend="mmap", chunk_rows=3,
                        memory_budget_mb=0.0002),  # ~2 chunks at width 5
}
# A budget below one chunk (120 B at width 5): every touch of another
# chunk releases the one touched before it.
_TIGHT = StoreConfig(backend="mmap", chunk_rows=3, memory_budget_mb=0.00005)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 9)),
        st.tuples(st.just("bulk"), st.integers(0, 9)),
        st.tuples(st.just("match"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=40,
)


def _churn(sequence, configs):
    """Drive one library per config through ``sequence`` in lockstep,
    checking agreement after every operation."""
    libraries = {
        name: AspeLibrary(store_config=config)
        for name, config in configs.items()
    }
    #: The oracle, in insertion order.
    stored = {}

    def oracle(publication):
        return [
            sub_id
            for sub_id, subscription in stored.items()
            if match_encrypted(publication, subscription)
        ]

    def check():
        expected = [oracle(publication) for publication in _PUBS]
        for lib in libraries.values():
            assert lib.match_batch(_PUBS) == expected
        epochs = {lib.epoch for lib in libraries.values()}
        assert len(epochs) == 1, "epoch diverged across backends"

    for op, arg in sequence:
        if op == "store":
            for lib in libraries.values():
                if arg in stored:
                    with pytest.raises(ValueError):
                        lib.store(arg, _SUBS[arg])
                else:
                    lib.store(arg, _SUBS[arg])
            stored[arg] = _SUBS[arg]
        elif op == "bulk":
            items = [(i, _SUBS[i]) for i in range(arg, min(arg + 4, 10))]
            fresh = [item for item in items if item[0] not in stored]
            for lib in libraries.values():
                if fresh != items:
                    with pytest.raises(ValueError):
                        lib.store_many(items)
                lib.store_many(fresh)
            stored.update(fresh)
        elif op == "match":
            for lib in libraries.values():
                assert lib.match(_PUBS[arg]) == oracle(_PUBS[arg])
            continue
        check()
    return libraries


@given(ops)
@settings(max_examples=40, deadline=None)
def test_backends_agree_under_churn(sequence):
    libraries = _churn(sequence, _CONFIGS)

    # The stores must also hold bit-identical row data, and the span
    # indexes agree on ids and spans.
    base, *others = libraries.values()
    base_ids, _, base_starts, base_stops = base._span_index().view
    for lib in others:
        store = lib._chunks
        assert (store.rows, store.width) == (base._chunks.rows, base._chunks.width)
        ids, _, starts, stops = lib._span_index().view
        assert ids == base_ids
        for ours, theirs in zip(_packed_rows(store), _packed_rows(base._chunks)):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(starts, base_starts)
        assert np.array_equal(stops, base_stops)


def _packed_rows(store):
    """``(matrix, strict, tol_signed)`` of a store's rows, its blocks
    concatenated."""
    blocks = list(store.blocks())
    if not blocks:
        return np.empty((0, store.width or 0)), np.empty(0, bool), np.empty(0)
    return tuple(
        np.concatenate([getattr(block, name) for block in blocks])
        for name in ("matrix", "strict", "tol_signed")
    )


@given(ops)
@settings(max_examples=40, deadline=None)
def test_release_on_every_touch_agrees_with_the_default_store(sequence):
    """Stores and bulk stores with every chunk released as soon as the
    next one is touched."""
    libraries = _churn(sequence, {"default": _CONFIGS["default"], "tight": _TIGHT})
    stats = libraries["tight"].store_stats()
    assert stats["resident_chunks"] <= 1
    assert stats["evictions"] >= stats["chunks"] - 1


@given(ops)
@settings(max_examples=25, deadline=None)
def test_blocks_are_plain_contiguous_and_matching_copies_no_rows(sequence):
    """The no-copy property: a store block is what the kernel reads."""
    libraries = _churn(sequence, _CONFIGS)
    for library in libraries.values():
        library.match_batch(_PUBS)
        assert "rows" not in library._ws
        for block in library._chunks.blocks():
            for column in (block.matrix, block.tol_signed):
                assert type(column) is np.ndarray
                assert column.flags.c_contiguous

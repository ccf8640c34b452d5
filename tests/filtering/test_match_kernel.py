"""The one decision kernel: tiling, gather tables, scratch bound, index upkeep.

`match_packed` decides a span by AND-ing gathers of the per-row decisions,
a tile of rows at a time.  The property below drives it — directly with a
private tile size, and through `AspeLibrary` on the dense and the chunked
store — over every shape the gather tables must get right, and compares
each (publication, subscription) pair with the sequential
`match_encrypted`.  Two regression tests pin what the rewrite was for: the
scratch buffers are bounded by batch x tile, and a store under a fresh id
extends the span index instead of rebuilding it.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import (
    AspeLibrary,
    EncryptedPredicate,
    EncryptedPublication,
    EncryptedSubscription,
    StoreConfig,
    aspe,
    match_encrypted,
    match_packed,
)

WIDTH = 6
OP_CODES = ("gt", "ge", "lt", "le")

#: A publication and predicate vectors whose product is *exactly* the
#: decision threshold in both the kernel and the reference: ‖û‖ + 1 = 2 and
#: ‖q̂‖ + 1 = 4 are powers of two, so `_REL_TOL`·2·4 rounds the same in
#: either association, and û·q̂ adds only zeros to the first coordinate.
_UNIT_PUBLICATION = EncryptedPublication(vector=np.eye(WIDTH)[0])
_THRESHOLD = aspe._REL_TOL * 8.0


def _boundary_vector(first):
    vector = np.zeros(WIDTH)
    vector[0] = first
    vector[1] = 3.0
    return vector


def _random_predicate(rng):
    return EncryptedPredicate(
        op_code=rng.choice(OP_CODES),
        vector=np.array([rng.uniform(-1.0, 1.0) for _ in range(WIDTH)]),
    )


def _boundary_predicate(rng):
    edge = rng.choice((_THRESHOLD, -_THRESHOLD))
    first = rng.choice((edge, np.nextafter(edge, 1.0), np.nextafter(edge, -1.0)))
    return EncryptedPredicate(
        op_code=rng.choice(OP_CODES), vector=_boundary_vector(first)
    )


def _subscription(rng, length):
    make = rng.choice((_random_predicate, _random_predicate, _boundary_predicate))
    return EncryptedSubscription(
        predicates=tuple(make(rng) for _ in range(length))
    )


def _publications(rng, count):
    random_ones = [
        EncryptedPublication(
            vector=np.array([rng.uniform(-5.0, 5.0) for _ in range(WIDTH)])
        )
        for _ in range(count)
    ]
    return [_UNIT_PUBLICATION] + random_ones


def _reference(library, publications):
    state = library.export_state()  # store order
    return [
        [sub_id for sub_id, sub in state.items() if match_encrypted(pub, sub)]
        for pub in publications
    ]


operations = st.lists(
    st.one_of(
        # Ids 0-7 collide often, so stores overwrite (rows move to the end
        # while the id keeps its place) as well as insert.
        st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 9)),
        st.tuples(st.just("remove"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("match"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=24,
)


@given(
    operations,
    st.sampled_from(("dense", "chunked")),
    st.sampled_from((1, 3, 7, "rows", "beyond")),
    st.integers(0, 2**31),
)
@settings(max_examples=120, deadline=None)
def test_kernel_agrees_with_match_encrypted(sequence, backend, tile, seed):
    rng = random.Random(seed)
    # No compaction, so removes leave tombstone gaps between spans; chunks
    # of 4 rows cut most spans of 5-9 rows at least once.
    library = AspeLibrary(
        store_config=StoreConfig(
            backend=backend, chunk_rows=4, compact_dead_ratio=1.0
        )
    )
    publications = _publications(rng, 3)

    def check():
        rows = library.store_stats()["rows"]
        tile_rows = {"rows": max(rows, 1), "beyond": rows + 5}.get(tile, tile)
        expected = _reference(library, publications)
        with mock.patch.object(aspe, "_TILE_ROWS", tile_rows):
            # Tiles are cached per index; drop it so this tile size is used.
            library._index = None
            assert library.match_batch(publications) == expected
            assert [library.match(p) for p in publications] == expected
        view = library.packed_view()
        if view.span_count == 0:
            return
        ok = match_packed(
            view.matrix,
            view.strict,
            view.tol_signed,
            view.starts,
            view.stops,
            np.stack([p.vector for p in publications]),
            _tile_rows=tile_rows,
        )
        for row, matched in enumerate(expected):
            for column, position in enumerate(view.positions):
                assert ok[row, column] == (view.ids[position] in matched)

    for op, sub_id, length in sequence:
        if op == "store":
            library.store(sub_id, _subscription(rng, length))
        elif op == "remove":
            if sub_id in library.export_state():
                library.remove(sub_id)
        else:
            check()
    check()


def test_exact_boundary_products_decide_like_the_reference():
    # product == +threshold: only the non-strict `le` holds among (gt, le);
    # product == -threshold: only the non-strict `ge` among (ge, lt).
    library = AspeLibrary()
    cases = [
        ("gt", _THRESHOLD, False),
        ("le", _THRESHOLD, True),
        ("ge", -_THRESHOLD, True),
        ("lt", -_THRESHOLD, False),
        ("gt", np.nextafter(_THRESHOLD, 1.0), True),
        ("lt", np.nextafter(-_THRESHOLD, -1.0), True),
    ]
    for sub_id, (op_code, first, _) in enumerate(cases):
        predicate = EncryptedPredicate(op_code, _boundary_vector(first))
        library.store(sub_id, EncryptedSubscription(predicates=(predicate,)))
    expected = [sub_id for sub_id, case in enumerate(cases) if case[2]]
    assert _reference(library, [_UNIT_PUBLICATION]) == [expected]
    assert library.match(_UNIT_PUBLICATION) == expected
    assert library.match_batch([_UNIT_PUBLICATION] * 2) == [expected] * 2


def _bulk_library(subscriptions, config=None):
    rng = np.random.default_rng(subscriptions)
    vectors = rng.uniform(-1.0, 1.0, (subscriptions, 2, WIDTH))
    library = AspeLibrary(store_config=config or StoreConfig())
    library.store_many(
        (
            sub_id,
            EncryptedSubscription(
                predicates=(
                    EncryptedPredicate("gt", pair[0]),
                    EncryptedPredicate("le", pair[1]),
                )
            ),
        )
        for sub_id, pair in enumerate(vectors)
    )
    return library


def _workspace_bytes(library):
    return sum(buffer.nbytes for buffer in library._ws.values())


def test_workspace_is_bounded_by_batch_times_tile_not_rows():
    batch = 128
    rng = np.random.default_rng(7)
    publications = [
        EncryptedPublication(vector=vector)
        for vector in rng.uniform(-5.0, 5.0, (batch, WIDTH))
    ]
    # Two float and four boolean (batch x tile) buffers.
    bound = batch * (aspe._TILE_ROWS + 1) * (8 + 8 + 1 + 1 + 1 + 1)
    sizes = []
    for subscriptions in (10_000, 30_000):
        library = _bulk_library(subscriptions)
        assert library.store_stats()["rows"] >= 20_000
        library.match_batch(publications)
        assert library.full_pack_count == 0
        sizes.append(_workspace_bytes(library))
        assert sizes[-1] <= bound
    assert sizes[0] == sizes[1], "scratch must not grow with stored rows"


def test_fresh_id_store_extends_the_span_index():
    publications = [_UNIT_PUBLICATION]
    for config in (
        StoreConfig(),
        StoreConfig(backend="chunked", chunk_rows=64),
    ):
        library = _bulk_library(500, config)
        extra = _bulk_library(40).export_state()
        library.match_batch(publications)
        assert library.index_rebuild_count == 1
        for sub_id, subscription in extra.items():
            library.store(10_000 + sub_id, subscription)
            assert library.match_batch(publications) == _reference(
                library, publications
            )
        library.store(20_000, EncryptedSubscription(predicates=()))
        assert 20_000 in library.match(_UNIT_PUBLICATION)
        assert library.index_rebuild_count == 1
        # Overwrite and remove still rebuild.
        library.store(3, extra[0])
        assert library.match_batch(publications) == _reference(
            library, publications
        )
        assert library.index_rebuild_count == 2
        library.remove(4)
        assert library.match_batch(publications) == _reference(
            library, publications
        )
        assert library.index_rebuild_count == 3

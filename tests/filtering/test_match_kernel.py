"""The one decision kernel: tiling, product blocks, bound-then-settle,
gather tables, scratch bound, index upkeep.

`match_packed` decides a span by AND-ing gathers of the per-row decisions,
a tile of rows at a time; inside a tile it compares a product block at a
time against the tile's scalar bound and settles only the blocks that hold
a cell inside the band by the exact per-cell comparison.  The property
below drives it — directly with a private tile size, and through
`AspeLibrary` on the default store (one growing chunk) and on 4-row chunks
— over every shape the gather tables and the blocks must get right, and
compares each (publication, subscription) pair with the sequential
`match_encrypted`.
Constructed cases pin the band edges to the ulp and the defined behaviour
for NaN and infinite inputs.  Two regression tests pin what the rewrites
were for: the scratch buffers are bounded by batch x tile (the float ones
by the product block), and a store under a fresh id extends the span
index instead of rebuilding it.
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
from repro.workloads import ScaleWorkload

from ..stores import on_mmap_store

WIDTH = 6
OP_CODES = ("gt", "ge", "lt", "le")
#: Rows per chunk: the default (every test library fits one chunk, which
#: grows) and 4, which cuts most spans of 5-9 rows at least once.
CHUNK_ROWS = (StoreConfig().chunk_rows, 4)

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


def _band_predicate(rng):
    # Decided by the scalar compares next to ordinary publications, but
    # inside the band (and settled) once a loud one raises the bound.
    return EncryptedPredicate(
        op_code=rng.choice(OP_CODES),
        vector=_boundary_vector(rng.uniform(-1e-6, 1e-6)),
    )


def _subscription(rng, length):
    make = rng.choice(
        (_random_predicate, _random_predicate, _boundary_predicate, _band_predicate)
    )
    return EncryptedSubscription(
        predicates=tuple(make(rng) for _ in range(length))
    )


def _publications(rng, count, loud=False):
    vectors = [
        np.array([rng.uniform(-5.0, 5.0) for _ in range(WIDTH)])
        for _ in range(count)
    ]
    if loud:
        # One norm 10^6 times the others': the bound follows the largest
        # scale, so more of the quiet publications' cells need settling.
        vectors[-1] = vectors[-1] * 1e6
    return [_UNIT_PUBLICATION] + [EncryptedPublication(vector=v) for v in vectors]


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
    st.sampled_from(CHUNK_ROWS),
    st.sampled_from((1, 3, 7, "rows", "beyond")),
    st.sampled_from((1, 3, 7, "tile", "beyond")),
    st.booleans(),
    st.integers(0, 2**31),
)
@settings(max_examples=160, deadline=None)
def test_kernel_agrees_with_match_encrypted(
    sequence, chunk_rows, tile, block, loud, seed
):
    rng = random.Random(seed)
    library = AspeLibrary(store_config=StoreConfig(chunk_rows=chunk_rows))
    publications = _publications(rng, 3, loud)

    def check():
        rows = library.store_stats()["rows"]
        tile_rows = {"rows": max(rows, 1), "beyond": rows + 5}.get(tile, tile)
        block_rows = {"tile": tile_rows, "beyond": tile_rows + 5}.get(block, block)
        expected = _reference(library, publications)
        # The block constant counts cells: rows of a full batch here, and
        # len(publications) times as many rows for a single publication.
        with mock.patch.object(aspe, "_TILE_ROWS", tile_rows), mock.patch.object(
            aspe, "_BLOCK_CELLS", block_rows * len(publications)
        ):
            # Tiles are cached per index; drop it so this tile size is used.
            library._index = None
            assert library.match_batch(publications) == expected
            assert [library.match(p) for p in publications] == expected
            ids, positions, starts, stops = library._span_index().view
            if starts.size == 0:
                return
            store = library._chunks
            matrix = np.empty((store.rows, store.width))
            strict = np.empty(store.rows, dtype=np.bool_)
            tol_signed = np.empty(store.rows)
            store.copy_rows(
                0, store.rows, matrix=matrix, strict=strict, tol_signed=tol_signed
            )
            ok = match_packed(
                matrix,
                strict,
                tol_signed,
                starts,
                stops,
                np.stack([p.vector for p in publications]),
                lambda name, shape, dtype: np.empty(shape, dtype=dtype),
                _tile_rows=tile_rows,
            )
        assert ok.shape == (starts.size, len(publications))
        for column, matched in enumerate(expected):
            for row, position in enumerate(positions):
                assert ok[row, column] == (ids[position] in matched)

    # Up to 24 stores of 9 rows can tombstone past the 64-row compaction
    # floor; raise it so every gap survives.
    with mock.patch.object(aspe, "_COMPACT_MIN_DEAD", 1 << 30):
        for op, sub_id, length in sequence:
            if op == "store":
                library.store(sub_id, _subscription(rng, length))
            elif op == "remove":
                if sub_id in library.export_state():
                    library.remove(sub_id)
            else:
                check()
    check()
    assert library.compaction_count == 0


def test_exact_boundary_products_decide_like_the_reference(store_config):
    # product == +threshold: only the non-strict `le` holds among (gt, le);
    # product == -threshold: only the non-strict `ge` among (ge, lt).
    library = AspeLibrary(store_config)
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


#: Stored beside the boundary rows so that the tile's largest tolerance is
#: known without them: its norm is exactly 5, every boundary vector's is
#: about 3, and no publication below has a product with it near the band.
_ANCHOR = EncryptedPredicate("gt", np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0]))
#: Scale 2**20 + 1 beside the unit publication's 2: it sets the bound, and
#: its own products with the anchor and boundary vectors are far outside.
_LOUD_PUBLICATION = EncryptedPublication(vector=np.eye(WIDTH)[1] * 2.0**20)
_BOUND = (2.0**20 + 1.0) * (aspe._REL_TOL * 6.0)


def _settled(library, publications):
    """``(match lists, whether the settle step ran)`` of one batch: only the
    settle step asks the workspace for a ``thresholds`` buffer."""
    library._ws.pop("thresholds", None)
    matched = library.match_batch(publications)
    return matched, "thresholds" in library._ws


def test_band_edges_and_thresholds_inside_it_settle_exactly():
    publications = [_UNIT_PUBLICATION, _LOUD_PUBLICATION]
    inside = np.nextafter(_BOUND, 0.0)
    outside = np.nextafter(_BOUND, 1.0)
    edge_cases = [(p, True) for p in (_BOUND, -_BOUND, inside, -inside)]
    edge_cases += [(outside, False), (-outside, False)]
    # The unit publication's own threshold, well inside the loud bound.
    edge_cases += [
        (sign * first, True)
        for sign in (1.0, -1.0)
        for first in (
            _THRESHOLD,
            np.nextafter(_THRESHOLD, 1.0),
            np.nextafter(_THRESHOLD, 0.0),
        )
    ]
    for chunk_rows in CHUNK_ROWS:
        for op_code in OP_CODES:
            for first, in_band in edge_cases:
                library = AspeLibrary(
                    store_config=StoreConfig(chunk_rows=chunk_rows)
                )
                library.store(0, EncryptedSubscription(predicates=(_ANCHOR,)))
                predicate = EncryptedPredicate(op_code, _boundary_vector(first))
                library.store(
                    1, EncryptedSubscription(predicates=(_ANCHOR, predicate))
                )
                matched, settled = _settled(library, publications)
                assert matched == _reference(library, publications)
                assert settled == in_band, (op_code, first)
                # Alone, the unit publication's bound is its own threshold
                # times 6/4: the band edges above are far outside it.
                alone, settled = _settled(library, publications[:1])
                assert alone == matched[:1]
                assert settled == (abs(first) < 1e-9), (op_code, first)


def test_plain_workload_never_reaches_the_settle_step():
    source = ScaleWorkload(dimensions=4, matching_rate=0.01, seed=3)
    subscriptions = next(source.subscription_batches(600, batch_size=600))
    publications = source.publications(24)
    for config in (StoreConfig(), StoreConfig(chunk_rows=256)):
        library = AspeLibrary(store_config=config)
        library.store_many(subscriptions)
        matched, settled = _settled(library, publications)
        assert not settled
        assert any(matched)
        assert matched == _reference(library, publications)


def _hostile_vector(rng, value):
    vector = np.array([rng.uniform(-5.0, 5.0) for _ in range(WIDTH)])
    vector[rng.randrange(WIDTH)] = value
    return vector


@np.errstate(all="ignore")
def test_non_finite_inputs_decide_like_the_reference_and_spare_the_rest():
    rng = random.Random(11)
    hostile = (np.nan, np.inf, -np.inf, 1e200)  # 1e200: the norm overflows
    ordinary = _publications(rng, 3)
    mixed_signs = np.zeros(WIDTH)
    mixed_signs[:2] = (np.inf, -np.inf)
    publications = ordinary + [
        EncryptedPublication(vector=vector)
        for vector in [_hostile_vector(rng, v) for v in hostile] + [mixed_signs]
    ]
    rng.shuffle(publications)
    kept = [i for i, p in enumerate(publications) if any(p is q for q in ordinary)]
    ordinary = [publications[i] for i in kept]

    def check(library):
        expected = _reference(library, publications)
        assert library.match_batch(publications) == expected
        assert [library.match(p) for p in publications] == expected
        # The ordinary publications decide as if they were matched alone.
        assert library.match_batch(ordinary) == [expected[i] for i in kept]
        return expected

    for chunk_rows in CHUNK_ROWS:
        library = AspeLibrary(store_config=StoreConfig(chunk_rows=chunk_rows))
        for sub_id in range(12):
            library.store(sub_id, _subscription(rng, rng.randrange(1, 4)))
        expected = check(library)
        # A NaN publication matches no non-empty subscription.
        assert [
            row
            for row, p in zip(expected, publications)
            if np.isnan(p.vector).any()
        ] == [[]]
        assert any(expected[i] for i in kept)
        # Stored rows whose norm is not finite, beside ordinary rows of the
        # same subscription, the same tile and the same 4-row chunk.
        for sub_id, (value, op_code) in enumerate(
            ((v, op) for v in hostile for op in OP_CODES), start=100
        ):
            library.store(
                sub_id,
                EncryptedSubscription(
                    predicates=(
                        _random_predicate(rng),
                        EncryptedPredicate(op_code, _hostile_vector(rng, value)),
                    )
                ),
            )
        check(library)


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
    block_bytes = aspe._BLOCK_CELLS * 8
    sizes = []
    for subscriptions in (10_000, 30_000):
        library = _bulk_library(subscriptions)
        assert library.store_stats()["rows"] >= 20_000
        _, settled = _settled(library, publications)
        assert library.full_pack_count == 0
        floats = [b for b in library._ws.values() if b.dtype == np.float64]
        # The product block and, once the settle step ran, its thresholds:
        # no (batch x tile) float buffer exists.
        assert len(floats) == 1 + settled
        assert all(b.nbytes <= block_bytes for b in floats)
        assert block_bytes < batch * aspe._TILE_ROWS * 8
        booleans = _workspace_bytes(library) - sum(b.nbytes for b in floats)
        assert booleans <= 4 * batch * (aspe._TILE_ROWS + 1)
        extra = library._ws["thresholds"].nbytes if settled else 0
        sizes.append(_workspace_bytes(library) - extra)
    assert sizes[0] == sizes[1], "scratch must not grow with stored rows"


def test_fresh_id_store_extends_the_span_index():
    publications = [_UNIT_PUBLICATION]
    # 24-row tiles: the cached tiles of a block are many, the last one is
    # short, and the appended rows extend it before they start the next.
    for config, tile_rows in (
        (StoreConfig(), aspe._TILE_ROWS),
        (StoreConfig(), 24),
        (StoreConfig(chunk_rows=64), aspe._TILE_ROWS),
        (StoreConfig(chunk_rows=64), 24),
    ):
        with mock.patch.object(aspe, "_TILE_ROWS", tile_rows):
            _check_fresh_id_stores_extend_the_index(config, publications)


def _check_fresh_id_stores_extend_the_index(config, publications):
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


TestOnMmapStore = on_mmap_store(
    test_exact_boundary_products_decide_like_the_reference,
)

"""Unit tests for the chunked / memory-mapped packed-row store."""

import mmap
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import (
    AspeLibrary,
    EncryptedPredicate,
    EncryptedSubscription,
)
from repro.filtering.store import ChunkedMatrixStore, StoreConfig


def make_store(backend="chunked", chunk_rows=4, budget_mb=0.0, spill_dir=None):
    return ChunkedMatrixStore(
        StoreConfig(
            backend=backend,
            chunk_rows=chunk_rows,
            memory_budget_mb=budget_mb,
            spill_dir=spill_dir,
        )
    )


def rows(count, width=3, base=0.0):
    matrix = (
        np.arange(count * width, dtype=np.float64).reshape(count, width) + base
    )
    strict = (np.arange(count) % 2).astype(bool)
    tol_base = np.arange(count, dtype=np.float64) + base
    tol_signed = -tol_base
    return matrix, strict, tol_base, tol_signed


def contents(store):
    """Concatenated (matrix, strict, tol_base, tol_signed, alive)."""
    parts = list(store.blocks())
    if not parts:
        return None
    return (
        np.concatenate([b.matrix for b in parts]),
        np.concatenate([b.strict for b in parts]),
        np.concatenate([b.tol_base for b in parts]),
        np.concatenate([b.tol_signed for b in parts]),
        np.concatenate([b.alive for b in parts]),
    )


@pytest.mark.parametrize("backend", ["chunked", "mmap"])
def test_append_spans_and_blocks_roundtrip(backend, tmp_path):
    store = make_store(backend, chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(6)
    assert store.append(m, s, tb, ts) == (0, 6)
    m2, s2, tb2, ts2 = rows(3, base=100.0)
    assert store.append(m2, s2, tb2, ts2) == (6, 9)
    assert store.rows == 9
    assert store.chunk_count == 3  # 4 + 4 + 1
    got = contents(store)
    np.testing.assert_array_equal(got[0], np.concatenate([m, m2]))
    np.testing.assert_array_equal(got[1], np.concatenate([s, s2]))
    np.testing.assert_array_equal(got[2], np.concatenate([tb, tb2]))
    np.testing.assert_array_equal(got[3], np.concatenate([ts, ts2]))
    assert got[4].all()
    # Blocks tile [0, rows) without gaps.
    spans = [(b.start, b.stop) for b in store.blocks()]
    assert spans[0][0] == 0 and spans[-1][1] == 9
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_width_mismatch_rejected():
    store = make_store()
    store.append(*rows(2, width=3))
    with pytest.raises(ValueError, match="width"):
        store.append(*rows(2, width=5))


def test_mark_dead_touches_only_flags():
    store = make_store(chunk_rows=4)
    m, s, tb, ts = rows(10)
    store.append(m, s, tb, ts)
    store.mark_dead(3, 7)  # crosses the first chunk boundary
    assert store.dead_rows == 4
    got = contents(store)
    np.testing.assert_array_equal(got[0], m)  # row data untouched
    expected_alive = np.ones(10, dtype=bool)
    expected_alive[3:7] = False
    np.testing.assert_array_equal(got[4], expected_alive)


@pytest.mark.parametrize("backend", ["chunked", "mmap"])
def test_compact_preserves_live_order_and_remaps(backend, tmp_path):
    store = make_store(backend, chunk_rows=4, spill_dir=str(tmp_path))
    m, s, tb, ts = rows(12)
    store.append(m, s, tb, ts)
    store.mark_dead(0, 4)  # whole first chunk dies
    store.mark_dead(5, 7)
    offsets = store.compact()
    assert store.rows == 6
    assert store.dead_rows == 0
    keep = np.array([4, 7, 8, 9, 10, 11])
    got = contents(store)
    np.testing.assert_array_equal(got[0], m[keep])
    assert got[4].all()
    # The returned prefix sums remap old span boundaries: b -> offsets[b].
    assert offsets.shape == (13,)
    assert offsets[4] == 0 and offsets[5] == 1 and offsets[12] == 6
    # The all-dead chunk was dropped outright.
    assert store.chunk_count == 2


#: Small enough that a tail chunk reaches it in two doublings (64 → 128 →
#: 200) and that appends of up to three times it stay cheap.
_GROW_ROWS = 200

growth_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 3 * _GROW_ROWS), st.just(0)),
        st.tuples(st.just("dead"), st.integers(0, 999), st.integers(1, 40)),
        st.tuples(st.just("compact"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@given(growth_ops)
@settings(max_examples=80, deadline=None)
def test_grown_ram_store_reads_like_one_bulk_append(sequence):
    """Whatever the append sizes, and with tombstones and compaction in
    between, a RAM store holds the rows one bulk append of them would —
    within the allocation bound of the growth rule."""
    store = make_store(chunk_rows=_GROW_ROWS)
    model = [np.empty((0, 3)), np.empty(0, bool), np.empty(0), np.empty(0),
             np.empty(0, bool)]
    peak_rows = 0
    for op, first, second in sequence:
        if op == "append":
            fresh = rows(first, base=float(store.rows))
            held = [
                (block[2:], [column.copy() for column in block[2:]])
                for block in store.blocks()
            ]
            store.append(*fresh)
            model = [
                np.concatenate(pair)
                for pair in zip(model, (*fresh, np.ones(first, bool)))
            ]
            # A block taken before a growth still reads its rows.
            for columns, copies in held:
                for column, copy in zip(columns, copies):
                    np.testing.assert_array_equal(column, copy)
            peak_rows = max(peak_rows, store.rows)
        elif op == "dead" and store.rows:
            lo = first % store.rows
            hi = min(lo + second, store.rows)
            if model[4][lo:hi].all():
                store.mark_dead(lo, hi)
                model[4][lo:hi] = False
        elif op == "compact":
            store.compact()
            model = [column[model[4]] for column in model]
        assert store.rows == len(model[0])
        assert store.dead_rows == int((~model[4]).sum())
        capacities = [chunk.capacity for chunk in store._chunks]
        assert max(capacities, default=0) <= min(
            _GROW_ROWS, max(64, 2 * peak_rows)
        )
        assert store.resident_bytes == sum(capacities) * (3 + 2) * 8
    bulk = make_store(chunk_rows=_GROW_ROWS)
    bulk.append(*model[:4])
    for row in np.flatnonzero(~model[4]):
        bulk.mark_dead(row, row + 1)
    if store.rows:
        for ours, theirs in zip(contents(store), contents(bulk)):
            np.testing.assert_array_equal(ours, theirs)


def test_tail_chunk_grows_to_chunk_rows_and_no_further():
    store = make_store(chunk_rows=1000)
    m, s, tb, ts = rows(1500)
    store.append(m[:10], s[:10], tb[:10], ts[:10])
    held = next(iter(store.blocks()))
    capacities = [store._chunks[0].capacity]
    for lo in range(10, 1500, 10):
        hi = lo + 10
        store.append(m[lo:hi], s[lo:hi], tb[lo:hi], ts[lo:hi])
        if store._chunks[0].capacity != capacities[-1]:
            capacities.append(store._chunks[0].capacity)
    assert capacities == [64, 128, 256, 512, 1000]
    assert [chunk.capacity for chunk in store._chunks] == [1000, 512]
    assert not np.shares_memory(held.matrix, store._chunks[0].matrix)
    np.testing.assert_array_equal(held.matrix, m[:10])
    np.testing.assert_array_equal(contents(store)[0], m)
    # One bulk append allocates what it is about to write, twice over.
    bulk = make_store(chunk_rows=1000)
    bulk.append(m[:300], s[:300], tb[:300], ts[:300])
    assert bulk._chunks[0].capacity == 600


def test_small_library_holds_rows_not_a_chunk():
    """The deterministic stand-in for the `pipeline_burst` RSS measurement:
    50 subscriptions cost 128 rows' worth, not a 65 536-row chunk."""
    library = AspeLibrary(store_config=StoreConfig())
    width = 7
    for sub_id in range(50):
        library.store(
            sub_id,
            EncryptedSubscription(
                predicates=(
                    EncryptedPredicate("gt", np.full(width, 1.0 + sub_id)),
                    EncryptedPredicate("le", np.full(width, 2.0 + sub_id)),
                )
            ),
        )
    stats = library.store_stats()
    assert stats["rows"] == 100 and stats["chunks"] == 1
    assert stats["resident_bytes"] <= 128 * (width + 2) * 8
    assert stats["resident_peak_bytes"] == stats["resident_bytes"]


def test_mmap_chunk_is_created_at_full_capacity(tmp_path):
    store = make_store("mmap", chunk_rows=4096, spill_dir=str(tmp_path))
    store.append(*rows(1))
    (chunk,) = store._chunks
    assert chunk.capacity == 4096
    assert os.path.getsize(chunk.path) == chunk.nbytes == 4096 * (3 + 2) * 8


def test_mmap_eviction_respects_budget_and_refaults(tmp_path):
    # chunk = 4 rows x 5 cols x 8 B = 160 B; budget of 400 B holds 2.
    store = make_store("mmap", chunk_rows=4, budget_mb=400 / (1024 * 1024),
                       spill_dir=str(tmp_path))
    m, s, tb, ts = rows(16)
    store.append(m, s, tb, ts)
    assert store.chunk_count == 4
    assert store.resident_chunks <= 2
    assert store.eviction_count > 0
    before = store.fault_count
    got = contents(store)  # streams every chunk, faulting evicted ones in
    np.testing.assert_array_equal(got[0], m)
    assert store.fault_count > before
    assert store.resident_bytes <= 400
    # A freshly appended chunk is tracked before the next eviction pass,
    # so the peak may overshoot the budget by at most one chunk.
    assert store.resident_peak_bytes <= 2 * 160 + 160
    stats = store.stats()
    assert stats["backend"] == "mmap"
    assert stats["faults"] == store.fault_count


def test_budget_below_one_chunk_never_evicts_touched_chunk(tmp_path):
    store = make_store("mmap", chunk_rows=4, budget_mb=1 / (1024 * 1024),
                       spill_dir=str(tmp_path))
    m, s, tb, ts = rows(9)
    store.append(m, s, tb, ts)
    got = contents(store)
    np.testing.assert_array_equal(got[0], m)
    # The chunk being read is pinned; the floor is one resident chunk.
    assert store.resident_chunks >= 1


def test_clear_unlinks_spill_files(tmp_path):
    store = make_store("mmap", chunk_rows=4, spill_dir=str(tmp_path))
    store.append(*rows(10))
    paths = [chunk.path for chunk in store._chunks]
    assert all(os.path.exists(p) for p in paths)
    store.clear()
    assert store.rows == 0 and store.chunk_count == 0
    assert store.resident_bytes == 0
    assert not any(os.path.exists(p) for p in paths)


def test_config_validation():
    with pytest.raises(ValueError):
        StoreConfig(chunk_rows=0)
    with pytest.raises(ValueError):
        StoreConfig(memory_budget_mb=-1)


def test_mmap_backend_needs_madvise(monkeypatch):
    monkeypatch.delattr(mmap, "MADV_DONTNEED", raising=False)
    with pytest.raises(ValueError, match="MADV_DONTNEED"):
        StoreConfig(backend="mmap")
    assert StoreConfig(backend="chunked").backend == "chunked"


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self"
)


def tight_store(tmp_path):
    """An mmap store that releases every chunk but the one being touched."""
    return make_store("mmap", chunk_rows=4, budget_mb=1e-5,
                      spill_dir=str(tmp_path))


@linux_only
def test_released_rows_read_back_without_a_flush(tmp_path):
    store = tight_store(tmp_path)
    m, s, tb, ts = rows(10)
    store.append(m[:2], s[:2], tb[:2], ts[:2])  # a partly filled chunk ...
    held = next(iter(store.blocks()))
    store.append(m[2:], s[2:], tb[2:], ts[2:])  # ... topped up, then released
    assert store.resident_chunks == 1 and store.eviction_count == 2
    # A view handed out before its chunk was released still reads true.
    np.testing.assert_array_equal(held.matrix, m[:2])
    np.testing.assert_array_equal(held.tol_signed, ts[:2])
    for expected, got in zip((m, s, tb, ts), contents(store)):
        np.testing.assert_array_equal(got, expected)


_RESIDENCY_SCRIPT = """
import gc, os, sys
import numpy as np
from repro.filtering.store import ChunkedMatrixStore, StoreConfig

def rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

ROWS, WIDTH, CHUNKS = 8192, 6, 64          # 512 KiB a chunk, 32 MiB in all
store = ChunkedMatrixStore(StoreConfig(
    backend="mmap", chunk_rows=ROWS, memory_budget_mb=2.0,
    spill_dir=sys.argv[1]))
block = np.arange(ROWS * WIDTH, dtype=np.float64).reshape(ROWS, WIDTH)
column = np.arange(ROWS, dtype=np.float64)
strict = np.zeros(ROWS, dtype=bool)
before = rss()
peak = 0
for index in range(CHUNKS):
    store.append(block + index, strict, column + index, column - index)
    peak = max(peak, rss())
for _ in range(2):
    for index, part in enumerate(store.blocks()):
        assert part.matrix[-1, -1] == block[-1, -1] + index
        assert part.tol_base.sum() == column.sum() + ROWS * index
        assert part.tol_signed[0] == -index
        peak = max(peak, rss())
assert store.stats()["faults"] == 2 * CHUNKS
directory = store._dir
assert len(os.listdir(directory)) == CHUNKS
store.clear()
del store, part
gc.collect()
with open("/proc/self/maps") as maps:
    mapped = sum(directory in line for line in maps)
for descriptor in os.listdir("/proc/self/fd"):
    try:
        mapped += directory in os.readlink("/proc/self/fd/" + descriptor)
    except OSError:  # the listing's own descriptor
        pass
print(peak - before, mapped, int(os.path.exists(directory)), os.listdir(sys.argv[1]))
"""


@linux_only
def test_budget_bounds_process_rss_and_nothing_is_left(tmp_path):
    # In a subprocess: VmRSS of a fresh interpreter is not muddied by what
    # earlier tests left in the allocator.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", _RESIDENCY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split(maxsplit=3)
    growth, mapped, directory_left = (int(field) for field in out[:3])
    chunk = 8192 * (6 + 2) * 8
    # Budget + the chunk being touched + 4 MiB for the interpreter's own
    # growth (the append temporaries, allocator arenas) — a store that did
    # not release would grow by all 32 MiB.
    assert growth <= 2 * 2**20 + chunk + 4 * 2**20, growth
    assert mapped == 0 and directory_left == 0
    assert out[3].strip() == "[]"

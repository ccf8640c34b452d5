"""Out-of-core ASPE store at 1M+ subscriptions (DESIGN.md §8).

``test_outofcore_million_subscriptions`` is the acceptance run.  A
bulk-encrypted workload (1M subscriptions at ``REPRO_BENCH_SCALE=1``) is
loaded twice into an :class:`AspeLibrary`: once on the default in-RAM
store and once on the ``mmap`` backend with a resident budget of 25% of
the packed rows' footprint (``rows × row bytes``).  The mmap run must
produce byte-identical match lists and stay under its residency budget.
Its matching throughput against the in-RAM run is reported and exported,
not gated: the ratio flips on host noise, and a faster kernel lowers it;
wall-clock claims belong to perfbench's alternating pairs.

Results are exported to ``BENCH_outofcore.json`` (override with
``REPRO_BENCH_OUTOFCORE_OUT``), including peak-RSS/residency records, a
throughput-vs-budget curve and one reported, ungated row —
``many_chunks_vs_one``: 4 096-row RAM chunks against the default store's
one chunk per 65 536 rows on the same subscriptions, at batch sizes 1, 6,
18 and 120, which is what the per-chunk cost of a match call looks like
from outside — for the CI workflow to archive.
"""

import math
import os
import time

from repro.filtering import AspeLibrary, StoreConfig
from repro.metrics import write_json
from repro.workloads import ScaleWorkload

from conftest import bench_scale, memory_snapshot, peak_rss_bytes

SEED = 20140630
DIMENSIONS = 4
MATCHING_RATE = 0.001
PUBLICATIONS = 32
MATCH_BATCH = 8
BUDGET_FRACTION = 0.25
CURVE_FRACTIONS = (0.1, 0.25, 0.5, 1.0)
#: Batch sizes of the many-chunks-vs-one row: a single publication, a
#: small and a typical M-slice batch in the perfbench workloads, and a
#: nearly full one.
CHUNK_BATCHES = (1, 6, 18, 120)
#: Bytes of one packed row's float64 data: the ciphertext (DIMENSIONS + 3
#: wide) and its two tolerance columns.
ROW_BYTES = (DIMENSIONS + 3 + 2) * 8

RESULTS = {}


def _subscription_count() -> int:
    return max(20_000, int(round(1_000_000 * bench_scale())))


def _chunk_rows(rows: int) -> int:
    """~32 chunks whatever the scale (65536 rows/chunk at 1M subs)."""
    return min(65_536, max(1_024, rows // 32))


def _load(library, workload_seed: int, count: int) -> float:
    workload = ScaleWorkload(
        dimensions=DIMENSIONS,
        matching_rate=MATCHING_RATE,
        seed=workload_seed,
    )
    start = time.perf_counter()
    workload.load(library, count, batch_size=50_000)
    return time.perf_counter() - start


def _publications(workload_seed: int, count: int):
    # A separate generator instance: publication attributes must not
    # depend on how many subscriptions were drawn before them.
    return ScaleWorkload(
        dimensions=DIMENSIONS, matching_rate=MATCHING_RATE, seed=workload_seed + 7
    ).publications(count)


def _match_all(library, publications):
    """Match in fixed batches; returns (results, match_seconds)."""
    results = []
    elapsed = 0.0
    for start in range(0, len(publications), MATCH_BATCH):
        batch = publications[start : start + MATCH_BATCH]
        begin = time.perf_counter()
        results.extend(library.match_batch(batch))
        elapsed += time.perf_counter() - begin
    return results, elapsed


def test_outofcore_million_subscriptions(report):
    subscriptions = _subscription_count()
    publications = _publications(SEED, PUBLICATIONS)

    # In-RAM baseline on the default store.  The footprint is the packed
    # rows themselves; ``resident_bytes`` would count allocated capacity.
    in_ram = AspeLibrary(store_config=StoreConfig())
    ram_load_s = _load(in_ram, SEED, subscriptions)
    ram_results, ram_match_s = _match_all(in_ram, publications)
    footprint_bytes = in_ram.store_stats()["rows"] * ROW_BYTES
    budget_bytes = int(math.ceil(footprint_bytes * BUDGET_FRACTION))

    # Out-of-core run under the 25% residency budget.  A new chunk is
    # tracked before the eviction pass that makes room for it, so the
    # resident peak may exceed the store's budget by one chunk: leave that
    # chunk's room out of the budget the store is given.
    chunk_rows = _chunk_rows(2 * subscriptions)
    out_of_core = AspeLibrary(
        store_config=StoreConfig(
            backend="mmap",
            chunk_rows=chunk_rows,
            memory_budget_mb=(budget_bytes - chunk_rows * ROW_BYTES) / (1024 * 1024),
        )
    )
    mmap_load_s = _load(out_of_core, SEED, subscriptions)
    mmap_results, mmap_match_s = _match_all(out_of_core, publications)
    stats = out_of_core.store_stats()

    identical = ram_results == mmap_results
    ram_pub_s = PUBLICATIONS / ram_match_s
    mmap_pub_s = PUBLICATIONS / mmap_match_s
    ratio = mmap_pub_s / ram_pub_s
    matches = sum(len(ids) for ids in ram_results)

    RESULTS.update(
        {
            "subscriptions": subscriptions,
            "rows": stats["rows"],
            "footprint_bytes": footprint_bytes,
            "budget_bytes": budget_bytes,
            "resident_peak_bytes": stats["resident_peak_bytes"],
            "faults": stats["faults"],
            "evictions": stats["evictions"],
            "ram_load_s": ram_load_s,
            "mmap_load_s": mmap_load_s,
            "ram_match_pub_s": ram_pub_s,
            "mmap_match_pub_s": mmap_pub_s,
            "throughput_ratio": ratio,
            "match_lists_identical": identical,
            "matches": matches,
        }
    )

    report()
    report(f"Out-of-core ASPE store ({subscriptions:,} subscriptions, "
           f"{stats['rows']:,} packed rows)")
    report(f"  row footprint   : {footprint_bytes / 1e6:10.1f} MB "
           f"(in-RAM load {ram_load_s:6.1f} s)")
    report(f"  mmap budget     : {budget_bytes / 1e6:10.1f} MB "
           f"({BUDGET_FRACTION:.0%} of the rows; load {mmap_load_s:6.1f} s)")
    report(f"  resident peak   : {stats['resident_peak_bytes'] / 1e6:10.1f} MB "
           f"({stats['faults']} faults, {stats['evictions']} evictions)")
    report(f"  in-RAM matching : {ram_pub_s:10.2f} pub/s "
           f"({matches:,} matches over {PUBLICATIONS} publications)")
    report(f"  mmap matching   : {mmap_pub_s:10.2f} pub/s "
           f"({ratio:.2f}x in-RAM; reported, not gated)")
    report(f"  match lists     : "
           + ("byte-identical" if identical else "DIVERGED"))

    assert identical, "mmap match lists diverged from the in-RAM run"
    assert stats["resident_peak_bytes"] <= budget_bytes

    _export_curve(report, subscriptions)


def _many_chunks_vs_one(one, subscriptions: int) -> dict:
    """4 096-row RAM chunks against the default store (``one``: a chunk per
    65 536 rows) on the same subscriptions: best of seven calls per batch
    size."""
    many = AspeLibrary(store_config=StoreConfig(chunk_rows=4096))
    _load(many, SEED + 1, subscriptions)
    batches = []
    for size in CHUNK_BATCHES:
        publications = _publications(SEED + 2, size)
        assert many.match_batch(publications) == one.match_batch(publications)
        seconds = {"one": math.inf, "many": math.inf}
        for _ in range(7):  # alternating, so both see the same host noise
            for name, library in (("one", one), ("many", many)):
                begin = time.perf_counter()
                library.match_batch(publications)
                seconds[name] = min(seconds[name], time.perf_counter() - begin)
        batches.append(
            {
                "batch": size,
                "one_pub_s": size / seconds["one"],
                "many_pub_s": size / seconds["many"],
                "ratio": seconds["one"] / seconds["many"],
            }
        )
    return {
        "subscriptions": subscriptions,
        "chunks": {
            "one": one.store_stats()["chunks"],
            "many": many.store_stats()["chunks"],
        },
        "batches": batches,
    }


def _export_curve(report, subscriptions: int) -> None:
    """Throughput-vs-budget curve at a fixed sub-count, then export."""
    curve_subs = min(subscriptions, 100_000)
    curve_pubs = _publications(SEED + 1, 16)
    in_ram = AspeLibrary(store_config=StoreConfig())
    _load(in_ram, SEED + 1, curve_subs)
    baseline, baseline_s = _match_all(in_ram, curve_pubs)
    footprint_bytes = in_ram.store_stats()["rows"] * ROW_BYTES

    curve = []
    for fraction in CURVE_FRACTIONS:
        library = AspeLibrary(
            store_config=StoreConfig(
                backend="mmap",
                chunk_rows=_chunk_rows(2 * curve_subs),
                memory_budget_mb=footprint_bytes * fraction / (1024 * 1024),
            )
        )
        _load(library, SEED + 1, curve_subs)
        results, match_s = _match_all(library, curve_pubs)
        assert results == baseline
        stats = library.store_stats()
        curve.append(
            {
                "budget_fraction": fraction,
                "pub_per_s": len(curve_pubs) / match_s,
                "relative_throughput": baseline_s / match_s,
                "resident_peak_bytes": stats["resident_peak_bytes"],
                "faults": stats["faults"],
                "evictions": stats["evictions"],
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    RESULTS["curve"] = {"subscriptions": curve_subs, "points": curve}
    RESULTS["many_chunks_vs_one"] = _many_chunks_vs_one(in_ram, curve_subs)

    report(f"  budget curve    ({curve_subs:,} subscriptions):")
    for point in curve:
        report(
            f"    {point['budget_fraction']:4.0%} budget: "
            f"{point['relative_throughput']:5.2f}x in-RAM, "
            f"{point['faults']:5d} faults"
        )
    chunks = RESULTS["many_chunks_vs_one"]["chunks"]
    for row in RESULTS["many_chunks_vs_one"]["batches"]:
        report(
            f"  {chunks['many']} chunks vs {chunks['one']}, batch "
            f"{row['batch']:3d}: {row['many_pub_s']:8.1f} pub/s = "
            f"{row['ratio']:.2f}x ({row['one_pub_s']:.1f} pub/s; reported, "
            f"not gated)"
        )

    path = os.environ.get("REPRO_BENCH_OUTOFCORE_OUT", "BENCH_outofcore.json")
    write_json(
        path,
        {
            "workload": {
                "subscriptions": RESULTS["subscriptions"],
                "publications": PUBLICATIONS,
                "dimensions": DIMENSIONS,
                "matching_rate": MATCHING_RATE,
                "chunk_rows": _chunk_rows(2 * RESULTS["subscriptions"]),
                "budget_fraction": BUDGET_FRACTION,
            },
            "results": dict(RESULTS),
            "acceptance": {
                "match_lists_identical": RESULTS["match_lists_identical"],
                "resident_under_budget": (
                    RESULTS["resident_peak_bytes"] <= RESULTS["budget_bytes"]
                ),
            },
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported        : {path}")

"""Benchmarks of the vectorized ASPE matching kernel (wall-clock).

Three measurements around the packed-matrix kernel (DESIGN.md, "the
matching kernel"):

* single-publication matching vs a seed-style per-pair Python loop
  (``match_encrypted`` over every stored subscription) — the kernel must
  hold a >=5x mean speedup on the standard 20 publications x 2000
  subscriptions workload;
* ``match_batch`` vs sequential ``match`` — one kernel decides both, so
  the time ratio measures call overhead only and is reported, not gated,
  as is the time of one call at the batch sizes the perfbench workloads
  issue (1, 6, 18, 120); asserted instead are the deterministic facts:
  identical decisions, no full repack, float scratch of one product
  block and boolean scratch within the batch x tile bound;
* store/remove churn — incremental maintenance must never trigger a full
  repack (``full_pack_count`` stays 0) and must keep tombstones bounded
  via compaction.

Results are exported to ``BENCH_matching.json`` (override the path with
``REPRO_BENCH_MATCHING_OUT``) for the CI workflow to archive.
"""

import os
import random
import time

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    aspe,
    match_encrypted,
)
from repro.metrics import write_json
from repro.workloads import WorkloadGenerator

from conftest import memory_snapshot

SUBSCRIPTIONS = 2_000
PUBLICATIONS = 20
#: Batch sizes of the reported per-call times: what ``match_100k`` issues.
CALL_BATCHES = (1, 6, 18, 120)
RESULTS = {}


def make_encrypted_workload():
    generator = WorkloadGenerator(dimensions=4, matching_rate=0.01, seed=5)
    cipher = AspeCipher(
        AspeKey.generate(4, rng=random.Random(1)), rng=random.Random(2)
    )
    encrypted_subs = [
        cipher.encrypt_subscription(generator.predicate_set())
        for _ in range(SUBSCRIPTIONS)
    ]
    encrypted_pubs = [
        cipher.encrypt_publication(generator.publication_attributes())
        for _ in range(PUBLICATIONS)
    ]
    return encrypted_subs, encrypted_pubs


def build_library(encrypted_subs):
    library = AspeLibrary()
    for sub_id, encrypted in enumerate(encrypted_subs):
        library.store(sub_id, encrypted)
    return library


def seed_style_match(subs, publication):
    """The seed implementation's shape: one ``match_encrypted`` per pair."""
    return [sub_id for sub_id, enc in subs.items() if match_encrypted(publication, enc)]


def time_mean(fn, rounds):
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def test_single_match_vs_seed_loop(benchmark, report):
    encrypted_subs, encrypted_pubs = make_encrypted_workload()
    library = build_library(encrypted_subs)
    subs = dict(enumerate(encrypted_subs))

    def run_kernel():
        return [library.match(pub) for pub in encrypted_pubs]

    kernel_decisions = benchmark(run_kernel)
    RESULTS["single_mean_s"] = benchmark.stats.stats.mean

    legacy_decisions = [seed_style_match(subs, pub) for pub in encrypted_pubs]
    assert kernel_decisions == legacy_decisions
    RESULTS["legacy_mean_s"] = time_mean(
        lambda: [seed_style_match(subs, pub) for pub in encrypted_pubs], rounds=5
    )
    speedup = RESULTS["legacy_mean_s"] / RESULTS["single_mean_s"]
    RESULTS["single_vs_legacy_speedup"] = speedup
    report()
    report(
        f"ASPE single matching ({PUBLICATIONS} publications x "
        f"{SUBSCRIPTIONS} subscriptions)"
    )
    report(f"  seed-style loop : {RESULTS['legacy_mean_s'] * 1000:8.2f} ms")
    report(f"  packed kernel   : {RESULTS['single_mean_s'] * 1000:8.2f} ms")
    report(f"  speedup         : {speedup:8.1f}x (acceptance floor: 5x)")
    assert speedup >= 5.0


def test_batch_match_vs_single(benchmark, report):
    encrypted_subs, encrypted_pubs = make_encrypted_workload()
    library = build_library(encrypted_subs)

    batch_decisions = benchmark(lambda: library.match_batch(encrypted_pubs))
    RESULTS["batch_mean_s"] = benchmark.stats.stats.mean

    # Bit-identical to the sequential path, per-publication order included.
    assert batch_decisions == [library.match(pub) for pub in encrypted_pubs]
    assert library.full_pack_count == 0
    # One float product block (a plain workload never reaches the settle
    # step and its thresholds) and four boolean buffers of at most (tile
    # + 1) x batch, whatever the number of stored rows.
    workspace_bytes = sum(buffer.nbytes for buffer in library._ws.values())
    RESULTS["workspace_bytes"] = workspace_bytes
    float_bytes = sum(
        buffer.nbytes for buffer in library._ws.values() if buffer.dtype.kind == "f"
    )
    assert float_bytes <= aspe._BLOCK_CELLS * 8
    assert workspace_bytes - float_bytes <= 4 * PUBLICATIONS * (aspe._TILE_ROWS + 1)
    RESULTS["call_ms"] = {}
    for count in CALL_BATCHES:
        batch = [encrypted_pubs[i % PUBLICATIONS] for i in range(count)]
        library.match_batch(batch)
        RESULTS["call_ms"][str(count)] = 1000 * min(
            time_mean(lambda: library.match_batch(batch), rounds=5)
            for _ in range(5)
        )
    if "single_mean_s" in RESULTS:
        ratio = RESULTS["single_mean_s"] / RESULTS["batch_mean_s"]
        RESULTS["batch_vs_single_speedup"] = ratio
        report()
        report(f"ASPE batch matching ({PUBLICATIONS} publications in one call)")
        report(f"  sequential match: {RESULTS['single_mean_s'] * 1000:8.2f} ms")
        report(f"  match_batch     : {RESULTS['batch_mean_s'] * 1000:8.2f} ms")
        report(f"  ratio           : {ratio:8.2f}x (call overhead; not gated)")
        report(f"  scratch buffers : {workspace_bytes / 1e6:8.2f} MB")
    report("  one call (ms)   : " + "  ".join(
        f"B={count} {ms:.3f}" for count, ms in RESULTS["call_ms"].items()
    ) + "  (reported, not gated)")


def test_store_remove_churn(benchmark, report):
    encrypted_subs, encrypted_pubs = make_encrypted_workload()
    rng = random.Random(77)

    def churn():
        library = build_library(encrypted_subs)
        stored = set(range(SUBSCRIPTIONS))
        for _ in range(1_000):
            sub_id = rng.randrange(SUBSCRIPTIONS)
            if sub_id in stored:
                library.remove(sub_id)
                stored.discard(sub_id)
            else:
                library.store(sub_id, encrypted_subs[sub_id])
                stored.add(sub_id)
        return library

    library = benchmark(churn)
    RESULTS["churn_mean_s"] = benchmark.stats.stats.mean
    RESULTS["churn_full_packs"] = library.full_pack_count
    RESULTS["churn_compactions"] = library.compaction_count
    report()
    report(f"ASPE store/remove churn (1000 ops on {SUBSCRIPTIONS} subscriptions)")
    report(f"  build + churn   : {RESULTS['churn_mean_s'] * 1000:8.2f} ms")
    report(f"  full repacks    : {library.full_pack_count} (must stay 0)")
    report(f"  compactions     : {library.compaction_count}")
    # Incremental maintenance: appends and compactions only, never a
    # stored-set-sized repack, and tombstones stay bounded.
    assert library.full_pack_count == 0
    assert library._dead_rows <= max(library._rows - library._dead_rows, 64)
    # Decisions after churn still agree with the per-pair reference
    # (match returns ids in store order, so iterate the exported state).
    subs = dict(library.export_state())
    for pub in encrypted_pubs[:5]:
        assert library.match(pub) == seed_style_match(subs, pub)

    path = os.environ.get("REPRO_BENCH_MATCHING_OUT", "BENCH_matching.json")
    write_json(
        path,
        {
            "workload": {
                "subscriptions": SUBSCRIPTIONS,
                "publications": PUBLICATIONS,
                "dimensions": 4,
            },
            "results": dict(RESULTS),
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported        : {path}")

"""Property test: serial and parallel matching are the same function.

Hypothesis drives arbitrary churn streams — stores, removes (tombstones),
enough removals to trigger compaction, and export/import migrations —
and after every mutation burst checks that the parallel answer equals
the serial ``match_batch`` answer exactly: same subscriber ids, same
per-publication order.  Once through the worker processes (one executor
shared across examples, so examples also meet the segments and metadata
*previous* examples' libraries left behind), and once inline through the
pure chunk → kernel → merge functions alone, which needs no process and
so affords more examples and a finer chunk geometry.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.filtering import AspeLibrary

from .conftest import chunked_match, encrypted_publications, random_filter

SUB_IDS = 24

#: One churn step: (action, subject). Action 0/1 → store, 2 → remove,
#: 3 → migrate (export/import into a fresh library), 4 → compaction
#: pressure (remove half the stored ids).  Stores outweigh removes so
#: libraries keep content to match against.
STEPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(0, SUB_IDS - 1)),
    min_size=4,
    max_size=40,
)


def apply_step(library, stored, pool, step):
    action, subject = step
    if action in (0, 1):
        library.store(subject, pool[subject])
        stored.add(subject)
        return library
    if action == 2:
        if subject in stored:
            library.remove(subject)
            stored.discard(subject)
        return library
    if action == 3:
        clone = AspeLibrary()
        clone.import_state(library.export_state())
        return clone
    for sub_id in sorted(stored)[: len(stored) // 2]:
        library.remove(sub_id)
        stored.discard(sub_id)
    return library


def run_property(cipher, match, steps, seed):
    rng = random.Random(seed)
    pool = {
        i: cipher.encrypt_subscription(random_filter(rng)) for i in range(SUB_IDS)
    }
    library = AspeLibrary()
    stored = set()
    for step in steps:
        library = apply_step(library, stored, pool, step)
        pubs = encrypted_publications(cipher, rng, 3)
        assert match(library, pubs) == library.match_batch(pubs)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=STEPS, seed=st.integers(0, 2**16))
def test_inline_equals_serial_under_churn(cipher, steps, seed):
    run_property(cipher, chunked_match, steps, seed)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=STEPS, seed=st.integers(0, 2**16))
def test_workers_equal_serial_under_churn(cipher, process_executor, steps, seed):
    channel = process_executor.open_channel("P")
    try:
        run_property(
            cipher,
            lambda library, pubs: channel.submit(library, pubs).result(),
            steps,
            seed,
        )
    finally:
        channel.close()

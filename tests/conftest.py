"""Session-wide fixtures: the standing fault plan (RESILIENCE.md §6) and
the default packed-row store.

The ``standing_fault_plan`` fixture below is how the recovery-aware
tests get a scripted background fault schedule: they call ``arm(...)``
against their deployment and get a single host crash plus an optional
partition/heal window, whose victims and timing derive from the
``chaos_seed`` fixture.  That fixture is parametrized, so every test
that arms the plan runs once per seed, deterministically.
"""

import random

import pytest

from repro.cluster import FaultPlan
from repro.filtering import StoreConfig

#: Seeds of the standing plan: 0, the historical default, and two more
#: schedules of the same shape.
CHAOS_SEEDS = (0, 1729, 7)


@pytest.fixture(params=CHAOS_SEEDS)
def chaos_seed(request):
    """The standing plan's seed, one test run per entry of CHAOS_SEEDS."""
    return request.param


@pytest.fixture
def standing_fault_plan(chaos_seed):
    """Factory arming the standing background fault plan on a deployment.

    ``arm(env, cloud=..., hosts=victim_pool)`` scripts a seed-picked
    single-host crash inside ``[crash_window_s)``; passing
    ``partition_with=`` another host group additionally cuts the fabric
    between the victims' group and that group for ``partition_window_s``
    and heals it.  Returns the armed :class:`FaultPlan` so the test can
    assert against ``plan.injected`` afterwards.
    """

    def arm(
        env,
        *,
        cloud,
        hosts,
        detector=None,
        telemetry=None,
        crash_window_s=(0.2, 1.0),
        partition_with=None,
        partition_window_s=(1.5, 3.0),
    ):
        plan = FaultPlan(
            env, cloud=cloud, detector=detector, telemetry=telemetry,
            seed=chaos_seed,
        )
        plan.group("standing", hosts)
        rng = random.Random(chaos_seed)
        lo, hi = crash_window_s
        plan.crash_host_at(lo + rng.random() * (hi - lo))
        if partition_with is not None:
            cut, heal = partition_window_s
            plan.partition_at(cut, "standing", list(partition_with))
            plan.heal_at(heal)
        return plan

    return arm


@pytest.fixture(scope="session")
def store_config():
    """The packed-row store of store-sensitive tests: the default one.
    ``tests/stores.py`` re-runs those tests on a small mmap store."""
    return StoreConfig()

"""The contract of the per-publication records.

Publications, subscriptions, match results, match lists, notifications and
delay samples are built several times per publication, so they are
``NamedTuple``s; each must still read like the frozen record it replaced:
immutable, the same fields in the same order with the same defaults, a
``Name(field=…, …)`` repr, ``_replace`` and pickling.
"""

import pickle

import pytest

from repro.cluster import CloudProvider
from repro.engine import StreamEvent
from repro.engine.instance import SliceInstance
from repro.filtering import (
    BruteForceLibrary,
    ExactBackend,
    MatchResult,
    Op,
    Predicate,
    PredicateSet,
    SampledBackend,
)
from repro.telemetry import DelaySample
from repro.pubsub import (
    HubConfig,
    MatchList,
    Notification,
    Publication,
    StreamHub,
    Subscription,
)
from repro.sim import Environment

#: record → (fields in order, defaults by field, one instance's values).
RECORDS = {
    Publication: (
        ("pub_id", "payload", "published_at"),
        {"payload": None, "published_at": 0.0},
        (7, (0.5, 1.5), 2.25),
    ),
    Subscription: (
        ("sub_id", "subscriber", "filter_payload"),
        {"filter_payload": None},
        (3, 1003, "filter"),
    ),
    MatchResult: (
        ("count", "ids"),
        {"ids": None},
        (2, [4, 9]),
    ),
    MatchList: (
        ("pub_id", "m_slice", "count", "subscriber_ids", "published_at"),
        {},
        (7, 1, 2, (4, 9), 2.25),
    ),
    Notification: (
        ("pub_id", "count", "subscriber_ids", "published_at"),
        {},
        (7, 2, (4, 9), 2.25),
    ),
    DelaySample: (
        ("pub_id", "published_at", "delivered_at", "notifications"),
        {},
        (7, 2.25, 2.5, 2),
    ),
}

each_record = pytest.mark.parametrize(
    "record", list(RECORDS), ids=[record.__name__ for record in RECORDS]
)


def example(record):
    return record(*RECORDS[record][2])


@each_record
def test_fields_and_defaults_are_the_record_s(record):
    names, defaults, _ = RECORDS[record]
    assert record._fields == names
    assert record._field_defaults == defaults
    required = names[: len(names) - len(defaults)]
    built = record(*range(len(required)))
    for name, value in defaults.items():
        assert getattr(built, name) == value


@each_record
def test_attributes_cannot_be_assigned(record):
    instance = example(record)
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(instance, name, 0)
    assert instance == example(record)


@each_record
def test_repr_names_every_field(record):
    names, _, values = RECORDS[record]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(example(record)) == f"{record.__name__}({fields})"


@each_record
def test_replace_changes_one_field(record):
    instance = example(record)
    first = record._fields[0]
    changed = instance._replace(**{first: 99})
    assert type(changed) is record
    assert getattr(changed, first) == 99
    assert changed[1:] == instance[1:]
    assert instance == example(record)


@each_record
def test_pickle_round_trip_is_equal(record):
    instance = example(record)
    restored = pickle.loads(pickle.dumps(instance))
    assert type(restored) is record
    assert restored == instance


@each_record
def test_fast_construction_builds_the_same_record(record):
    # Hot paths build records with ``tuple.__new__(Record, (...))``.
    values = RECORDS[record][2]
    fast = tuple.__new__(record, values)
    assert type(fast) is record
    assert fast == example(record)
    assert repr(fast) == repr(example(record))


def test_delay_sample_keeps_its_delay_property():
    sample = example(DelaySample)
    assert sample.delay == 0.25
    with pytest.raises(AttributeError):
        sample.delay = 1.0


def _whole(record) -> bool:
    """``tuple.__new__`` skips the arity check: a hot path still passing
    an old field tuple would build a short record without an error."""
    return len(record) == len(type(record)._fields) and record == type(record)(
        **record._asdict()
    )


@pytest.mark.parametrize("batch_limit", [1, 8])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_hot_paths_build_whole_records(monkeypatch, exact, batch_limit):
    """Every record the event plane builds — through ``route`` /
    ``route_batch``, the backends' ``match`` / ``match_batch``, M's match
    lists, EP's join and the hub's delay samples — has all its fields."""
    built = []
    for owner, name in (
        (ExactBackend, "match"),
        (ExactBackend, "match_batch"),
        (SampledBackend, "match"),
    ):
        method = owner.__dict__[name]

        def recording(self, *args, _method=method):
            result = _method(self, *args)
            built.extend(result if isinstance(result, list) else [result])
            return result

        monkeypatch.setattr(owner, name, recording)
    deliver = SliceInstance.__dict__["deliver"]

    def delivering(self, event):
        built.extend((event, event.payload))
        return deliver(self, event)

    monkeypatch.setattr(SliceInstance, "deliver", delivering)

    env = Environment()
    cloud = CloudProvider(env)
    limits = dict(
        ap_batch_limit=batch_limit,
        matcher_batch_limit=batch_limit,
        ep_batch_limit=batch_limit,
    )
    if exact:
        config = HubConfig(
            ap_slices=2, m_slices=2, ep_slices=2, sink_slices=1, encrypted=False,
            backend_factory=lambda index: ExactBackend(BruteForceLibrary()),
            **limits,
        )
    else:
        config = HubConfig.sampled(
            0.5, ap_slices=2, m_slices=2, ep_slices=2, sink_slices=1, **limits
        )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on([cloud.provision_now()], [cloud.provision_now()])
    for sub_id in range(6):
        hub.subscribe(Subscription(
            sub_id, 100 + sub_id,
            PredicateSet.of(Predicate(0, Op.GE, float(sub_id))),
        ))
    env.run()
    for pub_id in range(12):
        hub.publish(Publication(pub_id, [float(pub_id % 8), 0.0], env.now))
    env.run()

    built.extend(hub.delay_tracker.samples)
    assert hub.notified_publications == 12
    records = [record for record in built if hasattr(type(record), "_fields")]
    assert {type(record) for record in records} >= {
        StreamEvent, Publication, Subscription, MatchResult, MatchList,
        Notification, DelaySample,
    }
    assert all(_whole(record) for record in records)

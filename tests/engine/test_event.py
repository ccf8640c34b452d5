"""What callers rely on from :class:`StreamEvent`, whatever it is built on."""

import pytest

from repro.engine import StreamEvent


def make(**overrides):
    fields = dict(kind="publication", payload={"p": 1}, source="AP:0", seq=7,
                  size_bytes=512, sent_at=1.5)
    fields.update(overrides)
    return StreamEvent(**fields)


def test_fields_in_positional_order_and_replayed_defaults_to_false():
    event = StreamEvent("publication", "payload", "AP:0", 7, 512, 1.5)
    assert (event.kind, event.payload, event.source) == ("publication", "payload", "AP:0")
    assert (event.seq, event.size_bytes, event.sent_at) == (7, 512, 1.5)
    assert event.replayed is False
    assert make(replayed=True).replayed is True


def test_events_are_immutable():
    event = make()
    for name in ("kind", "payload", "source", "seq", "size_bytes", "sent_at", "replayed"):
        with pytest.raises(AttributeError):
            setattr(event, name, None)
    with pytest.raises(AttributeError):
        event.ad_hoc_attribute = 1


def test_replace_changes_only_the_named_field():
    event = make()
    replayed = event._replace(replayed=True)
    assert replayed is not event and event.replayed is False
    assert replayed.replayed is True
    assert replayed.payload is event.payload
    for name in ("kind", "source", "seq", "size_bytes", "sent_at"):
        assert getattr(replayed, name) == getattr(event, name)


def test_repr_names_kind_sequence_source_and_replay():
    assert repr(make()) == "<publication #7 from AP:0>"
    assert repr(make(replayed=True)) == "<publication #7 from AP:0 replayed>"

"""TransportConfig validation and flag resolution."""

from dataclasses import fields

import pytest

from repro.config import from_flags
from repro.transport import FLUSH_MODES, TransportConfig


class TestTransportConfig:
    def test_defaults_are_the_seed_behaviour(self):
        config = TransportConfig()
        assert config.flush_mode == "eager"

    @pytest.mark.parametrize("kwargs", [
        dict(flush_mode="sometimes"),
        dict(flush_s=-0.1),
        dict(flush_max_batch=0),
        dict(flush_max_batch=-3),
        dict(flush_mode="EAGER"),
        dict(flush_mode=""),
        dict(flush_s=-1e-9),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    @pytest.mark.parametrize("mode", FLUSH_MODES)
    def test_every_mode_accepts_the_edge_values(self, mode):
        config = TransportConfig(flush_mode=mode, flush_s=0.0, flush_max_batch=1)
        assert (config.flush_mode, config.flush_s, config.flush_max_batch) == (
            mode, 0.0, 1,
        )

    def test_the_three_fields_are_the_whole_config(self):
        assert [field.name for field in fields(TransportConfig)] == [
            "flush_mode", "flush_s", "flush_max_batch",
        ]

    def test_flags_win_and_none_is_ignored(self):
        config = from_flags(
            TransportConfig, flush_mode="adaptive", flush_max_batch=4, flush_s=None
        )
        assert config == TransportConfig(flush_mode="adaptive", flush_max_batch=4)
        with pytest.raises(TypeError):
            from_flags(TransportConfig, no_such_knob=1)

    def test_flags_reject_unknown_mode(self):
        with pytest.raises(ValueError, match="flush_mode"):
            from_flags(TransportConfig, flush_mode="lazy")

    def test_flush_modes_tuple_is_stable(self):
        assert FLUSH_MODES == ("eager", "fixed", "adaptive")

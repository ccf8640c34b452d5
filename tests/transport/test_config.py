"""TransportConfig validation and the shared REPRO_* env helpers."""

from dataclasses import fields

import pytest

from repro.config import env_bool, env_float, env_int, env_str
from repro.transport import FLUSH_MODES, TransportConfig


class TestEnvHelpers:
    def test_unset_keeps_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        assert env_float("REPRO_TEST_KNOB", 0.5) == 0.5
        assert env_bool("REPRO_TEST_KNOB", True) is True
        assert env_str("REPRO_TEST_KNOB", "dft") == "dft"

    def test_blank_keeps_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        assert env_bool("REPRO_TEST_KNOB", False) is False

    def test_parses_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", " 42 ")
        assert env_int("REPRO_TEST_KNOB", 0) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert env_float("REPRO_TEST_KNOB", 0.0) == 0.25

    @pytest.mark.parametrize("spelling,expected", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_bool_spellings(self, monkeypatch, spelling, expected):
        monkeypatch.setenv("REPRO_TEST_KNOB", spelling)
        assert env_bool("REPRO_TEST_KNOB", not expected) is expected

    @pytest.mark.parametrize("helper,bad", [
        (env_int, "three"), (env_float, "fast"), (env_bool, "maybe"),
    ])
    def test_malformed_names_the_variable(self, monkeypatch, helper, bad):
        monkeypatch.setenv("REPRO_TEST_KNOB", bad)
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            helper("REPRO_TEST_KNOB", 1)

    def test_str_choices_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "bogus")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            env_str("REPRO_TEST_KNOB", "a", choices=("a", "b"))
        monkeypatch.setenv("REPRO_TEST_KNOB", "b")
        assert env_str("REPRO_TEST_KNOB", "a", choices=("a", "b")) == "b"


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

    def test_from_env_overrides_win_and_none_is_ignored(self):
        config = TransportConfig.from_env(
            flush_mode="adaptive", flush_max_batch=4, flush_s=None
        )
        assert config == TransportConfig(flush_mode="adaptive", flush_max_batch=4)
        with pytest.raises(TypeError):
            TransportConfig.from_env(no_such_knob=1)

    def test_from_env_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="flush_mode"):
            TransportConfig.from_env(flush_mode="lazy")

    def test_flush_modes_tuple_is_stable(self):
        assert FLUSH_MODES == ("eager", "fixed", "adaptive")

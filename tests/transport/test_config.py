"""TransportConfig validation and the shared REPRO_* env helpers."""

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
        assert not config.backpressure

    @pytest.mark.parametrize("kwargs", [
        dict(flush_mode="sometimes"),
        dict(flush_s=-0.1),
        dict(flush_max_batch=0),
        dict(credit_window=0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    def test_from_env_reads_the_declared_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_BACKPRESSURE", "yes")
        monkeypatch.setenv("REPRO_NET_CREDIT_WINDOW", "12")
        assert TransportConfig.from_env() == TransportConfig(
            backpressure=True, credit_window=12
        )

    def test_from_env_overrides_win_and_none_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_BACKPRESSURE", "1")
        monkeypatch.setenv("REPRO_NET_CREDIT_WINDOW", "16")
        config = TransportConfig.from_env(
            flush_mode="adaptive", credit_window=4, flush_s=None
        )
        assert config == TransportConfig(
            flush_mode="adaptive", backpressure=True, credit_window=4
        )
        with pytest.raises(TypeError):
            TransportConfig.from_env(no_such_knob=1)

    def test_from_env_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="flush_mode"):
            TransportConfig.from_env(flush_mode="lazy")

    def test_flush_modes_tuple_is_stable(self):
        assert FLUSH_MODES == ("eager", "fixed", "adaptive")

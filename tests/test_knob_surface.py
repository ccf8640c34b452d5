"""The knob surface: one dataclass field per knob, everything else derived.

Parametrised over ``dataclasses.fields`` of the three knob groups, never
over a hand list: a new field is covered the moment it is declared, and a
new ``REPRO_*`` spelling anywhere in ``src/``, the docs or the CI
workflow fails here until it is a field's ``env`` entry.  A field no
caller in ``src/``, ``benchmarks/`` or ``perfbench/`` sets fails too: a
value nothing changes is a constant, not a knob.
"""

import argparse
import ast
import dataclasses
import pathlib
import re

import pytest

from repro.cli import build_parser, main
from repro.config import add_flags, flag_overrides, from_env, provenance
from repro.elastic import ElasticityPolicy
from repro.filtering import StoreConfig
from repro.pubsub import HubConfig
from repro.transport import TransportConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: (knob group, CLI flag prefix, a subcommand carrying its flags).  No
#: subcommand builds an exact matching backend, so none carries the store
#: flags; their derivation is checked on a throwaway parser only.
GROUPS = [
    (ElasticityPolicy, "", "policy"),
    (StoreConfig, "store_", None),
    (TransportConfig, "net_", "trace"),
]
FIELDS = [
    (cls, prefix, command, field)
    for cls, prefix, command in GROUPS
    for field in dataclasses.fields(cls)
]


def params(fields):
    return [
        pytest.param(*row, id=f"{row[0].__name__}.{row[3].name}") for row in fields
    ]


KNOBS = params(FIELDS)
ENV_KNOBS = params(row for row in FIELDS if "env" in row[3].metadata)
#: Groups with a field that declares a variable: exactly these read the
#: environment through a ``from_env`` classmethod.
ENV_GROUPS = {cls for cls, *_, field in FIELDS if "env" in field.metadata}

#: Variables read outside the three groups (the chaos leg's fault-plan
#: seed).
UNGROUPED = {"REPRO_CHAOS_SEED"}
DECLARED = UNGROUPED | {
    field.metadata["env"] for *_, field in FIELDS if "env" in field.metadata
}

FULL_NAME = re.compile(r"REPRO_[A-Z0-9]+(?:_[A-Z0-9]+)+")


def other_value(field):
    """A valid value of the field's type that is not its default."""
    default = field.default
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default + 0.01
    choices = field.metadata.get("choices")
    if choices:
        return next(choice for choice in choices if choice != default)
    return "/tmp/knob-surface"


def flag_argv(prefix, field, value):
    flag = (prefix + field.name).replace("_", "-")
    if isinstance(value, bool):
        return [f"--{flag}" if value else f"--no-{flag}"]
    return [f"--{flag}", str(value)]


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in DECLARED:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("cls,prefix,command,field", KNOBS)
class TestEveryField:
    def test_one_flag_round_trips_through_flag_overrides(
        self, cls, prefix, command, field
    ):
        parser = argparse.ArgumentParser()
        add_flags(parser, cls, prefix)  # a duplicate flag would raise here
        value = other_value(field)
        overrides = flag_overrides(
            parser.parse_args(flag_argv(prefix, field, value)), cls, prefix
        )
        assert overrides.pop(field.name) == value
        assert set(overrides.values()) == {None}
        assert getattr(from_env(cls, **overrides, **{field.name: value}),
                       field.name) == value

    def test_the_cli_carries_the_flag(self, cls, prefix, command, field):
        value = other_value(field)
        if command is None:
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["trace"] + flag_argv(prefix, field, value)
                )
            return
        args = build_parser().parse_args(
            [command] + flag_argv(prefix, field, value)
        )
        assert flag_overrides(args, cls, prefix)[field.name] == value

    def test_unset_is_the_default_with_a_provenance_row(
        self, cls, prefix, command, field
    ):
        assert getattr(from_env(cls), field.name) == field.default
        assert getattr(cls(), field.name) == field.default
        rows = {name: (value, source) for name, value, source in provenance(cls)}
        assert rows[field.name] == (field.default, "default")

    def test_override_is_reported_as_cli(self, cls, prefix, command, field):
        value = other_value(field)
        rows = {
            name: (shown, source)
            for name, shown, source in provenance(cls, **{field.name: value})
        }
        assert rows[field.name] == (value, "cli")


@pytest.mark.parametrize("cls,prefix,command,field", ENV_KNOBS)
class TestEveryEnvKnob:
    def test_flag_beats_env_beats_default(
        self, monkeypatch, cls, prefix, command, field
    ):
        value = other_value(field)
        variable = field.metadata["env"]
        monkeypatch.setenv(variable, str(value))
        assert getattr(from_env(cls), field.name) == value
        rows = {name: source for name, _, source in provenance(cls)}
        assert rows[field.name] == f"env:{variable}"
        # None is an unset flag: the environment still shows through.
        assert getattr(from_env(cls, **{field.name: None}), field.name) == value
        # An explicit flag wins, even when it restores the default.
        if field.default is not None:
            resolved = from_env(cls, **{field.name: field.default})
            assert getattr(resolved, field.name) == field.default
        # A directly constructed group never reads the environment.
        assert getattr(cls(), field.name) == field.default

    def test_blank_variable_keeps_the_default(
        self, monkeypatch, cls, prefix, command, field
    ):
        monkeypatch.setenv(field.metadata["env"], "   ")
        assert getattr(from_env(cls), field.name) == field.default

    def test_malformed_value_names_the_variable(
        self, monkeypatch, cls, prefix, command, field
    ):
        if isinstance(field.default, (bool, int, float)):
            bad = "maybe"
        elif "choices" in field.metadata:
            bad = "bogus"
        else:
            pytest.skip("a free-form string has no malformed value")
        variable = field.metadata["env"]
        monkeypatch.setenv(variable, bad)
        with pytest.raises(ValueError, match=variable):
            from_env(cls)
        # Precedence first, validation after: the flag hides the bad value.
        value = other_value(field)
        assert getattr(from_env(cls, **{field.name: value}), field.name) == value


@pytest.mark.parametrize("cls", [cls for cls, _, _ in GROUPS])
class TestEveryGroup:
    def test_unknown_override_is_a_type_error(self, cls):
        with pytest.raises(TypeError, match="not_a_knob"):
            from_env(cls, not_a_knob=1)
        if cls in ENV_GROUPS:
            with pytest.raises(TypeError):
                cls.from_env(not_a_knob=1)

    def test_provenance_has_one_row_per_field(self, cls):
        rows = provenance(cls)
        assert [name for name, _, _ in rows] == [
            field.name for field in dataclasses.fields(cls)
        ]
        assert {source for _, _, source in rows} == {"default"}

    def test_classmethod_is_the_derivation(self, cls):
        assert from_env(cls) == cls()
        if cls in ENV_GROUPS:
            assert cls.from_env() == from_env(cls)
        else:
            assert not hasattr(cls, "from_env")


@pytest.mark.parametrize("spelling,expected", [
    ("yes", True), ("On", True), ("0", False), ("FALSE", False),
])
def test_bool_knob_spellings(monkeypatch, spelling, expected):
    monkeypatch.setenv("REPRO_POLICY_SLO_VETO", spelling)
    assert ElasticityPolicy.from_env().slo_veto is expected


def test_invalid_resolved_group_fails_validation(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_SLO_VETO", "1")
    with pytest.raises(ValueError, match="REPRO_POLICY_SLO_VETO"):
        ElasticityPolicy.from_env(slo_p99_s=0.0)
    with pytest.raises(ValueError, match="thresholds"):
        ElasticityPolicy.from_env(scale_in_threshold=0.9)


class TestPrecedenceBugsOfTheHandCopies:
    """Each of these fails at the parent commit."""

    def test_flag_is_applied_before_the_environment_is_validated(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_CHUNK_ROWS", "0")
        with pytest.raises(ValueError, match="store_chunk_rows"):
            StoreConfig.from_env()
        assert StoreConfig.from_env(chunk_rows=4096).chunk_rows == 4096
        parser = argparse.ArgumentParser()
        add_flags(parser, StoreConfig, "store_")
        args = parser.parse_args(["--store-chunk-rows", "4096"])
        resolved = from_env(
            StoreConfig, **flag_overrides(args, StoreConfig, "store_")
        )
        assert resolved.chunk_rows == 4096

    def test_a_bool_flag_can_turn_the_environment_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_SLO_VETO", "1")
        args = build_parser().parse_args(["figure8", "--no-slo-veto"])
        resolved = from_env(
            ElasticityPolicy, **flag_overrides(args, ElasticityPolicy)
        )
        assert resolved.slo_veto is False
        args = build_parser().parse_args(["figure8"])
        assert from_env(
            ElasticityPolicy, **flag_overrides(args, ElasticityPolicy)
        ).slo_veto is True

    def test_a_bad_store_variable_is_named(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "dense")
        with pytest.raises(ValueError, match="REPRO_STORE_BACKEND"):
            StoreConfig.from_env()
        monkeypatch.delenv("REPRO_STORE_BACKEND")
        # The spill directory goes through the shared reader: blank is unset.
        monkeypatch.setenv("REPRO_STORE_SPILL_DIR", "  ")
        assert StoreConfig.from_env().spill_dir is None
        monkeypatch.setenv("REPRO_STORE_SPILL_DIR", " /var/spill ")
        assert StoreConfig.from_env().spill_dir == "/var/spill"


class TestHubConfigPolicy:
    def test_hub_default_picks_up_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_SLO_VETO", "1")
        assert HubConfig().policy.slo_veto is True

    def test_explicit_policy_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_SLO_VETO", "1")
        policy = ElasticityPolicy(slo_p99_s=0.8)
        assert HubConfig(policy=policy).policy is policy
        assert policy.slo_veto is False

    def test_default_policy_is_the_paper_policy(self):
        assert HubConfig().policy == ElasticityPolicy()


class TestPolicyCommand:
    def test_prints_all_three_sources_in_one_table(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_POLICY_SLO_VETO", "1")
        assert main(["policy", "--slo-p99-s", "0.5"]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line and line.split()[0] in ("slo_veto", "slo_p99_s", "grace_period_s")
        }
        assert rows == {
            "slo_veto": ["True", "env:REPRO_POLICY_SLO_VETO"],
            "slo_p99_s": ["0.5", "cli"],
            "grace_period_s": ["30", "default"],
        }


#: Fields kept although no caller passes them, each with its reason.
UNSET_KNOBS = {
    # Measured, not assumed: DESIGN.md §9's adaptive-beats-fixed p99 is
    # 0.006 s at 4 and 0.408 s at the default 64 (fixed: 0.242 s), so the
    # claim rests on this value; the chaos suite runs at 64.
    "flush_max_batch",
}


def _keywords_passed():
    """Every keyword (``f(name=...)``, ``dict(name=...)``) passed in the
    callers' code: ``src/``, ``benchmarks/`` and ``perfbench/`` outside
    its tests."""
    names = set()
    for top in ("src", "benchmarks", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(
                keyword.arg
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                for keyword in node.keywords
                if keyword.arg is not None
            )
    return names


def test_every_knob_has_a_caller_that_sets_it():
    passed = _keywords_passed()
    fields = {field.name for *_, field in FIELDS}
    assert UNSET_KNOBS <= fields
    assert sorted(fields - passed - UNSET_KNOBS) == []
    assert sorted(UNSET_KNOBS & passed) == []  # an exemption gone stale


class TestDeclaredVariables:
    """``src/``, the docs and the CI workflow spell only declared names."""

    def test_the_declared_set_is_the_six(self):
        assert DECLARED == {
            "REPRO_STORE_BACKEND",
            "REPRO_STORE_CHUNK_ROWS",
            "REPRO_STORE_MEMORY_BUDGET_MB",
            "REPRO_STORE_SPILL_DIR",
            "REPRO_POLICY_SLO_VETO",
            "REPRO_CHAOS_SEED",
        }

    def test_src_reads_exactly_the_declared_variables(self):
        found = set()
        for path in (ROOT / "src").rglob("*.py"):
            found.update(FULL_NAME.findall(path.read_text(encoding="utf-8")))
        assert found == DECLARED

    def test_ci_sets_only_declared_variables(self):
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        set_by_ci = set(re.findall(r"^\s+(REPRO_[A-Z0-9_]+):", workflow, re.M))
        knobs = {name for name in set_by_ci if not name.startswith("REPRO_BENCH_")}
        assert knobs and knobs <= DECLARED

    @pytest.mark.parametrize("doc", [
        "README.md", "DESIGN.md", "OBSERVABILITY.md", "RESILIENCE.md",
    ])
    def test_docs_list_only_declared_variables(self, doc):
        text = (ROOT / doc).read_text(encoding="utf-8")
        listed = {
            name for name in FULL_NAME.findall(text)
            if not name.startswith("REPRO_BENCH_")
        }
        assert listed <= DECLARED

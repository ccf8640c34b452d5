"""The knob surface: one dataclass field per knob, everything else derived.

Parametrised over ``dataclasses.fields`` of the three knob groups, never
over a hand list: a new field is covered the moment it is declared.
Settings are arguments, never the environment: a ``REPRO_*`` spelling
in ``src/``, the docs or the CI workflow (other than the benches' own
``REPRO_BENCH_*`` output and scale variables) fails here.  A field no
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
from repro.config import add_flags, flag_overrides, from_flags, provenance
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
        assert getattr(from_flags(cls, **overrides, **{field.name: value}),
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
        assert getattr(from_flags(cls), field.name) == field.default
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


@pytest.mark.parametrize("cls", [cls for cls, _, _ in GROUPS])
class TestEveryGroup:
    def test_unknown_override_is_a_type_error(self, cls):
        with pytest.raises(TypeError, match="not_a_knob"):
            from_flags(cls, not_a_knob=1)

    def test_provenance_has_one_row_per_field(self, cls):
        rows = provenance(cls)
        assert [name for name, _, _ in rows] == [
            field.name for field in dataclasses.fields(cls)
        ]
        assert {source for _, _, source in rows} == {"default"}

    def test_no_flag_is_the_plain_constructor(self, cls):
        assert from_flags(cls) == cls()
        assert not hasattr(cls, "from_env")


def test_invalid_resolved_group_fails_validation():
    with pytest.raises(ValueError, match="slo_p99_s"):
        from_flags(ElasticityPolicy, slo_p99_s=0.0)
    with pytest.raises(ValueError, match="thresholds"):
        from_flags(ElasticityPolicy, scale_in_threshold=0.9)


class TestHubConfigPolicy:
    def test_default_policy_is_the_paper_policy(self):
        assert HubConfig().policy == ElasticityPolicy()


class TestPolicyCommand:
    def test_prints_flag_and_default_sources_in_one_table(self, capsys):
        assert main(["policy", "--slo-veto", "--slo-p99-s", "0.5"]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line and line.split()[0] in ("slo_veto", "slo_p99_s", "grace_period_s")
        }
        assert rows == {
            "slo_veto": ["True", "cli"],
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
    """No knob is read from the environment: ``src/``, the docs and the CI
    workflow spell no ``REPRO_*`` name but the benches' ``REPRO_BENCH_*``."""

    def test_the_declared_set_is_empty(self):
        declared = {key for *_, field in FIELDS for key in field.metadata}
        assert declared <= {"help", "choices"}

    def test_src_reads_exactly_the_declared_variables(self):
        found = set()
        for path in (ROOT / "src").rglob("*.py"):
            found.update(FULL_NAME.findall(path.read_text(encoding="utf-8")))
        assert found == set()

    def test_ci_sets_only_declared_variables(self):
        workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        spelled = {
            name for name in FULL_NAME.findall(workflow)
            if not name.startswith("REPRO_BENCH_")
        }
        assert spelled == set()

    @pytest.mark.parametrize("doc", [
        "README.md", "DESIGN.md", "OBSERVABILITY.md", "RESILIENCE.md",
    ])
    def test_docs_list_only_declared_variables(self, doc):
        text = (ROOT / doc).read_text(encoding="utf-8")
        listed = {
            name for name in FULL_NAME.findall(text)
            if not name.startswith("REPRO_BENCH_")
        }
        assert listed == set()

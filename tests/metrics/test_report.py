"""Unit tests for report formatting."""

import pytest

from repro.telemetry import format_series, format_table


def test_format_table_alignment():
    table = format_table(
        ["name", "value"],
        [["alpha", 1], ["b", 22.5]],
    )
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert "alpha" in lines[2]
    assert "22.5" in lines[3]


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_float_rendering():
    table = format_table(["v"], [[0.000123], [1234.5], [0.25], [0.0]])
    assert "0.000123" in table
    assert "1.23e+03" in table or "1234" in table
    assert "0.25" in table
    assert "\n0" in table


def test_format_series():
    text = format_series("hosts", [(0, 1), (30, 2)], unit="count")
    assert "hosts [count]:" in text
    assert "0" in text and "30" in text

"""Tests for the atomic JSON exporter."""

import json

import pytest

from repro.metrics import write_json


class TestWriteJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "r.json"
        write_json(str(path), {"series": [1, 2, 3], "name": "fig8"})
        with open(path) as handle:
            assert json.load(handle) == {"series": [1, 2, 3], "name": "fig8"}

    def test_unserializable_payload_preserves_previous_file(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(str(path), {"ok": 1})
        before = path.read_text()
        with pytest.raises(TypeError):
            write_json(str(path), {"bad": object()})
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

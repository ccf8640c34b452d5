"""Tests for the atomic JSON exporter."""

import json

from repro.telemetry import write_json


class TestWriteJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "r.json"
        write_json(str(path), {"series": [1, 2, 3], "name": "fig8"})
        with open(path) as handle:
            assert json.load(handle) == {"series": [1, 2, 3], "name": "fig8"}

"""The atomic write-rename discipline every shared file rides on."""

import json
import os

import pytest

from repro.sweep.atomic import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_target_and_dir_clean(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("{\"old\": true}")
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"old": True}
        assert os.listdir(tmp_path) == ["out.json"]


class TestAtomicWriteJson:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        atomic_write_json(p1, {"b": 1, "a": 2})
        atomic_write_json(p2, {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")

    def test_cache_entry_style_no_trailing_newline(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"k": 1}, indent=1, trailing_newline=False)
        assert not target.read_text().endswith("\n")

"""The atomic write-rename discipline every shared file rides on."""

import json
import os
import threading

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


class TestRacingWriters:
    def test_racing_writers_leave_one_whole_payload(self, tmp_path):
        """Writers racing one path converge on one whole payload; a
        reader between their replaces sees some writer's whole payload,
        never a mixture, and no temp file outlives the race."""
        target = tmp_path / "ab" / "entry.json"
        payloads = [str(i) * 65536 for i in range(4)]
        start = threading.Barrier(len(payloads) + 1, timeout=10)
        torn = []

        def write(text):
            start.wait()
            for _ in range(10):
                atomic_write_text(target, text)

        writers = [threading.Thread(target=write, args=(text,))
                   for text in payloads]

        def read():
            start.wait()
            while any(writer.is_alive() for writer in writers):
                try:
                    text = target.read_text()
                except FileNotFoundError:
                    continue            # before the first replace
                if text not in payloads:
                    torn.append(len(text))

        reader = threading.Thread(target=read)
        for thread in [*writers, reader]:
            thread.start()
        for thread in [*writers, reader]:
            thread.join(timeout=30)
        assert torn == []
        assert target.read_text() in payloads
        assert os.listdir(target.parent) == ["entry.json"]


class TestShardPrunedMidWrite:
    """A concurrent cache gc removes an empty shard directory between
    the writer's mkdir and its create; the writer makes it again."""

    @staticmethod
    def _prune_before_first_call(monkeypatch, module, name, directory):
        real = getattr(module, name)
        pruned = []

        def create(*args, **kwargs):
            if not pruned:
                pruned.append(True)
                os.rmdir(directory)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, create)
        return pruned

    def test_atomic_write(self, tmp_path, monkeypatch):
        import tempfile
        pruned = self._prune_before_first_call(
            monkeypatch, tempfile, "mkstemp", tmp_path / "ab")
        atomic_write_text(tmp_path / "ab" / "entry.json", "payload")
        assert pruned
        assert (tmp_path / "ab" / "entry.json").read_text() == "payload"

    def test_pruned_inside_the_mkdir(self, tmp_path, monkeypatch):
        """``mkdir(exist_ok=True)`` raises FileExistsError when the
        directory it found is pruned before its own ``is_dir()``."""
        from pathlib import Path
        real, calls = Path.mkdir, []

        def mkdir(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 1:
                raise FileExistsError(17, "File exists", str(self))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        atomic_write_text(tmp_path / "ab" / "entry.json", "payload")
        assert len(calls) == 2
        assert (tmp_path / "ab" / "entry.json").read_text() == "payload"


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

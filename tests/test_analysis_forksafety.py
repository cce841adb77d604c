"""Fixture-project tests for the ``fork-atomic-write`` rule."""

import textwrap
from pathlib import Path

from repro.analysis import run_rules


def write(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def run(root: Path, rule_id: str):
    findings, ran = run_rules(root, [rule_id])
    assert ran == [rule_id]
    return findings


class TestForkAtomicWrite:
    def test_write_mode_open_is_flagged(self, tmp_path):
        write(tmp_path, "src/repro/sweep/out.py", """\
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """)
        findings = run(tmp_path, "fork-atomic-write")
        assert [f.symbol for f in findings] == ["open:w"]
        assert "repro.sweep.atomic" in findings[0].message

    def test_append_and_keyword_mode_are_flagged(self, tmp_path):
        write(tmp_path, "src/repro/sweep/log.py", """\
            def log(path, line):
                fh = open(path, mode="a")
                fh.write(line)
        """)
        assert [f.symbol for f in run(tmp_path, "fork-atomic-write")] == \
            ["open:a"]

    def test_write_text_is_flagged(self, tmp_path):
        write(tmp_path, "src/repro/sweep/meta.py", """\
            def stamp(path):
                path.write_text("done")
        """)
        assert [f.symbol for f in run(tmp_path, "fork-atomic-write")] == \
            ["write_text"]

    def test_read_mode_open_is_quiet(self, tmp_path):
        write(tmp_path, "src/repro/sweep/reader.py", """\
            import json


            def load(path):
                with open(path, encoding="utf-8") as fh:
                    return json.load(fh)
        """)
        assert run(tmp_path, "fork-atomic-write") == []

    def test_atomic_module_itself_is_exempt(self, tmp_path):
        write(tmp_path, "src/repro/sweep/atomic.py", """\
            import os


            def append_line(path, line):
                with open(path, "a") as fh:
                    fh.write(line + "\\n")
                    os.fsync(fh.fileno())
        """)
        assert run(tmp_path, "fork-atomic-write") == []

    def test_outside_sweep_layer_is_out_of_scope(self, tmp_path):
        write(tmp_path, "src/repro/bench/report.py", """\
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """)
        assert run(tmp_path, "fork-atomic-write") == []

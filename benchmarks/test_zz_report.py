"""Final step of the benchmark suite: consolidate every generated table
into ``benchmarks/results/REPORT.md`` (runs last — files are collected
alphabetically)."""

from pathlib import Path

from repro.bench import build_report


def test_build_consolidated_report(results_dir):
    # no cache_dir on purpose: every table in this run was just emitted,
    # but entries land in the cache *while* earlier .txt already exist,
    # so a same-run staleness check would misfire.  Staleness belongs to
    # the `repro report` path, which rewrites .txt after the cache.
    text = build_report(results_dir)
    Path(results_dir, "REPORT.md").write_text(text, encoding="utf-8")
    assert text.startswith("# HiGraph reproduction")
    # at least the cheap, always-runnable sections must be present
    assert "Fig. 4" in text

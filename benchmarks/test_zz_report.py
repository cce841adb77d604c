"""Final step of the benchmark suite: consolidate every generated table
into ``benchmarks/results/REPORT.md`` (runs last — files are collected
alphabetically)."""

import os

from repro.bench import build_report, write_report


def test_build_consolidated_report(results_dir):
    out_path = os.path.join(results_dir, "REPORT.md")
    # no cache_dir on purpose: every table in this run was just emitted,
    # but entries land in the cache *while* earlier .txt already exist,
    # so a same-run staleness check would misfire.  Staleness belongs to
    # the `repro report` path, which rewrites .txt after the cache.
    text = write_report(results_dir, out_path)
    assert os.path.exists(out_path)
    assert text.startswith("# HiGraph reproduction")
    # at least the cheap, always-runnable sections must be present
    produced = build_report(results_dir)
    assert "Fig. 4" in produced

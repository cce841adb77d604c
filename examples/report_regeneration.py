#!/usr/bin/env python3
"""Report regeneration: the cache → figures → report loop, end to end.

Runs the same pipeline as ``python -m repro report`` through the
library API twice against one cache directory:

1. **cold** — every selected section's sweep jobs are simulated and the
   results are written to the cache;
2. **warm** — the identical call regenerates every table and the
   consolidated ``REPORT.md`` with *zero* simulator invocations, byte
   for byte.

This is the loop a reproduction study lives in: warm the cache once
(benchmark suite, ``repro sweep --figure ...`` or a cold report run),
then iterate on presentation/analysis for free.

Run:  python examples/report_regeneration.py [--sections fig10,latency]
                                             [--cache-dir DIR] [--jobs N]
"""

import argparse
import tempfile
from pathlib import Path

from repro.bench import regenerate


def run_once(label: str, results_dir: str, cache_dir: str, sections, jobs):
    print(f"--- {label} regeneration ---")
    report = regenerate(
        results_dir, sections=sections, num_workers=jobs, cache=cache_dir,
        progress=lambda r: print(
            f"  {r['section']:28s} {r['rows']:3d} rows  "
            f"jobs={r['jobs']}  hits={r['cache_hits']}  "
            f"executed={r['executed']}  wall={r['wall_seconds']:.2f}s"))
    print(f"  total: jobs={report.total_jobs}  hits={report.cache_hits}  "
          f"executed={report.executed}  wall={report.wall_seconds:.2f}s")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sections", default="fig10,radix,latency,slicing",
                        help="comma list of section keys / figure aliases "
                             "(default: four of the cheaper sweeps)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a temp dir)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker threads for cache misses "
                             "(0 = one per CPU)")
    args = parser.parse_args()

    sections = [s.strip() for s in args.sections.split(",") if s.strip()]
    workdir = Path(tempfile.mkdtemp(prefix="repro-report-"))
    cache_dir = args.cache_dir or str(workdir / "cache")
    results_dir = str(workdir / "results")

    cold = run_once("cold", results_dir, cache_dir, sections, args.jobs)
    report_bytes = Path(cold.report_path).read_bytes()

    warm = run_once("warm", results_dir, cache_dir, sections, args.jobs)
    assert warm.executed == 0, "warm regeneration must not simulate"
    assert Path(warm.report_path).read_bytes() == report_bytes, \
        "warm REPORT.md must be byte-identical to the cold one"

    print(f"\nwarm run: {warm.cache_hits}/{warm.total_jobs} cells from cache, "
          f"0 simulations, REPORT.md byte-identical")
    print(f"report:     {warm.report_path}")
    print(f"provenance: {warm.provenance_path}")
    print(f"cache:      {cache_dir}")


if __name__ == "__main__":
    main()

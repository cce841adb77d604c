#!/usr/bin/env python
"""Cold-sweep engine benchmark: reference vs soa, one BENCH record.

Times the Fig. 8 evaluation matrix (algorithms x datasets x the three
Table 1 designs) **cold** — no result cache, every job simulated — once
per scatter engine, and appends one JSON line to the benchmark history
file.  A second line follows: the **PageRank x10** record
(``bench: pr10_cold_sweep``), the same datasets x configs matrix with
PR at ten iterations — the all-active workload where the soa engine's
resident tProperty pays off, tracked as its own trajectory
(``pr10_seconds`` / ``speedup_soa_pr10``).  Each run adds
records, so ``benchmarks/results/bench_history.jsonl`` accumulates the
engine speedup over time (see docs/performance.md for how to read it,
and ``scripts/check_bench_history.py`` for the CI gate that watches
it).

Methodology
-----------
* graphs are resolved once up front (the worker memo a sweep would use),
  so generation time never pollutes any engine's number;
* jobs run serially, in-process, **paired** — reference, then soa per
  job, adjacent in time — so slow drift in machine load biases both
  engines equally; per-job pairs also yield a drift-robust median;
* every job's ``SimStats`` are compared across the engines: the probe
  doubles as a differential check and records ``stats_identical`` in
  the BENCH line;
* the soa engine's telemetry (cycles marched, resident-tProperty
  reuses) is summed per job into the record's ``ffwd`` field (the
  engine zeroes the process-wide counters at the start of every run).

Usage::

    python scripts/perf_probe.py                 # full fig8 matrix
    python scripts/perf_probe.py --quick         # CI smoke (seconds)
    python scripts/perf_probe.py --require-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                           "results", "bench_history.jsonl")

#: Engines timed per job, in run order (reference first, adjacent).
ENGINES_TIMED = ("reference", "soa")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", default=None,
                        help="comma-separated Table 2 keys "
                             "(default: the full fig8 roster)")
    parser.add_argument("--algorithms", default=None,
                        help="comma-separated algorithms "
                             "(default: BFS,SSSP,SSWP,PR)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override dataset scale (sets REPRO_SCALE; "
                             "default: the bench scales)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: VT at 3%% scale, BFS+PR only")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="BENCH history file to append to "
                             "(default: benchmarks/results/bench_history.jsonl)")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the recorded soa "
                             "speedup (speedup_soa) >= X")
    parser.add_argument("--pr-iterations", type=int, default=10,
                        metavar="N",
                        help="PageRank iterations for the pr10 record "
                             "(default: 10)")
    parser.add_argument("--no-pr10", action="store_true",
                        help="skip the PageRank x10 record (fig8 only)")
    return parser


# ----------------------------------------------------------------------
# Pure record-building helpers (unit-tested without any timing runs)
# ----------------------------------------------------------------------

def pair_result(describe: str, seconds: dict, stats: dict) -> dict:
    """Summarize one job's paired engine runs.

    ``seconds`` and ``stats`` are keyed by engine name; the SimStats
    dicts are compared here (every engine against reference) so the
    probe doubles as a differential check per job.
    """
    ref, soa = seconds["reference"], seconds["soa"]
    return {
        "job": describe,
        "reference_seconds": ref,
        "soa_seconds": soa,
        "speedup_soa": ref / soa,
        "stats_identical": all(stats[e] == stats["reference"]
                               for e in stats),
    }


def median_job_speedup(pairs: list[dict]) -> float:
    """Median per-job soa speedup — robust to one outlier cell and drift."""
    ratios = sorted(p["speedup_soa"] for p in pairs)
    if not ratios:
        raise ValueError("no job pairs to summarize")
    return ratios[len(ratios) // 2]


def build_record(pairs: list[dict], *, datasets: list[str],
                 algorithms: list[str], scales: dict,
                 equivalence_class: str, ffwd: dict | None = None,
                 utc: str | None = None, python_version: str | None = None,
                 machine: str | None = None,
                 bench: str = "fig8_cold_sweep") -> dict:
    """Assemble one BENCH history line from per-job pair results."""
    if not pairs:
        raise ValueError("no job pairs to record")
    ref_total = sum(p["reference_seconds"] for p in pairs)
    soa_total = sum(p["soa_seconds"] for p in pairs)
    record = {
        "bench": bench,
        "utc": utc if utc is not None
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "datasets": list(datasets),
        "algorithms": list(algorithms),
        "scales": dict(scales),
        "jobs": len(pairs),
        "reference_seconds": round(ref_total, 3),
        "soa_seconds": round(soa_total, 3),
        "speedup_soa": round(ref_total / soa_total, 3),
        "median_job_speedup_soa": round(median_job_speedup(pairs), 3),
        "stats_identical": all(p["stats_identical"] for p in pairs),
        "engine_equivalence_class": equivalence_class,
        "python": (python_version if python_version is not None
                   else platform.python_version()),
        "machine": machine if machine is not None else platform.machine(),
    }
    if ffwd is not None:
        record["ffwd"] = dict(ffwd)
    return record


def pr10_fields(record: dict) -> dict:
    """Dedicated optional fields for the PageRank x10 trajectory.

    Derived from a built ``pr10_cold_sweep`` record so the trajectory
    has stable names (``pr10_seconds`` / ``speedup_soa_pr10``) that
    tooling can read without caring which line of the history it is.
    """
    return {"pr10_seconds": record["soa_seconds"],
            "speedup_soa_pr10": record["speedup_soa"]}


def resolve_out_path(out: str, default: str = DEFAULT_OUT) -> str:
    """Validate/prepare the history path.

    The default ``benchmarks/results/`` directory is created when
    missing; an explicit ``--out`` with a missing parent is a clear
    user error, reported without a traceback.
    """
    out = os.path.abspath(out)
    parent = os.path.dirname(out)
    if out == os.path.abspath(default):
        os.makedirs(parent, exist_ok=True)
        return out
    if not os.path.isdir(parent):
        raise SystemExit(
            f"perf_probe: --out parent directory does not exist: {parent!r}"
            " — create it first (or drop --out to use the default"
            " benchmarks/results/ location, which is created on demand)")
    return out


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.datasets = args.datasets or "VT"
        args.algorithms = args.algorithms or "BFS,PR"
        if args.scale is None:
            args.scale = 0.03
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    out_path = resolve_out_path(args.out)

    from repro.accel.engine import FFWD_TELEMETRY, engine_cache_token
    from repro.bench.harness import bench_scale, matrix_jobs
    from repro.graph import DATASET_ORDER
    from repro.sweep.executor import _GRAPH_MEMO, execute_job
    from repro.sweep.jobs import graph_fingerprint

    datasets = ([d.strip().upper() for d in args.datasets.split(",")]
                if args.datasets else list(DATASET_ORDER))
    algorithms = ([a.strip().upper() for a in args.algorithms.split(",")]
                  if args.algorithms else ["BFS", "SSSP", "SSWP", "PR"])

    def resolve_graphs(jobs):
        # resolve every graph once, outside the timed region
        for job in jobs:
            fingerprint = graph_fingerprint(job.graph)
            if fingerprint not in _GRAPH_MEMO:
                _GRAPH_MEMO[fingerprint] = job.resolve_graph()

    def time_jobs(jobs):
        ffwd = dict.fromkeys(FFWD_TELEMETRY, 0)
        pairs = []
        for job in jobs:
            seconds = {}
            stats = {}
            for engine in ENGINES_TIMED:             # paired, adjacent
                job.engine = engine
                t0 = time.perf_counter()
                stats[engine] = execute_job(job).to_dict()
                seconds[engine] = time.perf_counter() - t0
                # the soa engine zeroes the process-wide telemetry at
                # the start of its run, so right after it the dict holds
                # exactly this job's numbers — accumulate per job
                if engine == "soa":
                    for key in ffwd:
                        ffwd[key] += FFWD_TELEMETRY[key]
            pair = pair_result(job.describe(), seconds, stats)
            pairs.append(pair)
            if not pair["stats_identical"]:
                print(f"WARNING: SimStats diverge on {pair['job']}",
                      file=sys.stderr)
            print(f"  {pair['job']:28s} "
                  f"ref={pair['reference_seconds']:7.3f}s "
                  f"soa={pair['soa_seconds']:7.3f}s  "
                  f"{pair['speedup_soa']:5.2f}x")
        return pairs, ffwd

    jobs = matrix_jobs(algorithms=algorithms, datasets=datasets)
    resolve_graphs(jobs)
    pairs, ffwd = time_jobs(jobs)
    scales = {d: bench_scale(d) for d in datasets}
    equivalence_class = engine_cache_token("soa")
    records = [build_record(
        pairs,
        datasets=datasets,
        algorithms=algorithms,
        scales=scales,
        equivalence_class=equivalence_class,
        ffwd=dict(ffwd),
    )]

    if not args.no_pr10:
        # the second trajectory: PageRank at ten iterations — ten
        # all-active phases per job, the workload the soa engine's
        # resident tProperty targets
        print(f"PRx{args.pr_iterations}:")
        pr10_jobs = matrix_jobs(
            algorithms=[("PR", {"iterations": args.pr_iterations})],
            datasets=datasets)
        resolve_graphs(pr10_jobs)
        pr10_pairs, pr10_ffwd = time_jobs(pr10_jobs)
        pr10_record = build_record(
            pr10_pairs,
            datasets=datasets,
            algorithms=[f"PRx{args.pr_iterations}"],
            scales=scales,
            equivalence_class=equivalence_class,
            ffwd=dict(pr10_ffwd),
            bench="pr10_cold_sweep",
        )
        pr10_record.update(pr10_fields(pr10_record))
        records.append(pr10_record)

    # single-write appends via the shared atomic-write discipline, so a
    # concurrent probe (or a killed one) cannot interleave/tear a record
    from repro.sweep.atomic import append_line
    for record in records:
        append_line(out_path, json.dumps(record, sort_keys=True))
        print("BENCH " + json.dumps(record, sort_keys=True))
    print(f"wrote {out_path}")

    record = records[0]
    if not all(r["stats_identical"] for r in records):
        print("FAIL: engines disagree — equivalence contract broken",
              file=sys.stderr)
        return 1
    if (args.require_speedup is not None
            and record["speedup_soa"] < args.require_speedup):
        print(f"FAIL: speedup_soa {record['speedup_soa']:.2f}x below "
              f"required {args.require_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload on the ``soa`` engine and print its metrics.

    python3 perfbench/run.py --workload fig8_cold --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json);
``--trace 1`` measures half the time untraced and half under the span
tracer, and prints the per-layer metrics plus ``trace.overhead``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run works in a fresh
directory under ``.perfbench_work/`` and removes it on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

import env
from layers import percentile

WORKLOAD_NAMES = ("fig8_cold", "report_serve")

#: Set-ups per untraced run: this run's own plus fresh-process probes;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3

E2E_UNITS = {"sim_cycles_per_s": "cycles/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted; no workload's inputs depend on it "
                             "(see README.md, Seeds)")
    parser.add_argument("--graph-seed", type=int, default=None,
                        help="R-MAT generator seed of every dataset "
                             "(default: each dataset's Table 2 seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pass_count(workload, seconds: float) -> int:
    """Passes that fill at least ``seconds``: the same count every run,
    so every run does the same work."""
    return max(1, math.ceil(seconds / workload.pass_seconds))


def measure(workload, passes: int, tracer=None) -> list:
    """Run ``passes`` passes; each records its own peak RSS."""
    from workloads import peak_rss_mb, reset_peak_rss
    done = []
    for _ in range(passes):
        # each pass starts from a collected heap; otherwise the full
        # collections of garbage earlier passes left, about 55 ms each,
        # land on a few jobs that drift from pass to pass
        gc.collect()
        pid = workload.ops_pid()
        reset_peak_rss(pid)
        result = workload.run_pass(tracer)
        result.peak_rss_mb = peak_rss_mb(pid)
        done.append(result)
    return done


def end_to_end(passes, setup_s: float) -> dict:
    """Throughput over the whole run; the operation percentiles over
    every operation of every pass.

    Percentiles of the pooled samples, not of each operation's mean over
    passes: the 72 cold jobs leave gaps of up to 8 ms between neighbours
    near the middle, and a median of per-job means jumped across such a
    gap from run to run (79 and 90 ms on identical runs).
    """
    samples = [op.seconds for p in passes for op in p.ops]
    return {
        "sim_cycles_per_s": (sum(p.cycles for p in passes)
                             / sum(p.cpu_s for p in passes)),
        "op_p50_ms": percentile(samples, 50) * 1000.0,
        "op_p90_ms": percentile(samples, 90) * 1000.0,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": setup_s,
    }


def setup_probe(args) -> float:
    """One more set-up in a fresh interpreter; its CPU seconds."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    if args.graph_seed is not None:
        cmd += ["--graph-seed", str(args.graph_seed)]
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise env.SetupError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def describe_engine() -> str:
    """Engine, kernel ABI and compiler the measured path used."""
    from repro.accel.engine import resolve_engine, soakernel
    lib = soakernel.load_kernel()
    cc = soakernel._find_compiler() or "none"
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        version = []
    return (f"engine {resolve_engine()}  kernel ABI "
            f"{int(lib.soa_abi_version())}  compiler {cc}"
            + (f" ({version[0]})" if version else ""))


def run(args, work) -> dict:
    import workloads
    import repro.api  # noqa: F401  (imports are part of set-up)

    workload = workloads.WORKLOADS[args.workload](work, args.graph_seed)
    workload.setup_parts["imports"] = workloads.cpu_total()
    tracer = None
    try:
        workload.setup()
        if args.setup_probe:
            return {"setup_s": workload.setup_cpu()}
        count = pass_count(workload, args.seconds)
        if args.trace:
            untraced = measure(workload, max(1, count // 2))
            from tracing import Tracer
            tracer = Tracer().install()
            workload.start_tracing(work)
            lo = time.monotonic_ns()
            traced = measure(workload, max(1, count - count // 2), tracer)
            hi = time.monotonic_ns()
            tracer.uninstall()
            remote, remote_missing = workload.remote_spans()
            passes = untraced + traced
        else:
            setup_s = workload.setup_cpu()
            passes = measure(workload, count)
        workload.finish(passes)
    finally:
        workload.teardown()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    print(f"perfbench: {args.workload} seed {args.seed}  {describe_engine()}")
    print(f"checks: {workload.check_level}")
    for op in failed[:10]:
        print(f"failed: {op.why}")
    if args.trace:
        from layers import LAYER_METRICS, layer_metrics
        metrics, notes = layer_metrics(
            tracer.spans + remote, {**tracer.missing, **remote_missing},
            (lo, hi), traced, untraced, workload.op_ids(),
            workload.setup_parts)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        for name, why in sorted(notes.items()):
            print(f"note: {name}: {why}")
    else:
        setups = [setup_s] + [setup_probe(args)
                              for _ in range(SETUP_REPEATS - 1)]
        print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
        walls = [op.wall for op in ops if op.wall]
        if walls:
            print(f"round trip (wall clock, not gated): p50 "
                  f"{percentile(walls, 50) * 1000:.3f} ms, p99 "
                  f"{percentile(walls, 99) * 1000:.3f} ms over "
                  f"{len(walls)} requests")
        metrics = end_to_end(passes, statistics.median(setups))
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    work = env.new_work_dir("run")
    try:
        env.prepare(work)
        os.chdir(env.ROOT)
        result = run(args, work)
    except env.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        env.remove_work_dir(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

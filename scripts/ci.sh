#!/usr/bin/env bash
# CI entry point, composable by stage so local runs and the GitHub
# Actions workflow (.github/workflows/ci.yml) share one script:
#
#   ci.sh            == ci.sh all
#   ci.sh lint       the AST source checks (tests/test_source_checks.py:
#                    module state, set order, id keys, clocks, excepts,
#                    atomic cache writes, process pools), then the C
#                    kernel compiled warning-clean (-Wall -Wextra
#                    -Wpedantic -Werror at -O2)
#   ci.sh tests      tier-1 pytest (includes the engine differential suite
#                    and docs/cli.md vs the parser), then
#                    benchmarks/results must match the commit
#   ci.sh coverage   engine-package line coverage with a committed
#                    floor (stdlib tracer — no pytest-cov)
#   ci.sh fuzz       seeded differential fuzz smoke (all engines,
#                    REPRO_FUZZ_CASES cases beyond the tier-1 default)
#   ci.sh sweep      cold+warm smoke sweep (executor + result cache)
#   ci.sh report     cold/warm report regeneration (zero sims, same bytes,
#                    and the warm run imports no numpy)
#   ci.sh serve      warm-cache daemon smoke (sweep over the socket,
#                    zero sims on resubmission, the daemon's status
#                    totals agreeing with both, a resubmission after
#                    another process's `cache gc` simulates again, a
#                    served report twice: zero sims, the same bytes
#                    and no daemon or asyncio import in the client the
#                    second time, clean remote shutdown)
#   ci.sh differential
#                    every engine's SimStats equal reference's on the
#                    full fig8 (72 jobs), PageRank x10 (18 jobs), CC
#                    and REACH on the fig8 datasets and designs (36),
#                    Fig. 10 (16), Fig. 11 (6), Fig. 12 (12), Sec. 5.4
#                    (3), Sec. 5.3 slicing (1), combining (4) and
#                    latency (4) matrices, uncached, one python
#                    process per matrix, all started together
#
# Stages may be combined: `ci.sh tests differential`.
#
# No stage times anything: perfbench/ (BENCHMARK.json) is the one
# timing harness.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# every stage's mktemp dir and background process is registered here
# and cleaned up on ANY exit, including a failed assertion under `set -e`
CI_TMP_DIRS=()
CI_PIDS=()
# (plain `(( ))` here would make the trap itself exit 1 when the array
# is empty, failing green runs of stages that never made a temp dir)
cleanup() {
    if ((${#CI_PIDS[@]})); then
        kill "${CI_PIDS[@]}" 2> /dev/null || true
    fi
    if ((${#CI_TMP_DIRS[@]})); then rm -rf "${CI_TMP_DIRS[@]}"; fi
}
trap cleanup EXIT
# `ci_mktemp_d NAME` makes a temp dir and stores its path in the
# caller's variable NAME; registering it from a `$(...)` subshell
# would be lost, and the dir would outlive the run
ci_mktemp_d() {
    local d
    d="$(mktemp -d)"
    CI_TMP_DIRS+=("$d")
    printf -v "$1" '%s' "$d"
}

stage_lint() {
    echo "== AST source checks (tests/test_source_checks.py) =="
    # hard gate: any finding fails the build
    python -m pytest -q tests/test_source_checks.py
    echo "== C kernel compiles warning-clean =="
    # the propagation rings are Python-owned buffers the kernel reads as
    # PropRec records; -O2 enables -Wstrict-aliasing, which guards that
    cc -std=c99 -O2 -Wall -Wextra -Wpedantic -Werror -fPIC -c -o /dev/null \
        src/repro/accel/engine/_soa_march.c
}

stage_tests() {
    echo "== tier-1 tests (includes tests/test_engine_differential.py) =="
    python -m pytest -x -q
    # the benchmark suite rewrites the tracked tables and REPORT.md;
    # they depend on the results alone, so a run must leave them as
    # committed
    if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
        echo "== tier-1 left benchmarks/results as committed =="
        git diff --exit-code -- benchmarks/results
    else
        echo "== not a git checkout: benchmarks/results diff skipped =="
    fi
}

stage_coverage() {
    echo "== engine-package coverage (stdlib tracer, committed floor) =="
    python scripts/engine_coverage.py
}

stage_fuzz() {
    echo "== seeded differential fuzz smoke (all engines, 32 cases) =="
    REPRO_FUZZ_CASES=32 python -m pytest -q tests/test_engine_fuzz.py
}

stage_sweep() {
    echo "== smoke sweep (2 jobs, cold cache) =="
    local cache_dir out
    ci_mktemp_d cache_dir
    ci_mktemp_d out
    python -m repro sweep --datasets VT --scale 0.03 --algorithms BFS,PR \
        --jobs 2 --cache-dir "$cache_dir" | tee "$out/cold.txt"
    grep -q "cache hits: 0" "$out/cold.txt"

    echo "== smoke sweep (warm cache) =="
    python -m repro sweep --datasets VT --scale 0.03 --algorithms BFS,PR \
        --jobs 2 --cache-dir "$cache_dir" | tee "$out/warm.txt"
    grep -q "cache hits: 6 (100%)" "$out/warm.txt"
    grep -q "executed: 0" "$out/warm.txt"

    # identical tables regardless of cache state
    diff <(sed '/^jobs:/d' "$out/cold.txt") <(sed '/^jobs:/d' "$out/warm.txt")
}

stage_report() {
    echo "== report regeneration (cold) =="
    local report_dir report_cache out
    ci_mktemp_d report_dir
    ci_mktemp_d report_cache
    ci_mktemp_d out
    REPRO_SCALE=0.03 python -m repro report --results-dir "$report_dir" \
        --cache-dir "$report_cache" --section fig10 --section latency \
        --section table2 --section slicing | tee "$out/cold.txt"
    cp "$report_dir/REPORT.md" "$out/cold.md"

    echo "== report regeneration (warm: zero simulations, identical bytes, no numpy) =="
    # -X importtime logs every import to stderr: a warm report reads the
    # cache and renders tables, so numpy must not be among them
    REPRO_SCALE=0.03 python -X importtime -m repro report \
        --results-dir "$report_dir" --cache-dir "$report_cache" \
        --section fig10 --section latency --section table2 \
        --section slicing 2> "$out/imports.txt" | tee "$out/warm.txt" \
        || { cat "$out/imports.txt" >&2; return 1; }
    grep -Eq "^sections: .*cache hits: 21 \(100%\)  executed: 0  " \
        "$out/warm.txt"
    cmp "$out/cold.md" "$report_dir/REPORT.md"
    if grep -E '\| +numpy$' "$out/imports.txt"; then
        echo "the warm report imported numpy" >&2
        return 1
    fi
}

stage_serve() {
    echo "== serve smoke (daemon start, warm resubmission, shutdown) =="
    local serve_dir sock daemon_pid
    ci_mktemp_d serve_dir
    sock="$serve_dir/d.sock"
    python -m repro serve --socket "$sock" --cache-dir "$serve_dir/cache" \
        --jobs 2 > "$serve_dir/daemon.txt" 2>&1 &
    daemon_pid=$!
    CI_PIDS+=("$daemon_pid")        # a failed check must not leak it
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            echo "serve daemon died during startup:" >&2
            cat "$serve_dir/daemon.txt" >&2
            return 1
        fi
        sleep 0.1
    done
    [ -S "$sock" ]

    echo "-- cold sweep through the daemon --"
    python -m repro sweep --datasets VT --scale 0.03 --algorithms BFS,PR \
        --connect "$sock" | tee "$serve_dir/cold.txt"
    grep -q "cache hits: 0" "$serve_dir/cold.txt"

    echo "-- warm resubmission: zero simulations --"
    python -m repro sweep --datasets VT --scale 0.03 --algorithms BFS,PR \
        --connect "$sock" | tee "$serve_dir/warm.txt"
    grep -q "executed: 0" "$serve_dir/warm.txt"
    grep -q "cache hits: 6 (100%)" "$serve_dir/warm.txt"

    # identical tables regardless of which side of the socket simulated
    diff <(sed '/^jobs:/d' "$serve_dir/cold.txt") \
         <(sed '/^jobs:/d' "$serve_dir/warm.txt")

    echo "-- daemon totals: the cold sweep's 6 runs, the warm one's 6 hits --"
    python -m repro serve status --connect "$sock" \
        | tee "$serve_dir/status.txt"
    grep -q "^executed: 6  cache hits: 6  deduped: 0$" "$serve_dir/status.txt"

    echo "-- entries deleted by another process: simulated again --"
    python -m repro cache gc --cache-dir "$serve_dir/cache" --max-bytes 0
    python -m repro sweep --datasets VT --scale 0.03 --algorithms BFS,PR \
        --connect "$sock" | tee "$serve_dir/regc.txt"
    grep -q "cache hits: 0" "$serve_dir/regc.txt"
    diff <(sed '/^jobs:/d' "$serve_dir/cold.txt") \
         <(sed '/^jobs:/d' "$serve_dir/regc.txt")

    echo "-- served report, then again: zero simulations, same bytes --"
    REPRO_SCALE=0.03 python -m repro report --connect "$sock" \
        --results-dir "$serve_dir/results" --section fig10 --section latency \
        | tee "$serve_dir/report-cold.txt"
    cp "$serve_dir/results/REPORT.md" "$serve_dir/report-cold.md"
    # a client talks to the daemon over the socket: it must not import
    # the daemon, its scheduler or asyncio (-X importtime logs them)
    REPRO_SCALE=0.03 python -X importtime -m repro report --connect "$sock" \
        --results-dir "$serve_dir/results" --section fig10 --section latency \
        2> "$serve_dir/imports.txt" | tee "$serve_dir/report-warm.txt" \
        || { cat "$serve_dir/imports.txt" >&2; return 1; }
    grep -q "executed: 0" "$serve_dir/report-warm.txt"
    cmp "$serve_dir/report-cold.md" "$serve_dir/results/REPORT.md"
    if grep -E '\| +(asyncio|repro\.serve\.daemon)$' "$serve_dir/imports.txt"; then
        echo "the --connect client imported the daemon" >&2
        return 1
    fi

    echo "-- graceful remote shutdown --"
    python - "$sock" <<'EOF'
import sys
from repro.serve.client import ServeClient
client = ServeClient(sys.argv[1])
assert client.ping().protocol == 7
client.shutdown()
EOF
    wait "$daemon_pid"
    [ ! -S "$sock" ]
}

stage_differential() {
    echo "== soa vs reference: fig8, PageRank x10, cc+reach, fig10, fig11, fig12, sec5.4, slicing, combining, latency =="
    # reference holds the GIL, so threads would run its jobs one at a
    # time: each matrix sweeps serially in its own process instead, and
    # the processes share the CPUs
    local label failed=0
    local -A pids=()
    for label in fig8 PRx10 cc+reach fig10 fig11 fig12 sec5.4 slicing \
            combining latency; do
        differential_matrix "$label" &
        pids[$label]=$!
        CI_PIDS+=("$!")
    done
    for label in "${!pids[@]}"; do
        if ! wait "${pids[$label]}"; then
            echo "differential $label failed" >&2
            failed=1
        fi
    done
    return "$failed"
}

# `differential_matrix LABEL`: one matrix, every engine, compared with
# reference job by job (exec: a background call's pid is python's)
differential_matrix() {
    exec python - "$1" <<'EOF'
import sys
from repro.accel.engine import ENGINES
from repro.bench.figures import (combining_ablation_jobs, fig10_jobs,
                                 fig11_jobs, fig12_jobs,
                                 latency_ablation_jobs, sec54_radix_jobs,
                                 slicing_jobs)
from repro.bench.harness import matrix_jobs
from repro.sweep.executor import run_sweep

# fig8, PRx10 and cc+reach are the Table 1 designs (cc+reach runs the
# two shipped algorithms no figure does); the figures add an MDP edge
# stage between crossbar sites, 64-256 back channels, FIFO depths
# 8-320 and radix 4 and 8; slicing runs one engine per slice, and the
# ablations turn combining off and run BFS down a chain
planners = {"fig8": matrix_jobs,
            "PRx10": lambda: matrix_jobs(
                algorithms=[("PR", {"iterations": 10})]),
            "cc+reach": lambda: matrix_jobs(algorithms=["CC", "REACH"]),
            "fig10": fig10_jobs, "fig11": fig11_jobs,
            "fig12": fig12_jobs, "sec5.4": sec54_radix_jobs,
            "slicing": slicing_jobs, "combining": combining_ablation_jobs,
            "latency": latency_ablation_jobs}
label = sys.argv[1]
jobs = planners[label]()
runs = {engine: run_sweep(jobs, num_workers=1, engine=engine).stats
        for engine in ENGINES}
diverged = [f"{label} {job.describe()}: reference vs {engine}"
            for engine in ENGINES
            for job, want, got in zip(jobs, runs["reference"], runs[engine])
            if got.to_dict() != want.to_dict()]
for line in diverged:
    print(f"SimStats diverge: {line}", file=sys.stderr)
print(f"{label}: {len(jobs)} jobs x {len(ENGINES)} engines")
sys.exit(1 if diverged else 0)
EOF
}

usage() {
    # the leading comment block, however long it grows; the cwd is the
    # repo root by now, where a relative "$0" no longer resolves
    sed -n '2,/^[^#]/{/^#/p}' scripts/ci.sh
    exit 2
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=(all)
fi
for stage in "${stages[@]}"; do
    case "$stage" in
        lint)     stage_lint ;;
        tests)    stage_tests ;;
        coverage) stage_coverage ;;
        fuzz)     stage_fuzz ;;
        sweep)    stage_sweep ;;
        report)   stage_report ;;
        serve)    stage_serve ;;
        differential) stage_differential ;;
        all)      stage_lint; stage_tests; stage_coverage; stage_fuzz;
                  stage_sweep; stage_report; stage_serve;
                  stage_differential ;;
        -h|--help) usage ;;
        *) echo "ci.sh: unknown stage '$stage'" >&2; usage ;;
    esac
done

echo "CI OK (${stages[*]})"

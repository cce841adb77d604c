"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``   run one algorithm/dataset on one design (or all three)
``sweep``      run a {algorithm x dataset x config} matrix on worker
               threads with on-disk result caching
               (``--figure fig8`` runs a paper figure's exact matrix
               and prints its table and chart)
``report``     regenerate figure tables + the consolidated REPORT.md
               straight from the result cache
``serve``      run the warm-cache simulation daemon on a unix socket
               (sweeps/reports submitted by ``--connect`` or
               :class:`repro.api.RemoteSession` reuse its loaded
               graphs and shared cache)
``cache``      result-cache maintenance (``info``, ``gc``)
``netlist``    generate an MDP-network and emit structural Verilog
``datasets``   print the Table 2 registry and generated stand-in sizes
``frequency``  print the Fig. 4 / MDP timing model for a structure

See ``docs/cli.md`` for copy-paste examples of every subcommand.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# the parser needs only these registries, none of which imports numpy;
# each command imports what it runs, so a warm `repro report` never does
from repro.accel.config import graphdyns, higraph, higraph_mini
from repro.accel.engine.registry import DEFAULT_ENGINE, ENGINES
from repro.errors import ReproError
from repro.graph.datasets import DATASET_ORDER, TABLE2

_CONFIG_MAKERS = {
    "higraph": higraph,
    "higraph-mini": higraph_mini,
    "graphdyns": graphdyns,
}

#: Environment fallbacks for the shared execution flags (the engine's
#: own ``$REPRO_ENGINE`` fallback lives in :mod:`repro.accel.engine`).
JOBS_ENV_VAR = "REPRO_JOBS"
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"


def _shared_parents() -> dict[str, argparse.ArgumentParser]:
    """Parent parsers for flags shared across subcommands.

    One definition per flag keeps simulate/sweep/report/serve
    consistent (same spelling, same help, same env fallback) — the
    test suite holds the subcommands to these.
    Environment fallbacks are resolved at parser-build time: string
    defaults go through the argument's ``type``, so a malformed
    ``$REPRO_JOBS`` fails at parse time like a malformed flag would.
    """
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--engine", default=None, choices=list(ENGINES),
                        help="scatter engine (default: $REPRO_ENGINE, then "
                             f"{DEFAULT_ENGINE}); results and cache entries "
                             "are engine-independent")
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--jobs", type=int,
                           default=os.environ.get(JOBS_ENV_VAR, 1),
                           help="worker threads (0 = one per CPU; "
                                "default: $REPRO_JOBS, then 1)")
    execution.add_argument("--cache-dir",
                           default=os.environ.get(CACHE_DIR_ENV_VAR),
                           help="result cache directory, created if missing "
                                "(default: $REPRO_CACHE_DIR, then no cache)")
    execution.add_argument("--no-cache", action="store_true",
                           help="ignore and bypass the result cache")
    connect = argparse.ArgumentParser(add_help=False)
    connect.add_argument("--connect", default=None, metavar="SOCKET",
                         help="execute on a running `repro serve` daemon at "
                              "this unix socket instead of in-process "
                              "(--jobs/--cache-dir/--no-cache/--engine then "
                              "come from the daemon and are ignored here)")
    return {"engine": engine, "execution": execution, "connect": connect}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HiGraph / MDP-network reproduction (DAC 2022)")
    sub = parser.add_subparsers(dest="command", required=True)
    parents = _shared_parents()

    sim = sub.add_parser("simulate", parents=[parents["engine"]],
                         help="cycle-simulate one workload")
    sim.add_argument("--dataset", default="R14", choices=sorted(TABLE2))
    sim.add_argument("--scale", type=float, default=0.0625,
                     help="dataset scale in (0, 1] (default 0.0625)")
    sim.add_argument("--algorithm", default="PR",
                     help="BFS | SSSP | SSWP | PR | CC | REACH")
    sim.add_argument("--config", default="all",
                     choices=sorted(_CONFIG_MAKERS) + ["all"])
    sim.add_argument("--source", type=int, default=0)
    sim.add_argument("--pr-iterations", type=int, default=2)

    swp = sub.add_parser(
        "sweep",
        parents=[parents["engine"], parents["execution"], parents["connect"]],
        help="run a simulation matrix in parallel with caching")
    swp.add_argument("--algorithms", default="BFS,SSSP,SSWP,PR",
                     help="comma-separated list (default: the paper's four)")
    swp.add_argument("--datasets", default="R14",
                     help=f"comma-separated keys from {sorted(TABLE2)}")
    swp.add_argument("--configs", default="all",
                     help="comma-separated subset of "
                          f"{sorted(_CONFIG_MAKERS)} (default: all)")
    swp.add_argument("--scale", type=float, default=None,
                     help="dataset scale in (0, 1] (default: bench scales)")
    swp.add_argument("--axis", action="append", default=[], metavar="FIELD=V1,V2",
                     help="sweep an AcceleratorConfig field over values, "
                          "e.g. --axis fifo_depth=40,160,320 (repeatable)")
    swp.add_argument("--source", type=int, default=0)
    swp.add_argument("--pr-iterations", type=int, default=2)
    swp.add_argument("--figure", default=None, metavar="NAME",
                     help="run the exact job matrix behind one paper "
                          "figure/section alias (fig8, fig10, radix, ...) "
                          "instead of the --algorithms/--datasets matrix, "
                          "and print its tables and charts")

    rep = sub.add_parser(
        "report",
        parents=[parents["engine"], parents["execution"], parents["connect"]],
        help="regenerate figure tables + REPORT.md from the cache")
    rep.add_argument("--results-dir", default=os.path.join("benchmarks", "results"),
                     help="where section .txt tables and REPORT.md live")
    rep.add_argument("--section", action="append", default=[], metavar="NAME",
                     help="section key or figure alias, repeatable "
                          "(default: every section); see --list-sections")
    rep.add_argument("--out", default=None,
                     help="REPORT.md path (default: <results-dir>/REPORT.md)")
    rep.add_argument("--charts", action="store_true",
                     help="also render each section's unicode chart "
                          "(<section>.chart.txt) and embed it in REPORT.md")
    rep.add_argument("--list-sections", action="store_true",
                     help="print section keys + figure aliases and exit")

    srv = sub.add_parser(
        "serve",
        parents=[parents["engine"], parents["execution"],
                 parents["connect"]],
        help="run the warm-cache simulation daemon (or poke a running one)")
    srv.add_argument("verb", nargs="?", choices=["reload", "status"],
                     help="instead of starting a daemon, ask the one at "
                          "--connect to re-digest the code version, "
                          "stopping if it changed (reload), or print its "
                          "status line (status)")
    srv.add_argument("--socket", default=None, metavar="PATH",
                     help="unix socket path to bind (required when starting "
                          "a daemon; keep it short — the OS caps socket "
                          "paths around 100 characters)")

    cch = sub.add_parser("cache", help="result-cache maintenance")
    cch_sub = cch.add_subparsers(dest="cache_command", required=True)
    gc = cch_sub.add_parser("gc", help="evict entries beyond an age/size budget")
    gc.add_argument("--cache-dir", required=True)
    gc.add_argument("--max-age", default=None, metavar="AGE",
                    help="drop entries older than AGE: 30m, 12h, 7d or seconds")
    gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                    help="shrink the cache to SIZE: 512K, 100M, 2G or bytes")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed, touch nothing")
    info = cch_sub.add_parser("info", help="entry count, size and age span")
    info.add_argument("--cache-dir", required=True)

    net = sub.add_parser("netlist", help="generate an MDP-network")
    net.add_argument("--channels", type=int, default=16)
    net.add_argument("--radix", type=int, default=2)
    net.add_argument("--depth", type=int, default=160)
    net.add_argument("-o", "--output", default=None,
                     help="write Verilog here (default: summary only)")

    sub.add_parser("datasets", help="print the Table 2 registry")

    freq = sub.add_parser("frequency", help="timing model lookup")
    freq.add_argument("--crossbar-ports", type=int, default=None)
    freq.add_argument("--mdp-channels", type=int, default=None)
    freq.add_argument("--radix", type=int, default=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
        "netlist": _cmd_netlist,
        "datasets": _cmd_datasets,
        "frequency": _cmd_frequency,
    }[args.command]
    # bad input and unusable paths exit 2 with one line; any other
    # exception is a bug and keeps its traceback
    try:
        return handler(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------

def _session_for(args):
    """The Session behind a sweep/report invocation (docs/serving.md).

    ``--connect`` routes execution to a running daemon (which owns the
    cache, the workers and the engine choice); otherwise execution is
    in-process with this invocation's flags, ``--engine`` included: the
    session pins it on copies of every job it sweeps.
    """
    from repro.api import LocalSession, RemoteSession

    if getattr(args, "connect", None):
        return RemoteSession(args.connect)
    cache = None if args.no_cache else args.cache_dir
    return LocalSession(cache_dir=cache, num_workers=args.jobs,
                        engine=args.engine)


def _cmd_simulate(args) -> int:
    from repro.accel.accelerator import simulate
    from repro.algorithms import make_algorithm
    from repro.bench.harness import format_table
    from repro.graph.datasets import load

    graph = load(args.dataset, scale=args.scale)
    print(f"workload: {args.algorithm} on {graph}")
    names = sorted(_CONFIG_MAKERS) if args.config == "all" else [args.config]
    rows = []
    for name in names:
        if args.algorithm.upper() in ("PR", "PAGERANK"):
            algorithm = make_algorithm("PR", iterations=args.pr_iterations)
        else:
            algorithm = make_algorithm(args.algorithm)
        stats = simulate(_CONFIG_MAKERS[name](), graph, algorithm,
                         source=args.source, engine=args.engine).stats
        rows.append(stats.summary())
    print(format_table(rows, columns=["config", "iterations", "cycles",
                                      "edges", "gteps", "edges_per_cycle",
                                      "vpe_starvation_cycles"]))
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench.harness import bench_graph_spec, format_table
    from repro.sweep import GraphSpec, plan_jobs
    from repro.sweep.jobs import parse_axis_value

    if args.figure is not None:
        return _cmd_sweep_figure(args)

    algorithms = []
    for name in args.algorithms.split(","):
        name = name.strip().upper()
        if name in ("PR", "PAGERANK"):
            algorithms.append(("PR", {"iterations": args.pr_iterations}))
        else:
            algorithms.append(name)

    keys = [key.strip().upper() for key in args.datasets.split(",")]
    for key in keys:
        if key not in TABLE2:
            print(f"unknown dataset {key!r}; known: {sorted(TABLE2)}",
                  file=sys.stderr)
            return 2

    names = sorted(_CONFIG_MAKERS) if args.configs == "all" else [
        c.strip() for c in args.configs.split(",")]
    configs = {}
    for name in names:
        if name not in _CONFIG_MAKERS:
            print(f"unknown config {name!r}; known: {sorted(_CONFIG_MAKERS)}",
                  file=sys.stderr)
            return 2
        cfg = _CONFIG_MAKERS[name]()
        configs[cfg.name] = cfg

    axis_texts = {}
    for spec in args.axis:
        field, _, values = spec.partition("=")
        if not values:
            print(f"--axis expects FIELD=V1,V2,..., got {spec!r}", file=sys.stderr)
            return 2
        axis_texts[field.strip()] = [v.strip() for v in values.split(",")]

    graphs = [GraphSpec(key, scale=args.scale) if args.scale
              else bench_graph_spec(key) for key in keys]
    sweep_axes = {field: [parse_axis_value(field, v) for v in texts]
                  for field, texts in axis_texts.items()}
    jobs = plan_jobs(algorithms, graphs, configs,
                     sweep_axes=sweep_axes or None, source=args.source)
    with _session_for(args) as session:
        outcome = session.sweep(jobs)

    rows = []
    for job, stats in zip(outcome.jobs, outcome.stats):
        row = {"algorithm": job.tags["algorithm"], "dataset": job.tags["graph"],
               "config": job.tags["config"]}
        for axis in sweep_axes:
            row[axis] = job.tags[axis]
        row.update(iterations=stats.iterations, cycles=stats.total_cycles,
                   edges=stats.edges_processed,
                   frequency_ghz=round(stats.frequency_ghz, 3),
                   gteps=round(stats.gteps, 3))
        rows.append(row)
    print(format_table(rows, title=f"sweep: {len(jobs)} jobs"))
    hit_pct = 100.0 * outcome.hit_rate
    print(f"jobs: {len(jobs)}  executed: {outcome.executed}  "
          f"cache hits: {outcome.cache_hits} ({hit_pct:.0f}%)  "
          f"workers: {outcome.workers_used}  "
          f"wall: {outcome.wall_seconds:.2f}s")
    return 0


def _cmd_sweep_figure(args) -> int:
    """``repro sweep --figure fig8``: warm the cache for one figure and
    print each of its sections' table and chart."""
    from repro.bench.regen import RegenContext, SECTIONS, resolve_sections

    # a figure owns its job matrix: refuse (don't silently ignore) the
    # free-form matrix flags, whose values could not take effect
    conflicting = [flag for flag, given in (
        ("--algorithms", args.algorithms != "BFS,SSSP,SSWP,PR"),
        ("--datasets", args.datasets != "R14"),
        ("--configs", args.configs != "all"),
        ("--scale", args.scale is not None),
        ("--axis", bool(args.axis)),
        ("--source", args.source != 0),
        ("--pr-iterations", args.pr_iterations != 2),
    ) if given]
    if conflicting:
        print(f"--figure runs that figure's own job matrix; "
              f"{', '.join(conflicting)} cannot apply (dataset scale comes "
              f"from the REPRO_SCALE environment variable)", file=sys.stderr)
        return 2

    with _session_for(args) as session:
        # figure sections plan their own jobs; route their sweeps
        # through the session so --connect reuses the daemon's
        # loaded graphs and shared cache
        keys = resolve_sections([args.figure])
        ctx = RegenContext(session.sweep)
        executed = hits = planned = 0
        for key in keys:
            spec = SECTIONS[key]
            rows, acct = spec.build(ctx)
            print(spec.render(rows))
            if spec.chart is not None:
                print(spec.chart(rows))
            executed += acct["executed"]
            hits += acct["cache_hits"]
            planned += acct["jobs"]
    print(f"figure: {args.figure}  sections: {len(keys)}  jobs: {planned}  "
          f"executed: {executed}  cache hits: {hits}")
    return 0


def _cmd_report(args) -> int:
    from repro.bench.regen import FIGURE_SECTIONS, SECTIONS

    if args.list_sections:
        print("sections (report order):")
        for key in SECTIONS:
            print(f"  {key}")
        print("figure aliases:")
        for alias, keys in FIGURE_SECTIONS.items():
            print(f"  {alias:10s} -> {', '.join(keys)}")
        return 0

    def _progress(record):
        mode = ("sweep" if record["simulated"] else "model")
        print(f"  {record['section']:28s} {record['rows']:3d} rows  "
              f"[{mode}] jobs: {record['jobs']}  hits: {record['cache_hits']}  "
              f"executed: {record['executed']}  "
              f"wall: {record['wall_seconds']:.2f}s")

    with _session_for(args) as session:
        report = session.report(
            args.results_dir,
            sections=args.section or None,
            out=args.out,
            charts=args.charts,
            on_progress=_progress,
        )
    hit_pct = (100.0 * report.cache_hits / report.total_jobs
               if report.total_jobs else 0.0)
    print(f"sections: {len(report.sections)}  jobs: {report.total_jobs}  "
          f"cache hits: {report.cache_hits} ({hit_pct:.0f}%)  "
          f"executed: {report.executed}  wall: {report.wall_seconds:.2f}s")
    print(f"wrote {report.report_path}")
    print(f"wrote {report.provenance_path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.daemon import ServeDaemon

    if args.verb is not None:
        return _cmd_serve_verb(args)
    if args.socket is None:
        print("serve: --socket PATH is required to start a daemon "
              "(or pass a verb: `repro serve reload|status "
              "--connect SOCKET`)", file=sys.stderr)
        return 2
    cache = None if args.no_cache else args.cache_dir
    daemon = ServeDaemon(args.socket, cache_dir=cache, workers=args.jobs,
                         engine=args.engine)
    print(f"repro serve: socket {args.socket}  "
          f"workers: {daemon.workers}  "
          f"cache: {cache or '(none)'}  "
          f"code version: {daemon.version[:12]}", flush=True)
    try:
        asyncio.run(daemon.run(
            on_started=lambda: print("ready", flush=True)))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_verb(args) -> int:
    """``repro serve reload|status --connect SOCKET`` — client verbs
    against a running daemon (the daemon-side behavior is documented in
    docs/serving.md; these are thin ``ServeClient`` front ends)."""
    from repro.serve.client import ServeClient

    if args.connect is None:
        print(f"serve {args.verb}: --connect SOCKET is required "
              "(the running daemon to talk to)", file=sys.stderr)
        return 2
    client = ServeClient(args.connect)
    if args.verb == "reload":
        reply = client.reload()
        print(f"reloaded: code version {reply.code_version[:12]} "
              f"({'changed' if reply.changed else 'unchanged'})")
        if reply.changed:
            print("the daemon stopped: it runs the code it started "
                  "with; restart it to serve the new code")
    else:
        reply = client.status()
        print(f"workers: {reply.workers}  "
              f"uptime: {reply.uptime_seconds:.0f}s")
        print(f"executed: {reply.executed}  "
              f"cache hits: {reply.cache_hits}  "
              f"deduped: {reply.deduped}")
    return 0


#: Suffix multipliers for ``--max-age`` (seconds) and ``--max-bytes``.
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
_SIZE_UNITS = {"b": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def _parse_suffixed(text: str, units: dict, what: str) -> float:
    text = text.strip().lower()
    suffix = text[-1:] if text[-1:] in units else ""
    number = text[:-1] if suffix else text
    try:
        value = float(number) * units[suffix or list(units)[0]]
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"malformed {what} {text!r}; expected NUMBER[{'|'.join(units)}]")
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {text!r}")
    return value


def parse_age_seconds(text: str) -> float:
    """``30m`` / ``12h`` / ``7d`` / plain seconds -> seconds."""
    return _parse_suffixed(text, _AGE_UNITS, "age")


def parse_size_bytes(text: str) -> int:
    """``512K`` / ``100M`` / ``2G`` / plain bytes -> bytes."""
    return int(_parse_suffixed(text, _SIZE_UNITS, "size"))


def _cmd_cache(args) -> int:
    from repro.sweep import ResultCache

    # inspection/GC must not mkdir the cache as a side effect: a typoed
    # path should be an error, not a fresh empty directory
    if not os.path.isdir(args.cache_dir):
        print(f"cache {args.cache_command} failed: no such cache directory: "
              f"{args.cache_dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "info":
        entries = cache.entries()
        total = sum(e.size_bytes for e in entries)
        print(f"cache: {cache.root}")
        print(f"entries: {len(entries)}  bytes: {total}")
        if entries:
            import time as _time
            now = _time.time()
            print(f"oldest: {now - entries[0].mtime:.0f}s  "
                  f"newest: {now - entries[-1].mtime:.0f}s")
        return 0

    # gc
    max_age = (parse_age_seconds(args.max_age)
               if args.max_age is not None else None)
    max_bytes = (parse_size_bytes(args.max_bytes)
                 if args.max_bytes is not None else None)
    if max_age is None and max_bytes is None:
        print("cache gc: nothing to do (give --max-age and/or --max-bytes)",
              file=sys.stderr)
        return 2
    stats = cache.gc(max_age_seconds=max_age, max_bytes=max_bytes,
                     dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"cache gc: scanned {stats.scanned}  {verb} {stats.removed} "
          f"({stats.bytes_freed} bytes)  kept {stats.scanned - stats.removed} "
          f"({stats.bytes_kept} bytes)")
    return 0


def _cmd_netlist(args) -> int:
    from repro.mdp import build_netlist, emit_verilog, netlist_summary
    net = build_netlist(args.channels, args.radix, fifo_depth=args.depth)
    for key, value in netlist_summary(net).items():
        print(f"{key:20s}: {value}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_verilog(net))
        print(f"wrote {args.output}")
    return 0


def _cmd_datasets(args) -> int:
    from repro.bench.harness import format_table

    rows = []
    for key in DATASET_ORDER:
        spec = TABLE2[key]
        rows.append({
            "name": key,
            "vertices": spec.num_vertices,
            "edges": spec.num_edges,
            "degree": spec.degree,
            "description": spec.description,
        })
    print(format_table(rows, title="Table 2: benchmark datasets"))
    return 0


def _cmd_frequency(args) -> int:
    from repro.hw import (
        crossbar_frequency_ghz,
        design_frequency_ghz,
        mdp_frequency_ghz,
    )
    if args.crossbar_ports:
        print(f"crossbar({args.crossbar_ports} ports): "
              f"{crossbar_frequency_ghz(args.crossbar_ports):.3f} GHz")
    if args.mdp_channels:
        print(f"mdp({args.mdp_channels} channels, radix {args.radix}): "
              f"{mdp_frequency_ghz(args.mdp_channels, args.radix):.3f} GHz")
    print(f"design frequency (capped at 1 GHz target): "
          f"{design_frequency_ghz(crossbar_ports=args.crossbar_ports, mdp_channels=args.mdp_channels, mdp_radix=args.radix):.3f} GHz")
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())

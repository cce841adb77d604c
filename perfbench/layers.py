"""Per-layer metrics of a traced run, from its spans.

Every time is CPU seconds per pass unless its name says otherwise, and
every count is per pass, so both compare across runs of different
length.  Only spans inside the traced window count.
"""

from __future__ import annotations

import statistics

from tracing import SpanIndex

#: metric -> (unit, layers whose wrappers feed it)
LAYER_METRICS = {
    "graph.load_s": ("s", ("graph",)),
    "graph.loads": ("count", ("graph",)),
    "engine.build_s": ("s", ("accel",)),
    "engine.builds": ("count", ("accel",)),
    "engine.scatter_s": ("s", ("accel.engine",)),
    "engine.phases": ("count", ("accel.engine",)),
    "engine.glue_s": ("s", ("accel.engine", "kernel")),
    "engine.ns_per_cycle.GraphDynS": ("ns/cycle", ("accel.engine",)),
    "engine.ns_per_cycle.HiGraph-mini": ("ns/cycle", ("accel.engine",)),
    "engine.ns_per_cycle.HiGraph": ("ns/cycle", ("accel.engine",)),
    "kernel.march_s": ("s", ("kernel",)),
    "kernel.calls": ("count", ("kernel",)),
    "kernel.phase_share": ("ratio", ("accel.engine", "kernel")),
    "apply_s": ("s", ("algorithms",)),
    "sweep.overhead_s": ("s", ("sweep",)),
    "sweep.code_version_s": ("s", ("sweep",)),
    "cache.put_s": ("s", ("sweep",)),
    "cache.put_wait_s": ("s", ("sweep",)),
    "cache.puts": ("count", ("sweep",)),
    "cache.get_s": ("s", ("sweep",)),
    "cache.gets": ("count", ("sweep",)),
    "cache.hit_ratio": ("ratio", ("sweep",)),
    "regen.render_s": ("s", ("bench",)),
    "report.build_s": ("s", ("bench",)),
    "regen.self_s": ("s", ("bench",)),
    "serve.daemon_s": ("s", ("serve",)),
    "serve.codec_s": ("s", ("serve",)),
    "serve.scheduler_s": ("s", ("serve",)),
    "serve.transport_s": ("s", ("serve",)),
    "serve.wall_p50_ms": ("ms", ()),
    "serve.wall_p99_ms": ("ms", ()),
    "sim.cycles": ("count", ()),
    "sim.edges": ("count", ()),
    "trace.overhead": ("ratio", ()),
    "setup.imports_s": ("s", ()),
    "setup.kernel_s": ("s", ()),
    "setup.graphs_s": ("s", ()),
    "setup.fill_s": ("s", ()),
    "setup.daemon_s": ("s", ()),
}


def layer_metrics(spans: list[tuple], missing: dict[str, str],
                  window: tuple[int, int], traced: list, untraced: list,
                  op_ids: dict, setup_parts: dict[str, float]):
    """(metrics, notes): ``metrics`` maps every name in LAYER_METRICS to
    its value; ``notes`` says why a value is missing or undefined."""
    lo, hi = window
    index = SpanIndex([s for s in spans if lo <= s[4] and s[5] <= hi])
    n = len(traced)
    notes: dict[str, str] = {}
    m: dict[str, float] = {}

    def per(value: float) -> float:
        return value / n

    m["graph.load_s"] = per(index.cpu_s("graph.load"))
    m["graph.loads"] = per(index.count("graph.load"))
    m["engine.build_s"] = per(index.cpu_s("engine.build"))
    m["engine.builds"] = per(index.count("engine.build"))
    scatter = index.cpu_s("engine.scatter")
    phases = index.count("engine.scatter")
    march_in_scatter = index.child_cpu_s("engine.scatter", "kernel.march")
    m["engine.scatter_s"] = per(scatter)
    m["engine.phases"] = per(phases)
    m["engine.glue_s"] = per(scatter - march_in_scatter)
    for design in ("GraphDynS", "HiGraph-mini", "HiGraph"):
        name = f"engine.ns_per_cycle.{design}"
        ns, ops = 0, set()
        for span in index.select("engine.scatter"):
            owner = op_ids.get(span[2])
            if owner is not None and owner[0] == design:
                ns += span[6]
                ops.add(span[2])
        cycles = sum(op_ids[op][1] for op in ops)
        m[name] = ns / cycles if cycles else 0.0
        if not m[name]:
            notes[name] = "no traced scatter phase of this design"
    calls = index.count("kernel.march")
    m["kernel.march_s"] = per(index.cpu_s("kernel.march"))
    m["kernel.calls"] = per(calls)
    m["kernel.phase_share"] = calls / phases if phases else 0.0
    if not phases:
        notes["kernel.phase_share"] = "no scatter phases"
    m["apply_s"] = per(index.cpu_s("apply"))
    m["sweep.overhead_s"] = per(index.self_cpu_s("sweep.run_sweep"))
    m["sweep.code_version_s"] = per(index.cpu_s("sweep.code_version"))
    m["cache.put_s"] = per(index.cpu_s("cache.put"))
    m["cache.put_wait_s"] = per(index.wall_s("cache.put")
                                - index.cpu_s("cache.put"))
    m["cache.puts"] = per(index.count("cache.put"))
    gets = index.count("cache.get")
    m["cache.get_s"] = per(index.cpu_s("cache.get"))
    m["cache.gets"] = per(gets)
    m["cache.hit_ratio"] = index.hits("cache.get") / gets if gets else 0.0
    if not gets:
        notes["cache.hit_ratio"] = "no cache reads"
    m["regen.render_s"] = per(index.cpu_s("regen.format_table")
                              + index.cpu_s("regen.save_rows"))
    m["report.build_s"] = per(index.cpu_s("report.build"))
    m["regen.self_s"] = per(index.self_cpu_s("regen.regenerate"))
    m["serve.daemon_s"] = per(index.cpu_s("serve.dispatch"))
    m["serve.codec_s"] = per(index.cpu_s("serve.codec"))
    m["serve.scheduler_s"] = per(index.cpu_s("serve.scheduler"))
    m["serve.transport_s"] = per(index.wall_s("serve.request")
                                 - index.wall_s("serve.dispatch"))
    # what a client waits for, from the untraced passes: wall clock
    # sees what the CPU clocks behind op_p50_ms cannot (wake-ups, steal)
    walls = [op.wall for p in untraced for op in p.ops if op.wall]
    m["serve.wall_p50_ms"] = percentile(walls, 50) * 1000.0
    m["serve.wall_p99_ms"] = percentile(walls, 99) * 1000.0
    if not walls:
        notes["serve.wall_p50_ms"] = notes["serve.wall_p99_ms"] = (
            "no serve requests in this workload")
    m["sim.cycles"] = per(sum(p.cycles for p in traced))
    m["sim.edges"] = per(sum(p.edges for p in traced))
    m["trace.overhead"] = (
        (sum(p.cpu_s for p in traced) / n)
        / (sum(p.cpu_s for p in untraced) / len(untraced)) - 1.0)
    for part in ("imports", "kernel", "graphs", "fill", "daemon"):
        m[f"setup.{part}_s"] = setup_parts.get(part, 0.0)

    for name, (_unit, layers) in LAYER_METRICS.items():
        for layer in layers:
            if layer in missing:
                m[name] = 0.0
                notes[name] = f"missing: {missing[layer]}"
    return m, notes


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile as ``statistics.quantiles`` cuts it; 0
    for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]

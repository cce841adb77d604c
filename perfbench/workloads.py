"""The two workloads: set-up, one timed pass, output checks, metrics.

Host time is CPU time (this process, its reaped children and, for the
served report, the daemon), because wall time on a shared VM also
counts hypervisor steal.  A served report also records its wall-clock
round trip, which is what a client waits for; it is reported, not gated.

A *pass* is one sweep through a workload's operations: the 72 cold
Fig. 8 jobs, or one report regeneration requested from the daemon.
Every pass of a run does the same work, so per-pass counts repeat
exactly on the same graphs, and a run measures a fixed number of passes
(:attr:`Workload.pass_seconds` sizes it), so memory that grows with the
work done compares across runs too.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as jobs_mod
from env import ROOT, SetupError

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_counters.json"

#: Seconds a daemon gets to bind its socket, or to exit after shutdown.
DAEMON_TIMEOUT = 60.0
#: Per-request client timeout; a request that takes longer has failed.
REQUEST_TIMEOUT = 30.0
#: Worker processes of the set-up cache fills (one per CPU here).
FILL_WORKERS = 2


def cpu_total() -> float:
    """CPU seconds of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def proc_cpu(pid: int) -> float:
    """CPU seconds a running process has used so far, all threads.

    Read from the kernel's clock of that process (CPUCLOCK_SCHED, the
    clock id ``clock_getcpuclockid`` returns), which counts nanoseconds
    where ``/proc/PID/stat`` counts 10 ms ticks.
    """
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError as exc:
        raise SetupError(f"cannot read the CPU clock of {pid}: {exc}") from exc


def reset_peak_rss(pid: int) -> None:
    """Restart a process's peak-RSS count from its current RSS."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError as exc:
        raise SetupError(f"cannot reset the peak RSS of {pid}: {exc}") from exc


def peak_rss_mb(pid: int) -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for process {pid}")


def run_child(args: list[str], what: str) -> None:
    """Run one benchmark helper to completion; its CPU joins ours."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"{what} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")


def load_kernel_or_fail():
    """The compiled march kernel; a run without it measures nothing."""
    from repro.accel.engine import soakernel
    lib = soakernel.load_kernel()
    if lib is None:
        raise SetupError("soakernel.load_kernel() returned None: the soa "
                         "engine would fall back to its Python march")
    return lib


@dataclass
class Op:
    seconds: float                  # CPU (client and daemon, when served)
    ok: bool = True
    why: str = ""
    wall: float = 0.0               # a serve request's round trip


def failure(exc: Exception) -> str:
    """How a failed operation's exception reads in the run's output."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Pass:
    ops: list[Op]
    cpu_s: float                    # whole pass, daemon included
    cycles: int = 0                 # simulated cycles of the results
    edges: int = 0
    stats: list = field(default_factory=list)
    peak_rss_mb: float = 0.0        # of the process running the operations


class Workload:
    """What run.py needs of a workload; each subclass is one."""

    name = ""
    #: about how long one pass takes on a 2-CPU VM; sizes a run
    pass_seconds = 1.0

    def __init__(self, work: Path, graph_seed: int | None = None) -> None:
        self.work = work
        #: generator seed of the planned graphs (None: Table 2's)
        self.graph_seed = graph_seed
        #: set-up phase -> CPU seconds, for the traced breakdown
        self.setup_parts: dict[str, float] = {}
        self.passes_run = 0
        self.check_level = ""

    def stamp(self, part: str, since: float) -> float:
        now = cpu_total()
        self.setup_parts[part] = self.setup_parts.get(part, 0.0) + now - since
        return now

    # subclasses --------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def finish(self, passes: list[Pass]) -> None:
        """Check outputs after the timed passes (marks failed ops)."""

    def teardown(self) -> None:
        """Stop what set-up started."""

    def start_tracing(self, trace_dir: Path) -> None:
        """Put the workload's other processes under the tracer too."""

    def remote_spans(self) -> tuple[list, dict]:
        """Spans and missing targets of those processes."""
        return [], {}

    def setup_cpu(self) -> float:
        return cpu_total()

    def ops_pid(self) -> int:
        """The process that runs the operations."""
        return os.getpid()

    def op_ids(self) -> dict:
        """Tracer op id -> (design, scatter cycles), cold workload only."""
        return {}


# ----------------------------------------------------------------------
# Cold Fig. 8 sweep
# ----------------------------------------------------------------------

class Fig8Cold(Workload):
    """One fresh-cache ``LocalSession.sweep`` of the Fig. 8 matrix per pass."""

    name = jobs_mod.COLD_WORKLOAD
    pass_seconds = 7.0

    def setup(self) -> None:
        t = cpu_total()
        load_kernel_or_fail()
        t = self.stamp("kernel", t)
        # plan order for every seed: over four seeds, a seeded order
        # moved the peak RSS by 14% and op_p50_ms by 15%
        self.jobs = jobs_mod.cold_jobs(self.graph_seed)
        # resolve each graph once, into the executor's per-process memo,
        # exactly as a sweep's first job on that graph would
        from repro.sweep import executor
        from repro.sweep.jobs import graph_fingerprint
        self.graphs = {}
        for job in self.jobs:
            fp = graph_fingerprint(job.graph)
            if fp not in self.graphs:
                self.graphs[fp] = job.resolve_graph()
        memo = getattr(executor, "_GRAPH_MEMO", None)
        if isinstance(memo, dict):
            memo.update(self.graphs)
        self.stamp("graphs", t)
        self._ops: dict[int, tuple[str, int]] = {}

    def run_pass(self, tracer=None) -> Pass:
        from repro.api import LocalSession
        cache_dir = self.work / f"cache-{self.passes_run}"
        base = self.passes_run * len(self.jobs)
        self.passes_run += 1
        marks: list[float] = []

        def progress(done, total, description):
            marks.append(time.process_time())
            if tracer is not None:
                tracer.op = base + done

        if tracer is not None:
            tracer.op = base
        error = ""
        stats: list = []
        t0 = time.process_time()
        try:
            with LocalSession(cache_dir=cache_dir, num_workers=1) as session:
                stats = session.sweep(self.jobs, on_progress=progress).stats
        except Exception as exc:    # any raise is a failed job, not a crash
            error = failure(exc)
        t1 = time.process_time()
        if tracer is not None:
            tracer.op = None
        shutil.rmtree(cache_dir, ignore_errors=True)
        edges = [t0, *marks]
        ops = [Op(b - a) for a, b in zip(edges, edges[1:])]
        if error:
            # the job after the last completed one raised; the rest of
            # the pass never ran
            ops.append(Op(t1 - edges[-1], ok=False, why=error))
            stats = [None] * len(ops)
        for i, result in enumerate(stats):
            if result is not None:
                self._ops[base + i] = (self.jobs[i].config.name,
                                       int(result.scatter_cycles))
        good = [s for s in stats if s is not None]
        return Pass(ops=ops, cpu_s=t1 - t0,
                    cycles=sum(int(s.total_cycles) for s in good),
                    edges=sum(int(s.edges_processed) for s in good),
                    stats=stats)

    def op_ids(self) -> dict:
        return self._ops

    def finish(self, passes: list[Pass]) -> None:
        from repro.algorithms.reference import run_reference
        from repro.sweep.jobs import graph_fingerprint

        golden = None
        if REFERENCE.is_file():
            recorded = json.loads(REFERENCE.read_text())["graph_seeds"]
            golden = recorded.get(jobs_mod.graph_key(self.graph_seed),
                                  {}).get(self.name)
        self.check_level = (
            "reference-engine counters, golden model, pass-to-pass identity"
            if golden else
            "golden model (iterations, edges, actives), vPE cycle balance, "
            "pass-to-pass identity; no reference-engine counters for these "
            "graphs")

        def family(job) -> tuple:
            return (job.algorithm, repr(job.algorithm_kwargs),
                    graph_fingerprint(job.graph))

        # (iterations, edges, actives), or why the model could not run:
        # it shares Algorithm.apply with the engines, so a broken
        # algorithm breaks it too, and that must fail jobs, not the run
        functional: dict[tuple, tuple[int, int, int] | str] = {}
        for job in self.jobs:
            key = family(job)
            if key not in functional:
                try:
                    ref = run_reference(
                        self.graphs[key[2]], job.make_algorithm(),
                        source=job.source, max_iterations=job.max_iterations)
                    functional[key] = (
                        ref.num_iterations, ref.total_edges,
                        sum(int(t.active_vertices.size)
                            for t in ref.iterations))
                except Exception as exc:
                    functional[key] = f"golden model raised {failure(exc)}"
        first: dict[str, dict] = {}
        for p in passes:
            for job, stats, op in zip(self.jobs, p.stats, p.ops):
                if stats is None or not op.ok:
                    continue
                jid = jobs_mod.job_id(job)
                got = jobs_mod.counters(stats)
                key = family(job)
                problems = []
                if golden is not None and golden.get(jid) != got:
                    problems.append(f"counters {got} != reference "
                                    f"{golden.get(jid)}")
                observed = (stats.iterations, stats.edges_processed,
                            stats.active_vertices_total)
                model = functional[key]
                if isinstance(model, str):
                    problems.append(model)
                elif observed != model:
                    problems.append(f"(iterations, edges, actives) "
                                    f"{observed} != golden model {model}")
                m = job.config.back_channels
                if (stats.vpe_busy_cycles + stats.vpe_starvation_cycles
                        != m * stats.scatter_cycles):
                    problems.append("vPE busy + starved != m * scatter")
                if first.setdefault(jid, got) != got:
                    problems.append(f"counters {got} differ from the first "
                                    f"pass {first[jid]}")
                if problems:
                    op.ok = False
                    op.why = f"{jid}: " + "; ".join(problems)


# ----------------------------------------------------------------------
# Served report
# ----------------------------------------------------------------------

class ReportServe(Workload):
    """Closed loop of ``RemoteSession.report`` requests over every section,
    answered by a ``repro serve`` daemon over a cache filled during set-up."""

    name = "report_serve"
    pass_seconds = 0.4
    #: untimed reports that let the daemon's lazy first-request costs settle
    warmup_passes = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.daemon: subprocess.Popen | None = None
        # client and daemon get a CPU each: neither evicts the other's
        # caches, and the wake-up between them is idle time, which no
        # CPU clock counts
        self.own_cpus = os.sched_getaffinity(0)
        self.client_cpu = {min(self.own_cpus)}
        self.daemon_cpu = {max(self.own_cpus)}
        self.check_level = ("every reply a success that simulated nothing and "
                            "left REPORT.md and every section table "
                            "byte-identical to the set-up fill's")

    def setup(self) -> None:
        t = cpu_total()
        self.cache_dir = self.work / "cache"
        self.results_dir = self.work / "results"
        run_child([str(HERE / "fill.py"),
                   "--workers", str(FILL_WORKERS),
                   "--cache-dir", str(self.cache_dir),
                   "--results-dir", str(self.results_dir)], "report fill")
        t = self.stamp("fill", t)
        load_kernel_or_fail()
        t = self.stamp("kernel", t)
        self.expected = self._outputs()
        os.sched_setaffinity(0, self.client_cpu)
        self.start_daemon(trace_out=None)
        self.stamp("daemon", t)
        self.setup_parts["daemon"] += proc_cpu(self.daemon.pid)

    def _outputs(self) -> dict[str, bytes]:
        """REPORT.md and every section table, as the last report left them."""
        out = {}
        for path in sorted(self.results_dir.iterdir()):
            if path.suffix in (".md", ".txt"):
                data = path.read_bytes()
                if path.name == "REPORT.md":
                    # the one line that changes when a run spans midnight
                    data = b"\n".join(line for line in data.split(b"\n")
                                      if not line.startswith(b"Generated "))
                out[path.name] = data
        return out

    # daemon lifecycle -------------------------------------------------
    def start_daemon(self, trace_out: Path | None) -> None:
        from repro.api import RemoteSession
        from repro.errors import ReproError
        socket = os.path.relpath(self.work / "serve.sock", ROOT)
        args = [sys.executable, str(HERE / "daemon.py"), "--socket", socket,
                "--cache-dir", str(self.cache_dir)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        with open(self.work / "daemon.log", "ab") as log:
            self.daemon = subprocess.Popen(args, cwd=ROOT, stdout=log,
                                           stderr=log)
        os.sched_setaffinity(self.daemon.pid, self.daemon_cpu)
        self.session = RemoteSession(socket, timeout=REQUEST_TIMEOUT)
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while True:
            try:
                self.session.ping()
                break
            except (ReproError, OSError):
                if (self.daemon.poll() is not None
                        or time.monotonic() > deadline):
                    self.stop_daemon()
                    raise SetupError(
                        "repro serve did not start; its log: "
                        + (self.work / "daemon.log").read_text()[-2000:])
                time.sleep(0.02)
        for _ in range(self.warmup_passes):
            self.session.report(self.results_dir)

    def stop_daemon(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        from repro.errors import ReproError
        try:
            self.session.client.shutdown()
        except (ReproError, OSError, AttributeError):
            daemon.terminate()
        try:
            daemon.wait(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()

    def teardown(self) -> None:
        self.stop_daemon()
        os.sched_setaffinity(0, self.own_cpus)

    def start_tracing(self, trace_dir: Path) -> None:
        self.stop_daemon()
        self.trace_out = trace_dir / "daemon-spans.json"
        self.start_daemon(trace_out=self.trace_out)

    def remote_spans(self) -> tuple[list, dict]:
        from tracing import load_dump
        self.stop_daemon()
        return load_dump(self.trace_out)

    def setup_cpu(self) -> float:
        return cpu_total() + proc_cpu(self.daemon.pid)

    def ops_pid(self) -> int:
        return self.daemon.pid

    # ------------------------------------------------------------------
    def run_pass(self, tracer=None) -> Pass:
        self.passes_run += 1
        if tracer is not None:
            tracer.op = self.passes_run
        pid = self.daemon.pid
        c, d = time.process_time(), proc_cpu(pid)
        w = time.perf_counter()
        try:
            report, error = self.session.report(self.results_dir), ""
        except Exception as exc:    # error reply, refused, timed out
            report, error = None, failure(exc)
        wall = time.perf_counter() - w
        cpu = time.process_time() - c + proc_cpu(pid) - d
        if tracer is not None:
            tracer.op = None
        op = Op(cpu, wall=wall)
        if error:
            op.ok, op.why = False, error
        elif report.executed:
            op.ok, op.why = False, f"{report.executed} simulations ran"
        else:
            got = self._outputs()
            changed = sorted(name for name in set(got) | set(self.expected)
                             if got.get(name) != self.expected.get(name))
            if changed:
                op.ok, op.why = False, f"outputs changed: {changed}"
        return Pass(ops=[op], cpu_s=cpu)

    def finish(self, passes: list[Pass]) -> None:
        from repro.accel.stats import SimStats
        cycles = edges = 0
        for path in self.cache_dir.glob("*/*.json"):
            stats = SimStats.from_dict(json.loads(path.read_text())["stats"])
            cycles += stats.total_cycles
            edges += stats.edges_processed
        for p in passes:
            p.cycles, p.edges = cycles, edges


WORKLOADS = {w.name: w for w in (Fig8Cold, ReportServe)}

"""Spans around the program's entry points, installed from outside.

A :class:`Tracer` replaces each target at the name its callers look up
with a wrapper that records one span: name, start, end (monotonic
nanoseconds, comparable across processes on one host), CPU nanoseconds
of the calling thread, the parent span and the operation id.  Spans stay
in memory; :meth:`Tracer.dump` writes them out when the process ends.

A target that no longer exists is reported in :attr:`Tracer.missing`
under its layer name instead of failing the run, so the layer's metrics
can be marked missing with the reason.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time

_NOW = time.monotonic_ns
_CPU = time.thread_time_ns

#: (layer, span name, "module:Class" or "module", attribute).  Functions
#: are rebound in every loaded ``repro`` module that imported them by
#: name; methods are replaced on their class (for ``Algorithm.apply``,
#: on every subclass that defines it).
TARGETS = (
    ("graph", "graph.load", "repro.graph.datasets", "load"),
    ("accel", "engine.build", "repro.accel.accelerator:AcceleratorSim",
     "__init__"),
    ("accel.engine", "engine.scatter", "repro.accel.engine.soa:SoaEngine",
     "scatter_phase"),
    ("kernel", "kernel.march", "repro.accel.engine.soakernel", "soa_march"),
    ("algorithms", "apply", "repro.algorithms.base:Algorithm", "apply"),
    ("sweep", "sweep.execute_job", "repro.sweep.executor", "execute_job"),
    ("sweep", "sweep.run_sweep", "repro.sweep.executor", "run_sweep"),
    ("sweep", "sweep.code_version", "repro.sweep.cache", "code_version"),
    ("sweep", "cache.get", "repro.sweep.cache:ResultCache", "get"),
    ("sweep", "cache.put", "repro.sweep.cache:ResultCache", "put"),
    ("bench", "regen.regenerate", "repro.bench.regen", "regenerate"),
    ("bench", "report.build", "repro.bench.report", "build_report"),
    ("bench", "regen.format_table", "repro.bench.harness", "format_table"),
    ("bench", "regen.save_rows", "repro.bench.harness", "save_rows"),
    ("serve", "serve.request", "repro.serve.client:ServeClient", "_request"),
    ("serve", "serve.dispatch", "repro.serve.daemon:ServeDaemon",
     "_dispatch"),
    ("serve", "serve.scheduler", "repro.serve.scheduler:Scheduler",
     "submit"),
    ("serve", "serve.scheduler", "repro.serve.scheduler:Scheduler",
     "run_jobs"),
    ("serve", "serve.codec", "repro.serve.protocol", "encode"),
    ("serve", "serve.codec", "repro.serve.protocol", "decode"),
    ("serve", "serve.codec", "repro.serve.protocol", "job_to_wire"),
    ("serve", "serve.codec", "repro.serve.protocol", "job_from_wire"),
)

#: Modules whose import binds the targets' names; imported before the
#: wrappers go in so that no later import binds an unwrapped original.
PRELOAD = ("repro.api", "repro.cli", "repro.bench.regen", "repro.bench.report",
           "repro.serve.client", "repro.serve.daemon", "repro.serve.scheduler",
           "repro.serve.workers", "repro.accel.engine.soa")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (id, parent, op, name, start_ns, end_ns, cpu_ns, hit)
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.missing: dict[str, str] = {}
        # ids stay unique when the daemon's spans join this process's
        self._ids = itertools.count(os.getpid() << 32)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        spans, ids, current = self.spans, self._ids, self._current

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, parent, op = next(ids), current.get(), self.op
                token = current.set(sid)
                w0, c0 = _NOW(), _CPU()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    c1, w1 = _CPU(), _NOW()
                    current.reset(token)
                    spans.append((sid, parent, op, name, w0, w1, c1 - c0,
                                  result is not None))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, op = next(ids), current.get(), self.op
            token = current.set(sid)
            w0, c0 = _NOW(), _CPU()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, w1 = _CPU(), _NOW()
                current.reset(token)
                spans.append((sid, parent, op, name, w0, w1, c1 - c0,
                              result is not None))
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target that exists; record the rest as missing."""
        for module in PRELOAD:
            # a module that fails here fails its targets below, which
            # report it under their layer
            with contextlib.suppress(ImportError):
                importlib.import_module(module)
        for layer, name, where, attr in TARGETS:
            try:
                self._install_one(name, where, attr)
            except (ImportError, AttributeError, TypeError) as exc:
                self.missing.setdefault(
                    layer, f"{where}.{attr}: {type(exc).__name__}: {exc}")
        return self

    def _install_one(self, name: str, where: str, attr: str) -> None:
        module_name, _, class_name = where.partition(":")
        module = importlib.import_module(module_name)
        if attr == "soa_march":
            lib = module.load_kernel()
            if lib is None:
                raise AttributeError("load_kernel() returned None")
            self._set(lib, attr, self.wrap(name, getattr(lib, attr)))
            return
        if not class_name:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for bound, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, bound, wrapped)
            return
        cls = getattr(module, class_name)
        classes = [cls]
        if attr == "apply":
            classes = _subclasses(cls)
        wrapped_any = False
        for owner in classes:
            if attr in vars(owner) and not getattr(
                    vars(owner)[attr], "__isabstractmethod__", False):
                self._set(owner, attr, self.wrap(name, vars(owner)[attr]))
                wrapped_any = True
        if not wrapped_any:
            raise AttributeError(f"no {class_name} defines {attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def load_dump(path) -> tuple[list[tuple], dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["missing"]


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


class SpanIndex:
    """Totals over a set of spans: CPU, wall and count per name.

    Self time is a span's time minus that of its direct children, so a
    layer's own work separates from the layers it calls.
    """

    def __init__(self, spans: list[tuple]) -> None:
        self.by_name: dict[str, list[tuple]] = {}
        self.children_cpu: dict[int, int] = {}
        for span in spans:
            self.by_name.setdefault(span[3], []).append(span)
            parent = span[1]
            if parent is not None:
                self.children_cpu[parent] = (
                    self.children_cpu.get(parent, 0) + span[6])

    def select(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.select(name))

    def cpu_s(self, name: str) -> float:
        return sum(s[6] for s in self.select(name)) / 1e9

    def wall_s(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.select(name)) / 1e9

    def self_cpu_s(self, name: str) -> float:
        return sum(s[6] - self.children_cpu.get(s[0], 0)
                   for s in self.select(name)) / 1e9

    def hits(self, name: str) -> int:
        return sum(1 for s in self.select(name) if s[7])

    def child_cpu_s(self, parent_name: str, child_name: str) -> float:
        parents = {s[0] for s in self.select(parent_name)}
        return sum(s[6] for s in self.select(child_name)
                   if s[1] in parents) / 1e9

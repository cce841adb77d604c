"""Fork-safety rules for the multiprocessing sweep layer.

``repro sweep`` forks worker processes (``pool.imap_unordered``) that
share one result-cache directory and, under the fork start method, a
copy-on-write snapshot of every module.  Three rule families guard the
hazards that creates:

* ``fork-shared-state`` — module-level mutable state mutated by code
  *reachable from a worker entry point* (interprocedurally, over the
  project call graph).  Each forked worker mutates its own copy, so
  writes are silently lost across processes — correct only when the
  state is a per-process cache whose misses are recomputed, which is
  exactly what the justification beside its inline allow must say.
* ``fork-atomic-write`` — write-mode ``open(...)`` / ``write_text``
  calls in the sweep layer that bypass ``repro.sweep.atomic``: two
  racing workers interleave or tear the file.  ``atomic.py`` itself is
  the blessed implementation and exempt.
* ``fork-capture`` — locks, conditions or file handles bound at module
  level in the sweep layer.  A fork snapshots the lock state (a lock
  held during the fork deadlocks every child) and duplicates file
  descriptors (children interleave writes on a shared offset).

All three under-approximate via the call graph / AST: they flag only
flows the resolver can prove, never speculation.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import dotted_name, is_mutable_container
from repro.analysis.context import ModuleContext, Project
from repro.analysis.registry import rule

SWEEP_DIR = "src/repro/sweep"

#: The blessed atomic-write module (exempt from fork-atomic-write).
ATOMIC_PATH = "src/repro/sweep/atomic.py"

#: ``open`` mode characters that write.
_WRITE_MODES = frozenset("wax+")

#: Constructors whose results must not be bound at module level in
#: forked code (lock state / fd offsets are snapshotted by fork).
_CAPTURE_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "open",
})


# ----------------------------------------------------------------------
# fork-shared-state
# ----------------------------------------------------------------------

def _mutable_module_names(ctx: ModuleContext) -> dict[str, int]:
    """Module-level names bound to mutable containers: name -> line."""
    from repro.analysis.astutils import (assign_targets,
                                         module_level_statements)
    out: dict[str, int] = {}
    for stmt in module_level_statements(ctx.tree):
        for name, value, lineno in assign_targets(stmt):
            if value is not None and is_mutable_container(value):
                out.setdefault(name, lineno)
    return out


@rule("fork-shared-state", scope="project",
      description="mutable module state must not be mutated by code "
                  "reachable from a multiprocessing worker entry point")
def check_fork_shared_state(project: Project):
    from repro.analysis.dataflow import (fork_entry_points,
                                         module_global_mutations)
    sweep_modules = project.modules(under=(SWEEP_DIR,))
    if not sweep_modules:
        return
    graph = project.callgraph()
    entries = []
    for ctx in sweep_modules:
        try:
            entries.extend(fork_entry_points(graph, ctx))
        except SyntaxError:
            continue
    if not entries:
        return
    reach_by_entry = [(entry, graph.reachable([entry.worker]))
                      for entry in entries]
    reachable = set().union(*(r for _e, r in reach_by_entry))
    by_module: dict[str, set[str]] = {}
    for relpath, qualname in reachable:
        by_module.setdefault(relpath, set()).add(qualname)
    reported: set[tuple[str, str]] = set()
    for relpath, qualnames in sorted(by_module.items()):
        ctx = project.module(relpath)
        if ctx is None:
            continue
        try:
            mutables = _mutable_module_names(ctx)
            mutations = module_global_mutations(ctx)
        except SyntaxError:
            continue
        for mutation in mutations:
            if mutation.function not in qualnames:
                continue
            if mutation.name not in mutables:
                continue
            if (relpath, mutation.name) in reported:
                continue
            reported.add((relpath, mutation.name))
            # name the dispatch site that makes this a worker-side write
            key = (relpath, mutation.function)
            entry = next((e for e, reach in reach_by_entry
                          if key in reach), None)
            via = ""
            if entry is not None:
                via = (f"; workers enter via {entry.dispatcher} at "
                       f"{entry.caller[0]}:{entry.line}")
            yield ctx.finding(
                mutation.line,
                f"module state {mutation.name!r} (defined "
                f"{relpath}:{mutables[mutation.name]}) is mutated by "
                f"{mutation.function}() ({mutation.how}), which runs "
                f"inside forked workers{via} — per-process copies "
                f"diverge silently", symbol=mutation.name)


# ----------------------------------------------------------------------
# fork-atomic-write
# ----------------------------------------------------------------------

def _write_mode(call: ast.Call) -> str | None:
    """The mode string of an ``open``-style call when it writes."""
    mode_node = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if isinstance(mode_node, ast.Constant) \
            and isinstance(mode_node.value, str) \
            and set(mode_node.value) & _WRITE_MODES:
        return mode_node.value
    return None


@rule("fork-atomic-write", dirs=(SWEEP_DIR,),
      description="sweep-layer file writes must route through "
                  "repro.sweep.atomic (temp + fsync + os.replace)")
def check_fork_atomic_write(ctx: ModuleContext):
    if ctx.relpath == ATOMIC_PATH:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name == "open" or name.endswith(".open"):
            mode = _write_mode(node)
            if mode is not None:
                yield ctx.finding(
                    node.lineno,
                    f"direct open(..., {mode!r}) in the sweep layer — "
                    f"racing workers can interleave or tear the file; "
                    f"use repro.sweep.atomic instead",
                    symbol=f"open:{mode}")
        elif name.endswith(".write_text") or name.endswith(".write_bytes"):
            yield ctx.finding(
                node.lineno,
                f"direct {name.rsplit('.', 1)[1]}() in the sweep layer "
                f"is not atomic — a reader can observe a torn file; "
                f"use repro.sweep.atomic instead",
                symbol=name.rsplit(".", 1)[1])


# ----------------------------------------------------------------------
# fork-capture
# ----------------------------------------------------------------------

@rule("fork-capture", dirs=(SWEEP_DIR,),
      description="locks and file handles must not be bound at module "
                  "level in forked code (fork snapshots their state)")
def check_fork_capture(ctx: ModuleContext):
    from repro.analysis.astutils import (assign_targets,
                                         module_level_statements)
    for stmt in module_level_statements(ctx.tree):
        for name, value, lineno in assign_targets(stmt):
            if not isinstance(value, ast.Call):
                continue
            ctor = dotted_name(value.func).rsplit(".", 1)[-1]
            if ctor in _CAPTURE_CTORS:
                what = ("file handle" if ctor == "open"
                        else f"{ctor.lower()}")
                yield ctx.finding(
                    lineno,
                    f"module-level {what} {name!r} is captured by "
                    f"fork: children inherit its state (held locks "
                    f"deadlock; shared descriptors interleave) — "
                    f"create it per process or pass it explicitly",
                    symbol=name)

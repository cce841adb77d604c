"""``fork-atomic-write``: sweep-layer file writes go through
``repro.sweep.atomic``.

Separate processes — CLI sweeps, serve daemons, other hosts on a shared
mount — write one result-cache directory at once.  A write-mode
``open(...)`` or ``write_text`` in the sweep layer that bypasses the
atomic writer lets two racing writers interleave or tear a file, and a
reader observe half an entry.  ``atomic.py`` itself is the blessed
implementation and exempt.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import dotted_name
from repro.analysis.context import ModuleContext
from repro.analysis.registry import rule

SWEEP_DIR = "src/repro/sweep"

#: The blessed atomic-write module (exempt from fork-atomic-write).
ATOMIC_PATH = "src/repro/sweep/atomic.py"

#: ``open`` mode characters that write.
_WRITE_MODES = frozenset("wax+")


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
                    f"racing writers can interleave or tear the file; "
                    f"use repro.sweep.atomic instead",
                    symbol=f"open:{mode}")
        elif name.endswith(".write_text") or name.endswith(".write_bytes"):
            yield ctx.finding(
                node.lineno,
                f"direct {name.rsplit('.', 1)[1]}() in the sweep layer "
                f"is not atomic — a reader can observe a torn file; "
                f"use repro.sweep.atomic instead",
                symbol=name.rsplit(".", 1)[1])

"""``exception-hygiene``: error flow in the simulation core.

Two hazards, one rule:

* **bare/broad excepts** — ``except:`` or ``except Exception:`` in
  engine code can swallow the very invariant violations
  (:class:`~repro.errors.SimulationError`) the simulator raises to
  refuse producing wrong stats.  A broad except whose handler
  re-raises (cleanup-only) is allowed; a bare ``except:`` never is
  (it also catches ``KeyboardInterrupt``).
* **foreign raises** — deliberate errors must derive from
  :mod:`repro.errors`, so callers can catch library failures without
  swallowing genuine bugs.  Raising a *builtin* exception class
  directly is flagged (``NotImplementedError`` excepted — it is the
  conventional abstract-method marker).  Dual-inheritance shims like
  :class:`~repro.errors.FifoOverflowError` satisfy both worlds.
"""

from __future__ import annotations

import ast
import builtins

from repro.analysis.astutils import dotted_name
from repro.analysis.registry import rule
from repro.analysis.rules.state import CORE_DIRS

#: Builtin exception class names (computed, so new Python versions are
#: covered automatically).
_BUILTIN_EXCEPTIONS = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException))

#: Builtins that stay acceptable to raise directly.
_ALLOWED_BUILTINS = frozenset({"NotImplementedError", "StopIteration"})

_BROAD = ("Exception", "BaseException")


def _broad_names(handler_type: ast.AST | None) -> list[str]:
    """The broad class names an except clause catches."""
    if handler_type is None:
        return []
    nodes = handler_type.elts if isinstance(handler_type, ast.Tuple) \
        else [handler_type]
    return [dotted_name(n) for n in nodes if dotted_name(n) in _BROAD]


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a bare ``raise``."""
    return any(isinstance(node, ast.Raise) and node.exc is None
               for node in ast.walk(handler))


@rule("exception-hygiene", dirs=CORE_DIRS, description=(
    "no bare/broad excepts in engine code (cleanup-reraise allowed), "
    "and deliberately raised errors must derive from repro.errors"))
def check(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield ctx.finding(
                    node.lineno,
                    "bare except: catches everything including "
                    "KeyboardInterrupt and the simulator's own "
                    "invariant errors; name the exceptions",
                    symbol="bare-except")
            else:
                for name in _broad_names(node.type):
                    if not _reraises(node):
                        yield ctx.finding(
                            node.lineno,
                            f"except {name}: swallows SimulationError "
                            f"invariant violations; catch specific "
                            f"exceptions (a cleanup handler must "
                            f"re-raise)",
                            symbol=f"broad-except.{name}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
            if name in _BUILTIN_EXCEPTIONS \
                    and name not in _ALLOWED_BUILTINS:
                yield ctx.finding(
                    node.lineno,
                    f"raise {name}: engine errors must derive from "
                    f"repro.errors (so callers can catch library "
                    f"failures without masking real bugs); use or add "
                    f"a ReproError subclass — dual-inherit the builtin "
                    f"if callers rely on it (see FifoOverflowError)",
                    symbol=f"raise.{name}")

"""AST checks over ``src/repro``: hazards that a one-line edit brings in
and that no behavioural test runs into on purpose.

Every number the report reproduces rests on the two engines producing
byte-identical ``SimStats``, on simulators that share no state, and on
cache writers that cannot tear each other's files.  Each check below
maps a parsed module to its ``(line, symbol)`` findings.
``test_source_tree_is_clean`` runs each over every module in its scope
and requires none; ``test_seeded_defect_is_found`` appends one defect
to a real module in each scope and requires the check to name it; the
fixture tests hold each check to what it must and must not flag.
docs/testing.md says why each hazard matters.
"""

from __future__ import annotations

import ast
import builtins
import textwrap
from pathlib import Path
from typing import Iterator

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

Finding = tuple[int, str]        # (line, symbol)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------

#: Constructors whose result is a mutable container.  ``tuple``,
#: ``frozenset`` and ``MappingProxyType`` are the fixes, so not here.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict", "ChainMap",
})


def _is_mutable(value: ast.AST | None) -> bool:
    if isinstance(value, (ast.List, ast.ListComp, ast.Dict, ast.DictComp,
                          ast.Set, ast.SetComp)):
        return True
    return isinstance(value, ast.Call) \
        and _dotted(value.func).rsplit(".", 1)[-1] in _MUTABLE_CALLS


def _module_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, those in top-level ``if`` and ``try``
    blocks included, but none inside a definition."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


def _mutable_bindings(stmts: list[ast.stmt], qualifier: str
                      ) -> Iterator[Finding]:
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__" \
                    and _is_mutable(stmt.value):
                yield stmt.lineno, qualifier + target.id


def module_state(tree: ast.Module) -> Iterator[Finding]:
    """A module- or class-scope mutable container, which every
    simulator in the process shares."""
    for stmt in _module_statements(tree):
        yield from _mutable_bindings([stmt], "")
        if isinstance(stmt, ast.ClassDef):
            yield from _mutable_bindings(stmt.body, f"{stmt.name}.")


#: Callables that materialize their arguments' iteration order;
#: ``sorted(set(...))`` is the fix, so ``sorted`` is not here.
_ORDER_SINKS = ("list", "tuple", "enumerate", "iter", "map", "filter")


def _is_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) \
        and _dotted(node.func) in ("set", "frozenset")


def set_iteration(tree: ast.Module) -> Iterator[Finding]:
    """A set's iteration order reaching a loop, a comprehension, a
    sequence or a join."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set(node.iter):
            yield node.iter.lineno, "set-iter@for-loop"
        elif isinstance(node, ast.comprehension) and _is_set(node.iter):
            yield node.iter.lineno, "set-iter@comprehension"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in _ORDER_SINKS:
                yield from ((arg.lineno, f"set-iter@{name}()")
                            for arg in node.args if _is_set(arg))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" and node.args \
                    and _is_set(node.args[0]):
                yield node.args[0].lineno, "set-iter@str.join()"


def id_key(tree: ast.Module) -> Iterator[Finding]:
    """An ``id()`` call: an allocation address, different every run."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "id" and len(node.args) == 1:
            yield node.lineno, "id-call"


_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "datetime.now", "datetime.utcnow",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})
_RANDOM_PREFIXES = ("random.", "secrets.", "np.random.", "numpy.random.")
#: Explicitly seeded constructions.
_SEEDED_RANDOM = frozenset({
    "np.random.default_rng", "numpy.random.default_rng",
    "np.random.Generator", "numpy.random.Generator",
    "np.random.SeedSequence", "numpy.random.SeedSequence",
})


def nondeterministic_call(tree: ast.Module) -> Iterator[Finding]:
    """A wall-clock read or a draw from a process-global unseeded RNG."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node.lineno, "import-random"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in _CLOCK_CALLS or (name.startswith(_RANDOM_PREFIXES)
                                        and name not in _SEEDED_RANDOM):
                yield node.lineno, name


_BUILTIN_EXCEPTIONS = frozenset(
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException))
#: Builtins that stay acceptable to raise: the abstract-method marker
#: and the iterator protocol.
_ALLOWED_RAISES = frozenset({"NotImplementedError", "StopIteration"})


def exception_hygiene(tree: ast.Module) -> Iterator[Finding]:
    """A bare except, a broad one that does not re-raise, or a raised
    builtin exception where a ``repro.errors`` class belongs."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare-except"
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            reraises = any(isinstance(sub, ast.Raise) and sub.exc is None
                           for sub in ast.walk(node))
            for name in map(_dotted, caught):
                if name in ("Exception", "BaseException") and not reraises:
                    yield node.lineno, f"broad-except.{name}"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = _dotted(exc.func if isinstance(exc, ast.Call) else exc)
            if name in _BUILTIN_EXCEPTIONS - _ALLOWED_RAISES:
                yield node.lineno, f"raise.{name}"


def _write_mode(call: ast.Call) -> str | None:
    """The mode of an ``open``-style call, when it is a literal that
    writes."""
    mode = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
            and set(mode.value) & set("wax+"):
        return mode.value
    return None


def atomic_write(tree: ast.Module) -> Iterator[Finding]:
    """A file write that bypasses ``repro.sweep.atomic``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name == "open" or name.endswith(".open"):
            mode = _write_mode(node)
            if mode is not None:
                yield node.lineno, f"open:{mode}"
        elif name.endswith((".write_text", ".write_bytes")):
            yield node.lineno, name.rsplit(".", 1)[1]


def process_pool(tree: ast.Module) -> Iterator[Finding]:
    """A ``multiprocessing`` import or a ``ProcessPoolExecutor``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if name.split(".")[0] == "multiprocessing"
                    or name == "ProcessPoolExecutor")


# ----------------------------------------------------------------------
# Scopes, and the tree
# ----------------------------------------------------------------------

#: The simulation core: every byte of state here feeds cycle counts.
CORE = ("accel", "hw", "mdp")

#: Each check -> the top-level entries of ``src/repro`` it reads (None:
#: all of them).  Set order and ``id()`` keys also reach cache keys and
#: job plans in ``sweep/``; wall time there is provenance by design.
SCOPES = {
    module_state: CORE,
    set_iteration: CORE + ("sweep",),
    id_key: CORE + ("sweep",),
    nondeterministic_call: CORE,
    exception_hygiene: CORE,
    atomic_write: ("sweep",),
    process_pool: None,
}
CHECKS = tuple(SCOPES)

#: The one module that writes sweep-layer files directly, atomically.
ATOMIC = SRC / "sweep" / "atomic.py"


def modules(check) -> list[Path]:
    """The modules ``check`` reads, sorted."""
    scope = SCOPES[check]
    return [path for path in sorted(SRC.rglob("*.py"))
            if (scope is None or path.relative_to(SRC).parts[0] in scope)
            and not (check is atomic_write and path == ATOMIC)]


def parse(path: Path) -> ast.Module:
    """The module's AST.  A file that cannot be read, does not parse or
    is not UTF-8 raises, so no check passes it unread."""
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def report(check, path: Path, tree: ast.Module) -> list[str]:
    """``path:line symbol`` for each finding of ``check`` in ``tree``,
    the AST of ``path``."""
    return [f"{path.relative_to(REPO_ROOT)}:{line} {symbol}"
            for line, symbol in sorted(check(tree))]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_source_tree_is_clean(check):
    found = [entry for path in modules(check)
             for entry in report(check, path, parse(path))]
    assert not found, "\n".join([f"{check.__name__} found:", *found])


#: Each check -> a module in its scope, a one-line defect to append to
#: it, and the symbol the check must report for that line.
SEEDED = {
    module_state: ("accel/stats.py", "_SEEDED_MEMO = {}", "_SEEDED_MEMO"),
    set_iteration: ("mdp/netlist.py", "def _seeded(xs): return list(set(xs))",
                    "set-iter@list()"),
    id_key: ("sweep/jobs.py", "def _seeded(x): return id(x)", "id-call"),
    nondeterministic_call: ("hw/timing.py", "def _seeded(): return time.time()",
                            "time.time"),
    exception_hygiene: ("accel/frontend.py",
                        "def _seeded(): raise ValueError('x')",
                        "raise.ValueError"),
    atomic_write: ("sweep/cache.py", "def _seeded(p): p.write_text('x')",
                   "write_text"),
    process_pool: ("sweep/executor.py", "import multiprocessing",
                   "multiprocessing"),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_seeded_defect_is_found(check):
    """The check, over a real module of its scope with one defect
    appended, names that module and the defect's line: the edit that
    ``test_source_tree_is_clean`` exists to stop does not pass it."""
    name, defect, symbol = SEEDED[check]
    path = SRC / name
    assert path in modules(check)
    lines = path.read_text(encoding="utf-8").splitlines() + ["", defect]
    tree = ast.parse("\n".join(lines), filename=str(path))
    assert f"src/repro/{name}:{len(lines)} {symbol}" \
        in report(check, path, tree)


def test_each_check_reads_its_scope():
    """Each scope exists in the tree, so no check passes by reading
    nothing.  ``graph/`` and ``bench/`` are in no determinism check's
    scope, and ``sweep/atomic.py`` is the write check's one exemption."""
    def entries(check):
        return sorted({path.relative_to(SRC).parts[0]
                       for path in modules(check)})

    core = ["accel", "hw", "mdp"]
    assert entries(module_state) == core
    assert entries(nondeterministic_call) == core
    assert entries(exception_hygiene) == core
    assert entries(set_iteration) == entries(id_key) == core + ["sweep"]
    assert entries(atomic_write) == ["sweep"]
    assert ATOMIC.is_file() and ATOMIC not in modules(atomic_write)
    assert SRC / "sweep" / "cache.py" in modules(atomic_write)
    assert modules(process_pool) == sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("content, error", [
    (b"def f(:\n", SyntaxError),
    (b"# caf\xe9\n", UnicodeDecodeError),
    (None, IsADirectoryError),
], ids=["syntax-error", "not-utf8", "unreadable"])
def test_unreadable_module_fails_the_check(tmp_path, content, error):
    path = tmp_path / "bad.py"
    if content is None:
        path.mkdir()                     # a directory that globs as .py
    else:
        path.write_bytes(content)
    with pytest.raises(error):
        parse(path)


# ----------------------------------------------------------------------
# Fixtures: what each check flags, and what it leaves alone
# ----------------------------------------------------------------------

def run(check, source: str) -> list[Finding]:
    return sorted(check(ast.parse(textwrap.dedent(source))))


class TestModuleState:
    def test_flags_mutables_not_frozen_peers(self):
        assert run(module_state, """\
            CACHE = {}
            SINKS = []
            NAMES = ("a", "b")
            FROZEN = frozenset({"x"})
            __all__ = ["CACHE", "SINKS"]


            class Widget:
                registry = {}
                LIMIT = 4
        """) == [(1, "CACHE"), (2, "SINKS"), (9, "Widget.registry")]

    def test_constructor_calls_and_comprehensions(self):
        assert run(module_state, """\
            from collections import defaultdict, deque

            BY_NAME = defaultdict(list)
            QUEUE = deque()
            DERIVED = [x for x in range(4)]
            PROXY = __import__("types").MappingProxyType({"a": 1})
        """) == [(3, "BY_NAME"), (4, "QUEUE"), (5, "DERIVED")]

    def test_descends_into_guarded_blocks(self):
        assert run(module_state, """\
            try:
                SEEN = set()
            except ImportError:
                SEEN = set()
        """) == [(2, "SEEN"), (4, "SEEN")]

    def test_function_locals_are_fine(self):
        assert run(module_state, """\
            def build():
                cache = {}
                return cache
        """) == []

    @pytest.mark.parametrize("source", ["""\
        CACHE = {}


        def remember(key, value):
            CACHE[key] = value
    """, """\
        CACHE = {"a": 1}


        def lookup(key):
            return CACHE[key]
    """], ids=["mutated", "only-read"])
    def test_flagged_whether_or_not_a_function_writes_it(self, source):
        assert run(module_state, source) == [(1, "CACHE")]


class TestSetIteration:
    def test_flags_order_sinks(self):
        assert run(set_iteration, """\
            def f(xs):
                for n in {"a", "b"}:
                    pass
                out = list(set(xs))
                joined = ",".join({str(x) for x in xs})
                comp = [n for n in frozenset(xs)]
                mapped = map(str, set(xs))
                return out, joined, comp, mapped
        """) == [(2, "set-iter@for-loop"), (4, "set-iter@list()"),
                 (5, "set-iter@str.join()"), (6, "set-iter@comprehension"),
                 (7, "set-iter@map()")]

    def test_sorted_wrapping_is_safe(self):
        assert run(set_iteration, """\
            def f(xs):
                for n in sorted(set(xs)):
                    pass
                return sorted({x + 1 for x in xs})
        """) == []

    def test_plain_dict_iteration_not_flagged(self):
        assert run(set_iteration, """\
            def f(d):
                return [k for k in d] + list(d.values())
        """) == []


class TestIdKey:
    def test_flags_id_calls(self):
        assert run(id_key, """\
            def key(obj, table):
                table[id(obj)] = obj
        """) == [(2, "id-call")]

    def test_unrelated_names_quiet(self):
        assert run(id_key, """\
            def f(node):
                return node.id(3)
        """) == []


class TestNondeterministicCall:
    def test_flags_clock_and_unseeded_rng(self):
        assert run(nondeterministic_call, """\
            import time
            import numpy as np
            from random import random


            def stamp():
                return time.time()


            def draw():
                return np.random.random()


            def seeded(seed):
                return np.random.default_rng(seed)
        """) == [(3, "import-random"), (7, "time.time"),
                 (11, "np.random.random")]


class TestExceptionHygiene:
    def test_flags_bare_broad_and_foreign_raise(self):
        assert run(exception_hygiene, """\
            def f():
                try:
                    pass
                except:
                    pass


            def g():
                try:
                    pass
                except Exception:
                    return None


            def h():
                raise ValueError("boom")
        """) == [(4, "bare-except"), (11, "broad-except.Exception"),
                 (16, "raise.ValueError")]

    def test_cleanup_reraise_and_library_errors_ok(self):
        assert run(exception_hygiene, """\
            from repro.errors import SimulationError


            def f(resource):
                try:
                    resource.use()
                except Exception:
                    resource.close()
                    raise


            def g():
                raise SimulationError("invariant broken")


            def h():
                raise NotImplementedError
        """) == []


class TestAtomicWrite:
    def test_write_mode_open_is_flagged(self):
        assert run(atomic_write, """\
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """) == [(2, "open:w")]

    def test_append_and_keyword_mode_are_flagged(self):
        assert run(atomic_write, """\
            def log(path, line):
                fh = open(path, mode="a")
                fh.write(line)
        """) == [(2, "open:a")]

    def test_write_text_is_flagged(self):
        assert run(atomic_write, """\
            def stamp(path):
                path.write_text("done")
        """) == [(2, "write_text")]

    def test_read_mode_open_is_quiet(self):
        assert run(atomic_write, """\
            import json


            def load(path):
                with open(path, encoding="utf-8") as fh:
                    return json.load(fh)
        """) == []


class TestProcessPool:
    def test_flags_imports_and_attributes(self):
        assert run(process_pool, """\
            import multiprocessing.pool
            from concurrent.futures import ProcessPoolExecutor
            import concurrent.futures


            def pool():
                return concurrent.futures.ProcessPoolExecutor(2)
        """) == [(1, "multiprocessing.pool"), (2, "ProcessPoolExecutor"),
                 (7, "ProcessPoolExecutor")]

    def test_thread_pool_is_quiet(self):
        assert run(process_pool, """\
            from concurrent.futures import ThreadPoolExecutor


            def pool():
                return ThreadPoolExecutor(2)
        """) == []

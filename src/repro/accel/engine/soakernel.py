"""Build and load the compiled SoA march kernel (``_soa_march.c``).

The kernel is what makes ``soa`` — the default engine — fast.  It
ships as C source next to this module and is compiled on first use
with the system C compiler — no build step, no new runtime
dependency.  The shared object is cached under a hash of the build:
the source, :data:`BUILD_FLAGS` and the first line of the compiler's
``--version``.  Editing the kernel, its flags or the compiler therefore
rebuilds transparently and a stale build can never be loaded; the
cache write is an atomic rename so concurrent sweep workers race
benignly.

The kernel describes its own seam.  ``soa_layout()`` exports one row
per ``SoaState`` field (name, offset, kind) plus the named constants
(``SOA_MAGIC``, ``RED_*``, ``PROC_*``), the struct size and the size of
each record a ring holds (a field of kind ``"PropRec*"`` points at
``PropRec`` records).  :func:`load_kernel` reads that table once,
builds the ctypes struct from it (with ``__slots__ = ()``, so assigning
a field the kernel does not have raises ``AttributeError``) and checks
every offset and the size against what ctypes laid out.  Nothing on
the Python side mirrors the C declarations, so there is nothing to
drift.

A kernel that cannot load fails loudly: no compiler, a failed compile
(with the tail of the compiler's stderr), a failed dlopen, an ABI
mismatch or a layout table that cannot be bound each make
:func:`load_kernel` raise :class:`~repro.errors.SimulationError` naming
the cause.  The failure is memoized like a success, so a later call
raises it again without compiling again.  The ``reference`` engine runs
without the kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading
import types
from pathlib import Path

from repro.errors import SimulationError

#: Environment override for the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_SOA_CACHE"

#: Compiler flags of every kernel build, hashed into the ``.so`` name.
#: -O2, no -ffast-math: bit-exact IEEE float semantics are the whole
#: differential contract.
BUILD_FLAGS = ("-O2", "-shared", "-fPIC")

_SOURCE = Path(__file__).with_name("_soa_march.c")

#: scalar field kinds -> the ctypes type of their 8-byte slot; every
#: pointer kind (``"i64*"``, ``"f64*"``, ``"<record>*"``) is a c_void_p
_SCALAR_TYPES = types.MappingProxyType({
    "i64": ctypes.c_longlong, "f64": ctypes.c_double})


class _LayoutRow(ctypes.Structure):
    """One ``SoaLayoutRow`` of the table ``soa_layout()`` returns."""

    _fields_ = (("kind", ctypes.c_char_p), ("name", ctypes.c_char_p),
                ("value", ctypes.c_longlong))


class Kernel:
    """A loaded kernel: its entry points plus the layout it exported.

    ``State`` is the ctypes struct built from the table, ``kinds`` maps
    each field to ``"i64"``, ``"f64"``, ``"i64*"``, ``"f64*"`` or
    ``"<record>*"``, ``consts`` holds the named constants and
    ``records`` the byte size of each record kind.
    """

    def __init__(self, lib: ctypes.CDLL, state: type,
                 kinds: dict[str, str], consts: dict[str, int],
                 records: dict[str, int]) -> None:
        # (ctypes function pointers keep their library loaded)
        self.soa_march = lib.soa_march
        self.soa_abi_version = lib.soa_abi_version
        self.State = state
        self.kinds = types.MappingProxyType(kinds)
        self.consts = types.MappingProxyType(consts)
        self.records = types.MappingProxyType(records)


#: memoized load result, the kernel or the error its load raised;
#: ``None`` = not attempted yet
_LIB: Kernel | SimulationError | None = None

#: held while the first load runs, so a thread that asks meanwhile
#: waits for the finished result instead of reading a half-set memo
_LOAD_LOCK = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "soa"


def _find_compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _compiler_identity(cc: str) -> str:
    """First line of ``cc --version`` ("" when it prints none)."""
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return ""
    lines = proc.stdout.splitlines()
    return lines[0].strip() if lines else ""


def _so_path(source: str, cc: str) -> Path:
    """Cache path of the build of ``source`` by ``cc`` with
    :data:`BUILD_FLAGS`: any of the three changes the name."""
    h = hashlib.sha256(source.encode())
    for part in (_compiler_identity(cc), *BUILD_FLAGS):
        h.update(b"\0" + part.encode())
    return _cache_dir() / f"soa_march-{h.hexdigest()[:16]}.so"


def _expected_abi(source: str) -> int | None:
    m = re.search(r"#define\s+SOA_ABI_VERSION\s+(\d+)", source)
    return int(m.group(1)) if m else None


def _build(cc: str, source_path: Path, out_path: Path) -> None:
    """Compile ``source_path`` into ``out_path``; a failure raises with
    the last five lines of the compiler's stderr."""
    tmp = None
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so")
        os.close(fd)
        proc = subprocess.run(
            [cc, *BUILD_FLAGS, "-o", tmp, str(source_path)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise SimulationError(
                f"{cc} exited {proc.returncode} compiling {source_path}"
                + (":\n" + "\n".join(tail) if tail else ", printing nothing"))
        os.replace(tmp, out_path)       # atomic: racing workers converge
    except (OSError, subprocess.SubprocessError) as exc:
        raise SimulationError(
            f"{cc} could not compile {source_path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _bind_layout(lib: ctypes.CDLL) -> tuple[
        type, dict[str, str], dict[str, int], dict[str, int]]:
    """``(State, kinds, consts, records)`` from the kernel's layout
    table.  A table ctypes cannot lay out exactly as C did raises,
    naming the first problem: a field kind that is neither a scalar nor
    a pointer to a sized record, a name given twice, a name every bind
    writes that the table lacks, or a size or an offset that differs."""
    lib.soa_layout.restype = ctypes.POINTER(_LayoutRow)
    lib.soa_layout.argtypes = ()
    rows = lib.soa_layout()
    fields: list[tuple[int, str, str]] = []
    consts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    i = 0
    while rows[i].kind is not None:
        kind, name = rows[i].kind.decode(), rows[i].name.decode()
        value = int(rows[i].value)
        if kind == "const":
            consts[name] = value
        elif kind == "sizeof":
            sizes[name] = value
        else:
            fields.append((value, name, kind))
        i += 1
    size = sizes.pop("SoaState", None)
    pointees = {"i64", "f64", *sizes}
    fields.sort()
    kinds: dict[str, str] = {}
    for _, name, kind in fields:
        if kind not in _SCALAR_TYPES and not (
                kind.endswith("*") and kind[:-1] in pointees):
            raise SimulationError(
                f"layout table gives {name} the kind {kind!r}, neither a "
                f"scalar nor a pointer to a sized record")
        if name in kinds:
            raise SimulationError(f"layout table names {name} twice")
        kinds[name] = kind
    # every bind writes the struct guard: both magic fields, SOA_MAGIC
    missing = [name for name, found in (
        ("the size of SoaState", size is not None),
        ("SOA_MAGIC", "SOA_MAGIC" in consts),
        ("magic", "magic" in kinds), ("magic2", "magic2" in kinds))
        if not found]
    if missing:
        raise SimulationError(f"layout table lacks {', '.join(missing)}")
    state = type("SoaState", (ctypes.Structure,), {
        "__slots__": (),
        "_fields_": [(name, _SCALAR_TYPES.get(kind, ctypes.c_void_p))
                     for _, name, kind in fields]})
    if ctypes.sizeof(state) != size:
        raise SimulationError(
            f"layout table sizes SoaState at {size} bytes, ctypes at "
            f"{ctypes.sizeof(state)}")
    for offset, name, _ in fields:
        if getattr(state, name).offset != offset:
            raise SimulationError(
                f"layout table puts {name} at offset {offset}, ctypes at "
                f"{getattr(state, name).offset}")
    return state, kinds, consts, sizes


def load_kernel() -> Kernel:
    """Compile (once per build key) and load the march kernel.

    Returns the :class:`Kernel` with ``soa_march`` ready to call and its
    ctypes struct bound from the kernel's own layout table, or raises
    :class:`~repro.errors.SimulationError` naming why it cannot.  Either
    outcome is memoized: every call, on any thread, returns the same
    kernel or raises the same cause, without compiling again.
    """
    global _LIB
    if _LIB is None:
        with _LOAD_LOCK:
            if _LIB is None:
                try:
                    _LIB = _load()
                except SimulationError as exc:
                    _LIB = SimulationError(f"soa kernel unavailable: {exc}")
    if isinstance(_LIB, SimulationError):
        raise SimulationError(str(_LIB))
    return _LIB


def _load() -> Kernel:
    try:
        source = _SOURCE.read_text()
    except OSError as exc:
        raise SimulationError(f"cannot read its source: {exc}") from exc
    expected_abi = _expected_abi(source)
    if expected_abi is None:
        raise SimulationError(f"{_SOURCE} defines no SOA_ABI_VERSION")
    cc = _find_compiler()
    if cc is None:
        raise SimulationError(
            "no C compiler found (tried $CC, cc, gcc and clang); install "
            "one, or run the reference engine")
    so_path = _so_path(source, cc)
    if not so_path.exists():
        _build(cc, _SOURCE, so_path)
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.soa_abi_version.restype = ctypes.c_longlong
        lib.soa_abi_version.argtypes = ()
        abi = int(lib.soa_abi_version())
        if abi != expected_abi:
            raise SimulationError(
                f"{so_path} reports ABI {abi}, its source declares "
                f"{expected_abi}")
        lib.soa_march.restype = ctypes.c_longlong
        lib.soa_march.argtypes = (ctypes.c_void_p,)
        return Kernel(lib, *_bind_layout(lib))
    except (OSError, AttributeError) as exc:
        raise SimulationError(f"cannot load {so_path.name}: {exc}") from exc

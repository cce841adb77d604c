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

Everything here degrades gracefully: no compiler, a failed compile, a
failed dlopen, an ABI mismatch or a layout table that cannot be bound
all yield ``None`` from :func:`load_kernel`, and
:func:`~repro.accel.engine.registry.make_engine` then hands ``soa``
runs to the ``reference`` engine (BYTE-IDENTICAL, but a pure Python
march, many times slower).  ``REPRO_SOA_KERNEL=off`` is the explicit
kill-switch for the same fallback.
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

#: Environment kill-switch: ``off``/``0``/``no`` disables the compiled
#: kernel (``soa`` runs are then handed to the reference engine).
KERNEL_ENV_VAR = "REPRO_SOA_KERNEL"

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


#: memoized load result; ``False`` = not attempted yet
_LIB: Kernel | None | bool = False

#: held while the first load runs, so a thread that asks meanwhile
#: waits for the finished result instead of reading a half-set memo
_LOAD_LOCK = threading.Lock()


def kernel_disabled() -> bool:
    return os.environ.get(KERNEL_ENV_VAR, "").strip().lower() in (
        "off", "0", "no", "false")


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


def _build(cc: str, source_path: Path, out_path: Path) -> bool:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *BUILD_FLAGS, "-o", tmp, str(source_path)],
            capture_output=True, timeout=120)
        if proc.returncode != 0:
            return False
        os.replace(tmp, out_path)       # atomic: racing workers converge
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _bind_layout(lib: ctypes.CDLL) -> tuple[
        type, dict[str, str], dict[str, int], dict[str, int]] | None:
    """``(State, kinds, consts, records)`` from the kernel's layout
    table, or ``None`` when ctypes cannot lay the struct out exactly as
    C did or a field points at a record the table does not size."""
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
    if any(kind not in _SCALAR_TYPES
           and not (kind.endswith("*") and kind[:-1] in pointees)
           for _, _, kind in fields):
        return None
    fields.sort()
    kinds = {name: kind for _, name, kind in fields}
    # every bind writes the struct guard: both magic fields, SOA_MAGIC
    if (len(kinds) != len(fields) or "SOA_MAGIC" not in consts
            or "magic" not in kinds or "magic2" not in kinds):
        return None
    state = type("SoaState", (ctypes.Structure,), {
        "__slots__": (),
        "_fields_": [(name, _SCALAR_TYPES.get(kind, ctypes.c_void_p))
                     for _, name, kind in fields]})
    if ctypes.sizeof(state) != size or any(
            getattr(state, name).offset != offset
            for offset, name, _ in fields):
        return None
    return state, kinds, consts, sizes


def load_kernel() -> Kernel | None:
    """Compile (once per build key) and load the march kernel.

    Returns the :class:`Kernel` with ``soa_march`` ready to call and its
    ctypes struct bound from the kernel's own layout table, or ``None``
    when the kernel is disabled or unavailable — callers fall back to
    the reference engine, never error.  The result is memoized: every
    call, on any thread, returns the same object.
    """
    global _LIB
    if _LIB is False:
        with _LOAD_LOCK:
            if _LIB is False:
                _LIB = _load()
    return _LIB


def _load() -> Kernel | None:
    if kernel_disabled():
        return None
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    expected_abi = _expected_abi(source)
    cc = _find_compiler()
    if expected_abi is None or cc is None:
        return None
    so_path = _so_path(source, cc)
    if not so_path.exists() and not _build(cc, _SOURCE, so_path):
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.soa_abi_version.restype = ctypes.c_longlong
        lib.soa_abi_version.argtypes = ()
        if int(lib.soa_abi_version()) != expected_abi:
            return None
        lib.soa_march.restype = ctypes.c_longlong
        lib.soa_march.argtypes = (ctypes.c_void_p,)
        layout = _bind_layout(lib)
    except (OSError, AttributeError):
        return None
    if layout is None:
        return None
    return Kernel(lib, *layout)

"""Build and load the compiled SoA march kernel (``_soa_march.c``).

The kernel is what makes ``soa`` — the default engine — fast.  It
ships as C source next to this module and is compiled on first use
with the system C compiler — no build step, no new runtime
dependency.  The shared object is cached under a content hash of the
source, so editing the kernel transparently rebuilds and stale caches
can never be loaded; the cache write is an atomic rename so concurrent
sweep workers race benignly.

Everything here degrades gracefully: no compiler, a failed compile, a
failed dlopen or an ABI mismatch all yield ``None`` from
:func:`load_kernel`, and :func:`~repro.accel.engine.registry.make_engine`
then hands ``soa`` runs to the ``reference`` engine (BYTE-IDENTICAL,
but a pure Python march, many times slower).  ``REPRO_SOA_KERNEL=off``
is the explicit kill-switch for the same fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Environment kill-switch: ``off``/``0``/``no`` disables the compiled
#: kernel (``soa`` runs are then handed to the reference engine).
KERNEL_ENV_VAR = "REPRO_SOA_KERNEL"

#: Environment override for the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_SOA_CACHE"

_SOURCE = Path(__file__).with_name("_soa_march.c")

#: memoized load result; ``False`` = not attempted yet
_LIB: ctypes.CDLL | None | bool = False


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


def _expected_abi(source: str) -> int | None:
    m = re.search(r"#define\s+SOA_ABI_VERSION\s+(\d+)", source)
    return int(m.group(1)) if m else None


def _build(source_path: Path, out_path: Path) -> bool:
    cc = _find_compiler()
    if cc is None:
        return False
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out_path.parent), suffix=".so")
    os.close(fd)
    try:
        # -O2, no -ffast-math: bit-exact IEEE float semantics are the
        # whole differential contract
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(source_path)],
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


def load_kernel() -> ctypes.CDLL | None:
    """Compile (once, content-hashed) and load the march kernel.

    Returns the loaded library with ``soa_march`` ready to call, or
    ``None`` when the kernel is disabled or unavailable — callers fall
    back to the reference engine, never error.
    """
    global _LIB
    if _LIB is not False:
        return _LIB
    _LIB = None
    if kernel_disabled():
        return None
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    expected_abi = _expected_abi(source)
    if expected_abi is None:
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    so_path = _cache_dir() / f"soa_march-{digest}.so"
    if not so_path.exists() and not _build(_SOURCE, so_path):
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.soa_abi_version.restype = ctypes.c_longlong
        lib.soa_abi_version.argtypes = ()
        if int(lib.soa_abi_version()) != expected_abi:
            return None
        lib.soa_march.restype = ctypes.c_longlong
        lib.soa_march.argtypes = (ctypes.c_void_p,)
    except (OSError, AttributeError):
        return None
    _LIB = lib
    return lib

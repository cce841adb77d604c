"""Atomic file writes for state shared across processes.

Every file that more than one process may read or write concurrently —
result-cache entries, the lint baseline/cache — must be written with
the same discipline: write the full payload to a temporary file in the
*destination directory*, flush and fsync it, then
``os.replace`` it over the target.  ``os.replace`` is atomic on POSIX
and Windows when source and destination share a filesystem (which the
same-directory temp file guarantees), so a reader can observe the old
bytes or the new bytes but never a torn mixture, and two racing writers
converge on one winner instead of interleaving.

This module is the one blessed implementation; the ``fork-atomic-write``
lint rule flags direct write-mode ``open``/``write_text`` calls in the
sweep layer that bypass it.  It is also the first brick of the planned
``repro serve`` shared-cache protocol (N workers, one cache dir —
see ROADMAP.md).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text", "atomic_write_json", "exclusive_create"]


def _create_in_parent(path: Path, create):
    """``create()`` once ``path``'s directory exists.  A concurrent
    :meth:`~repro.sweep.cache.ResultCache.gc` prunes empty shard
    directories, so one can vanish between the mkdir and the create,
    or inside the mkdir (after its ``EEXIST``, before its ``is_dir()``
    check): make it again and retry."""
    for attempt in range(3):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            if attempt == 2:
                raise
            continue
        try:
            return create()
        except FileNotFoundError:
            if attempt == 2:
                raise


def exclusive_create(path: str | os.PathLike, text: str, *,
                     encoding: str = "utf-8") -> bool:
    """Create ``path`` with ``text`` iff it does not exist yet.

    ``O_CREAT | O_EXCL`` is the one primitive POSIX makes atomic across
    processes *and* NFS-style shared mounts, which is why the cache
    claim protocol (:meth:`repro.sweep.cache.ResultCache.claim`) builds
    on it: of N racing workers exactly one observes True.  Returns
    False when the file already exists; any other OS failure raises.
    """
    path = Path(path)
    try:
        fd = _create_in_parent(path, lambda: os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644))
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding=encoding) as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def atomic_write_text(path: str | os.PathLike, text: str, *,
                      encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp + fsync + replace).

    The parent directory is created if missing.  On any failure the
    temporary file is removed and the destination is untouched.
    """
    path = Path(path)
    fd, tmp = _create_in_parent(path, lambda: tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"))
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)       # atomic: racing writers converge
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike, payload, *,
                      indent: int | None = 2, sort_keys: bool = True,
                      trailing_newline: bool = True) -> None:
    """Serialize ``payload`` deterministically and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    atomic_write_text(path, text)

"""Atomic file writes for state shared across processes.

Every file that more than one process may read or write concurrently —
result-cache entries first of all, since separate ``repro`` processes
and a ``repro serve`` daemon may share one cache directory — must be
written with the same discipline: write the full payload to a temporary
file in the *destination directory*, flush and fsync it, then
``os.replace`` it over the target.  ``os.replace`` is atomic on POSIX
and Windows when source and destination share a filesystem (which the
same-directory temp file guarantees), so a reader can observe the old
bytes or the new bytes but never a torn mixture, and two racing writers
converge on one winner instead of interleaving.  Two writers racing one
missed entry therefore cost at worst one redundant simulation.

This module is the one blessed implementation; the ``atomic_write``
check in ``tests/test_source_checks.py`` fails on any direct write-mode
``open``/``write_text`` call elsewhere in the sweep layer.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text", "atomic_write_json"]


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

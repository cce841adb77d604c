"""Content-addressed on-disk result cache for sweep jobs.

Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the job's
sha256 cache key (see :meth:`repro.sweep.jobs.SweepJob.cache_key`).
Each entry stores the full :class:`~repro.accel.stats.SimStats` counter
set plus a human-readable provenance block, so a cache directory can be
audited with nothing but ``cat``.

The key folds in a **code version**: a digest over the source text of
every simulation-relevant subpackage (``accel``, ``hw``, ``mdp``,
``algorithms``, ``graph`` and the error taxonomy) — Python modules and
the C kernel source alike.  Editing the simulator therefore
invalidates stale results automatically; editing orchestration layers
(``bench``, ``sweep``, ``cli``) does not, because they cannot change
what a job computes.

Writes are atomic (temp file + ``os.replace``) so parallel executors,
concurrent sweep invocations and serve daemons can share one cache
directory safely: the worst case under a write/write race is one
redundant simulation, never a torn entry.

Reads are resident: a :class:`ResultCache` keeps every entry it has
decoded, keyed by cache key and tagged with the file's stat signature
``(st_ino, st_size, st_mtime_ns)``.  A later :meth:`ResultCache.get`
costs one ``os.stat``; an entry rewritten behind the cache (an atomic
replace always brings a new inode) is read again, and one deleted
behind it (another process's ``cache gc``) is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.accel.stats import SimStats
from repro.sweep.atomic import atomic_write_json

#: Source subpackages whose text participates in the code version.
#: Orchestration layers (bench, sweep, cli) are deliberately excluded.
CODE_VERSION_SUBPACKAGES = ("accel", "hw", "mdp", "algorithms", "graph")
CODE_VERSION_MODULES = ("errors.py",)
#: Source kinds digested inside those subpackages: the compiled soa
#: engine's kernel (``accel/engine/_soa_march.c``) computes results
#: exactly like the Python modules do.
CODE_VERSION_SUFFIXES = (".py", ".c")

_code_version_memo: str | None = None


def _digest_source_tree(root: Path | None = None) -> str:
    """Digest of the simulation-relevant sources under ``root`` (the
    installed ``repro`` package by default)."""
    if root is None:
        root = Path(repro.__file__).parent
    h = hashlib.sha256()
    paths: list[Path] = [root / name for name in CODE_VERSION_MODULES]
    for sub in CODE_VERSION_SUBPACKAGES:
        # recursive: nested packages (e.g. accel/engine/) must
        # invalidate cache entries exactly like top-level modules
        paths.extend(sorted(path for path in (root / sub).rglob("*")
                            if path.suffix in CODE_VERSION_SUFFIXES))
    for path in paths:
        h.update(str(path.relative_to(root)).encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def code_version() -> str:
    """Digest of the simulation-relevant source tree (memoized).

    The digest is computed **once per process** and reused by every
    :meth:`SweepJob.cache_key <repro.sweep.jobs.SweepJob.cache_key>`
    call site.  It never moves: a process runs the code it imported,
    so results it computes belong under the digest it started with.
    """
    global _code_version_memo
    if _code_version_memo is None:
        _code_version_memo = _digest_source_tree()
    return _code_version_memo


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk result: identity, size and age, no payload."""

    key: str
    path: Path
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class GcStats:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    scanned: int
    removed: int
    bytes_freed: int
    bytes_kept: int


def _signature(st: os.stat_result) -> tuple[int, int, int]:
    """What identifies one written version of an entry file.

    The one collision left, a deleted entry's inode reused by a rewrite
    of the same size within one timestamp tick, returns equal stats:
    a key names one deterministic job, so every version holds them.
    """
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _fresh(stats: SimStats) -> SimStats:
    """A copy the caller may mutate without touching the resident one
    (built from the fields directly: a quarter of ``replace``'s cost)."""
    return SimStats(**vars(stats))


class ResultCache:
    """On-disk SimStats store addressed by job cache key."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: key -> (path, stat signature, SimStats) of each entry this
        #: instance decoded; gc() forgets them
        self._resident: dict[
            str, tuple[str, tuple[int, int, int], SimStats]] = {}

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimStats | None:
        """Look up one entry; any unreadable/stale-schema entry is a miss.

        A resident entry whose file still has the signature it was read
        with is answered without opening the file.  Every call returns
        a fresh :class:`SimStats`, which the caller may change.
        """
        resident = self._resident.get(key)
        if resident is not None:
            where, signature, stats = resident
            try:
                current = _signature(os.stat(where))
            except OSError:
                current = None           # gone: the open below misses
            if current == signature:
                self.hits += 1
                return _fresh(stats)
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                # the signature of the file actually read, not of a
                # replacement that lands between a stat and the open
                signature = _signature(os.fstat(fh.fileno()))
                payload = json.load(fh)
            stats = SimStats.from_dict(payload["stats"])
        except FileNotFoundError:
            self._resident.pop(key, None)
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # corrupt or schema-incompatible entry: drop and recompute
            self._resident.pop(key, None)
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self._resident[key] = (str(path), signature, stats)
        self.hits += 1
        return _fresh(stats)

    def put(self, key: str, stats: SimStats, provenance: dict | None = None) -> None:
        payload = {
            "key": key,
            "provenance": provenance or {},
            "stats": stats.to_dict(),
        }
        # temp + fsync + replace: concurrent sweep workers sharing this
        # cache dir converge on one winner, never a torn entry
        atomic_write_json(self._path(key), payload, indent=1,
                          trailing_newline=False)

    # ------------------------------------------------------------------
    def _entry_files(self):
        """``os.DirEntry`` of every ``<key[:2]>/<key>.json`` entry file,
        in one ``os.scandir`` pass over the shards."""
        try:
            with os.scandir(self.root) as names:
                shards = [shard.path for shard in names if shard.is_dir()]
        except OSError:
            return
        for shard in shards:
            try:
                with os.scandir(shard) as names:
                    files = [entry for entry in names
                             if entry.name.endswith(".json")]
            except OSError:
                continue                 # shard pruned mid-scan
            yield from files

    def entries(self) -> list[CacheEntry]:
        """Every readable entry, oldest first (entries that vanish
        mid-scan — a concurrent GC — are skipped, not errors)."""
        found = []
        for entry in self._entry_files():
            try:
                st = entry.stat()
            except OSError:
                continue
            found.append(CacheEntry(key=entry.name[:-len(".json")],
                                    path=Path(entry.path),
                                    size_bytes=st.st_size, mtime=st.st_mtime))
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def newest_mtime(self) -> float | None:
        """Modification time of the youngest entry, None when there is
        none; keeps only the maximum, builds no :class:`CacheEntry`."""
        newest = None
        for entry in self._entry_files():
            try:
                mtime = entry.stat().st_mtime
            except OSError:
                continue
            if newest is None or mtime > newest:
                newest = mtime
        return newest

    def gc(self, max_age_seconds: float | None = None,
           max_bytes: int | None = None, now: float | None = None,
           dry_run: bool = False) -> GcStats:
        """Evict entries beyond an age and/or total-size budget.

        First drops everything older than ``max_age_seconds`` (by entry
        mtime), then — if the survivors still exceed ``max_bytes`` —
        drops oldest-first until the cache fits.  ``dry_run`` reports
        what would be removed without touching disk.  With neither
        budget set this is a no-op scan.
        """
        entries = self.entries()
        now = time.time() if now is None else now
        doomed: list[CacheEntry] = []
        kept: list[CacheEntry] = []
        for entry in entries:
            if max_age_seconds is not None and now - entry.mtime > max_age_seconds:
                doomed.append(entry)
            else:
                kept.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(e.size_bytes for e in kept)
            for entry in list(kept):            # oldest first
                if kept_bytes <= max_bytes:
                    break
                kept.remove(entry)
                doomed.append(entry)
                kept_bytes -= entry.size_bytes
        removed = 0
        freed = 0
        for entry in doomed:
            if not dry_run:
                self._resident.pop(entry.key, None)
                try:
                    entry.path.unlink()
                except OSError:
                    continue
            removed += 1
            freed += entry.size_bytes
        if not dry_run:
            self._prune_empty_shards()
        return GcStats(scanned=len(entries), removed=removed,
                       bytes_freed=freed,
                       bytes_kept=sum(e.size_bytes for e in kept))

    def _prune_empty_shards(self) -> None:
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()            # fails (correctly) if non-empty
                except OSError:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResultCache(root={str(self.root)!r}, "
                f"hits={self.hits}, misses={self.misses})")

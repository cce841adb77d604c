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

Writes are atomic (temp file + ``os.replace``) so parallel executors and
concurrent sweep invocations can share one cache directory safely:
the worst case under a write/write race is one redundant simulation,
never a torn entry.
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
from repro.sweep.atomic import atomic_write_json, exclusive_create

#: Source subpackages whose text participates in the code version.
#: Orchestration layers (bench, sweep, cli) are deliberately excluded.
CODE_VERSION_SUBPACKAGES = ("accel", "hw", "mdp", "algorithms", "graph")
CODE_VERSION_MODULES = ("errors.py",)
#: Source kinds digested inside those subpackages: the compiled soa
#: engine's kernel (``accel/engine/_soa_march.c``) computes results
#: exactly like the Python modules do.
CODE_VERSION_SUFFIXES = (".py", ".c")

_code_version_memo: str | None = None
#: Bumped whenever :func:`refresh_code_version` observes a digest
#: change; long-lived processes (the serve daemon) compare generations
#: instead of re-digesting the tree per request.
_code_generation = 0


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
    call site; a long-lived daemon only re-reads the tree on an
    explicit :func:`refresh_code_version` (the serve ``reload``
    request), never on the job hot path.
    """
    global _code_version_memo
    if _code_version_memo is None:
        _code_version_memo = _digest_source_tree()
    return _code_version_memo


def code_generation() -> int:
    """Monotonic counter of observed code-version changes.

    Starts at 0 and only moves when :func:`refresh_code_version` finds
    the source digest changed — the generation-counter invalidation
    scheme of the serve daemon: workers stamp results with the
    generation they were spawned under, and a bumped generation tells
    resident state (graph memos, learned cost models) it is stale
    without any of them re-hashing the tree.
    """
    return _code_generation


def refresh_code_version() -> str:
    """Re-digest the source tree; bump the generation if it changed.

    This is the *only* way the memoized :func:`code_version` moves
    within a process.  Returns the (possibly unchanged) digest.
    """
    global _code_version_memo, _code_generation
    fresh = _digest_source_tree()
    if fresh != _code_version_memo and _code_version_memo is not None:
        _code_generation += 1
    _code_version_memo = fresh
    return fresh


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk result: identity, size and age, no payload."""

    key: str
    path: Path
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class CacheClaim:
    """Exclusive right to *compute* one cache entry (not to read it).

    Claims are advisory lock files next to the entry they cover
    (``<key>.claim``), taken with an atomic exclusive create so N
    workers — across processes and hosts sharing one cache directory —
    agree on a single owner per key.  Losing a claim race means someone
    else is already simulating that job: wait for the entry instead of
    duplicating the work.  A claim is *not* required for reads, and a
    crashed owner's claim goes stale after ``stale_after`` seconds, so
    the worst failure mode remains one redundant simulation, never a
    deadlock and never a torn entry.
    """

    key: str
    path: Path
    owner: str


@dataclass(frozen=True)
class GcStats:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    scanned: int
    removed: int
    bytes_freed: int
    bytes_kept: int


class ResultCache:
    """On-disk SimStats store addressed by job cache key."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimStats | None:
        """Look up one entry; any unreadable/stale-schema entry is a miss."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            stats = SimStats.from_dict(payload["stats"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # corrupt or schema-incompatible entry: drop and recompute
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return stats

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
    # Ownership: claim files for the shared-cache compute protocol
    # ------------------------------------------------------------------

    #: Seconds after which an unreleased claim is presumed dead and may
    #: be broken.  Generous: claims only outlive their owner on a crash,
    #: and a broken live claim costs one redundant simulation.
    DEFAULT_CLAIM_STALE_SECONDS = 600.0

    def _claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.claim"

    def claim(self, key: str, owner: str | None = None,
              stale_after: float = DEFAULT_CLAIM_STALE_SECONDS) -> CacheClaim | None:
        """Try to become the one worker computing entry ``key``.

        Returns a :class:`CacheClaim` on success, None when another
        live owner holds the claim.  A claim file older than
        ``stale_after`` seconds is treated as abandoned: it is removed
        and the create is retried, with the O_EXCL create — routed
        through :func:`repro.sweep.atomic.exclusive_create` — deciding
        any race among the breakers.  (The check-then-unlink window
        means two breakers can in theory both clear a *just-refreshed*
        claim; the cost is one redundant simulation, which the
        atomic-write cache tolerates by design.)
        """
        if owner is None:
            owner = f"{os.uname().nodename}:{os.getpid()}"
        path = self._claim_path(key)
        payload = json.dumps({"key": key, "owner": owner,
                              "claimed_at": time.time()}, sort_keys=True)
        for _ in range(2):                  # initial try + post-break retry
            if exclusive_create(path, payload):
                return CacheClaim(key=key, path=path, owner=owner)
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                continue                    # released mid-race: retry create
            if age <= stale_after:
                return None                 # live owner, back off
            try:
                path.unlink()               # abandoned: break and retry
            except OSError:
                pass
        return None

    def release(self, claim: CacheClaim) -> None:
        """Drop a claim (idempotent; a broken/stolen claim is a no-op)."""
        try:
            claim.path.unlink()
        except OSError:
            pass

    def claim_owner(self, key: str) -> str | None:
        """Owner string of a live claim on ``key``, if any."""
        try:
            with open(self._claim_path(key), encoding="utf-8") as fh:
                value = json.load(fh).get("owner")
            return str(value) if value is not None else None
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def entries(self) -> list[CacheEntry]:
        """Every readable entry, oldest first (entries that vanish
        mid-scan — a concurrent GC — are skipped, not errors)."""
        found = []
        for path in self.root.glob("*/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            found.append(CacheEntry(key=path.stem, path=path,
                                    size_bytes=st.st_size, mtime=st.st_mtime))
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries())

    def iter_provenance(self):
        """Yield every readable entry's provenance dict (oldest first).

        Used by the executor's learned cost model; unreadable or
        provenance-less entries are skipped, not errors.  Reads every
        entry file, so call it once per sweep, not per job.
        """
        for entry in self.entries():
            try:
                with open(entry.path, encoding="utf-8") as fh:
                    provenance = json.load(fh).get("provenance")
            except (OSError, ValueError):
                continue
            if isinstance(provenance, dict):
                yield provenance

    def wall_seconds(self, key: str) -> float | None:
        """Recorded simulation wall time of one entry, if any."""
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                value = json.load(fh).get("provenance", {}).get("wall_seconds")
            return float(value) if value is not None else None
        except (OSError, ValueError, TypeError):
            return None

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

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._prune_empty_shards()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResultCache(root={str(self.root)!r}, "
                f"hits={self.hits}, misses={self.misses})")

"""Persistent on-disk cache for deterministic simulation artifacts.

Alone-run baselines and generated traces are pure functions of their
inputs (benchmark profile, system configuration, seed, instruction
count), so they can be cached across processes and across repeated suite
runs.  Entries are keyed by a SHA-256 content hash of a canonical JSON
encoding of those inputs; values are stored as JSON files, written
atomically (temp file + ``os.replace``) so concurrent workers can share
one cache directory without locking — the worst case under a write race
is one redundant recomputation, never a torn file.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro-parbs`` or ``~/.cache/repro-parbs``);
* ``REPRO_CACHE=0`` — disable the on-disk cache entirely;
* ``REPRO_CACHE_MAX_MB`` — bound the cache size: when set, entries are
  pruned oldest-``mtime`` first (LRU — hits touch the entry's mtime)
  until the total size fits.  Pruning runs opportunistically every few
  writes and on demand via ``repro cache prune``.

``clear_cache()`` (or simply deleting the directory) resets it; the
directory layout is ``<root>/<kind>/<hash>.json``.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path

from ..envknobs import read_optional_float
from ..obs.metrics import PROCESS

# Content keys hash a few hundred short strings per step, so they use the
# interpreter's own SHA-256 module: ``hashlib`` maps OpenSSL's libcrypto
# (about 3.6 MB resident) on import.  The digests are identical.  CPython's
# ``random`` picks its sha512 the same way.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

__all__ = [
    "DiskCache",
    "cache_enabled",
    "clear_cache",
    "content_key",
    "default_cache_dir",
    "max_cache_mb",
]

logger = logging.getLogger(__name__)

# Bump when simulator semantics change in a way that alters cached
# artifacts (trace generation, timing model, metric definitions).
SIM_FINGERPRINT = "parbs-sim-v1"

def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-parbs"


def cache_enabled() -> bool:
    """Whether the on-disk cache is enabled (``REPRO_CACHE`` env switch)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "false", "no", "off")


def max_cache_mb() -> float | None:
    """Size bound in MB from ``REPRO_CACHE_MAX_MB`` (``None`` = unbounded)."""
    return read_optional_float("REPRO_CACHE_MAX_MB", floor=0.0)


def _jsonify(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache key")


def content_key(payload) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Dataclasses (e.g. :class:`~repro.config.SystemConfig`) are flattened
    via ``asdict`` so structurally equal configurations hash equally.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    )
    return sha256(canonical.encode()).hexdigest()


class DiskCache:
    """A content-addressed JSON store.

    Every instance counts its traffic into the process registry
    (:data:`repro.obs.metrics.PROCESS`) as ``cache.hits``,
    ``cache.misses``, ``cache.writes``, ``cache.pruned`` and
    ``cache.quarantined`` (corrupt or truncated entries renamed aside
    and recomputed).

    When a size bound is configured (``max_mb`` argument or the
    ``REPRO_CACHE_MAX_MB`` environment variable) the cache prunes itself
    back under the bound, oldest ``mtime`` first.  Hits touch the entry's
    mtime, so the eviction order is least-recently-*used*, not
    least-recently-written.
    """

    # Opportunistic prune cadence: checking the bound means statting the
    # whole tree, so do it every N writes instead of on each put.
    PRUNE_EVERY = 32

    def __init__(
        self, root: str | Path | None = None, max_mb: float | None = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_mb = max_mb if max_mb is not None else max_cache_mb()
        self._writes = 0  # this instance's, for the PRUNE_EVERY cadence

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def get(self, kind: str, key: str):
        """Cached value for ``(kind, key)``, or ``None`` on a miss."""
        path = self._path(kind, key)
        try:
            with path.open() as fh:
                value = json.load(fh)
        except FileNotFoundError:
            PROCESS.counter("cache.misses").inc()
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # Corrupt or truncated entry (torn write, disk fault, chaos
            # injection): quarantine it aside for inspection — the
            # ``.corrupt`` suffix keeps it out of ``entries()``/pruning —
            # count it, and let the caller recompute.  Never crash the run.
            self._quarantine(path, exc)
            PROCESS.counter("cache.misses").inc()
            return None
        PROCESS.counter("cache.hits").inc()
        try:
            # LRU touch: keep hot entries at the back of the prune order.
            os.utime(path)
        except OSError:  # pragma: no cover - concurrent unlink
            pass
        logger.info("cache hit: %s/%s", kind, key[:12])
        return value

    def _quarantine(self, path: Path, exc: Exception) -> None:
        aside = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, aside)
        except OSError:
            # Rename failed (e.g. concurrent unlink): best-effort removal.
            path.unlink(missing_ok=True)
            aside = None
        PROCESS.counter("cache.quarantined").inc()
        logger.warning(
            "cache entry %s is corrupt (%s); quarantined %s",
            path.name,
            exc,
            f"to {aside.name}" if aside is not None else "and removed",
        )

    def put(self, kind: str, key: str, value) -> None:
        """Store ``value`` atomically under ``(kind, key)``."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # One dumps() call runs the C encoder; dump() streams
                # through the pure-Python one.  The bytes are identical.
                fh.write(json.dumps(value, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        PROCESS.counter("cache.writes").inc()
        self._writes += 1
        if self.max_mb is not None and self._writes % self.PRUNE_EVERY == 0:
            self.prune()

    # -- size accounting and LRU pruning ------------------------------------
    def entries(self) -> list[tuple[Path, float, int]]:
        """Every cache file as ``(path, mtime, size_bytes)``."""
        out = []
        if not self.root.exists():
            return out
        for path in self.root.rglob("*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent unlink
                continue
            out.append((path, stat.st_mtime, stat.st_size))
        return out

    def size_bytes(self) -> int:
        """Total on-disk size of all cache entries."""
        return sum(size for _path, _mtime, size in self.entries())

    def usage(self) -> dict[str, tuple[int, int]]:
        """Per-kind ``(entry count, bytes)`` breakdown."""
        out: dict[str, tuple[int, int]] = {}
        for path, _mtime, size in self.entries():
            kind = path.parent.name
            count, total = out.get(kind, (0, 0))
            out[kind] = (count + 1, total + size)
        return out

    def prune(self, max_mb: float | None = None) -> tuple[int, int]:
        """Delete oldest-mtime entries until the cache fits ``max_mb``.

        Returns ``(entries removed, bytes freed)``.  With no bound
        configured this is a no-op.
        """
        limit = max_mb if max_mb is not None else self.max_mb
        if limit is None:
            return (0, 0)
        budget = int(limit * 1024 * 1024)
        entries = sorted(self.entries(), key=lambda e: (e[1], e[0]))
        total = sum(size for _p, _m, size in entries)
        removed = 0
        freed = 0
        for path, _mtime, size in entries:
            if total - freed <= budget:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent unlink
                continue
            removed += 1
            freed += size
        if removed:
            PROCESS.counter("cache.pruned").inc(removed)
            logger.info(
                "cache pruned: %d entries, %.1f MB freed", removed, freed / 1e6
            )
        return (removed, freed)

    def clear(self) -> int:
        """Delete every cache entry under this root; returns the count."""
        removed = 0
        if not self.root.exists():
            return 0
        # ``*.json*`` also sweeps quarantined ``.json.corrupt`` files.
        for path in self.root.rglob("*.json*"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


def clear_cache(root: str | Path | None = None) -> int:
    """Convenience wrapper: clear the (default) cache directory."""
    return DiskCache(root).clear()

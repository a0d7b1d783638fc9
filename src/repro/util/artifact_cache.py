"""Durable on-disk cache for heavy measurement artifacts.

Campaign replays, per-VP coverage sweeps, and MAP-IT refinements are pure
functions of (study config, campaign/analysis parameters, code version).
This module persists their products under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``) so re-running the experiment suite or the benchmarks
is a warm start instead of an hour of recomputation.

Keys are content hashes over three ingredients:

* a *kind* namespace ("campaign", "coverage", ...),
* the ``repr`` of every parameter (configs are frozen dataclasses whose
  reprs are deterministic),
* a *code salt* — a digest over every ``.py`` file in the installed
  ``repro`` package — so any source change invalidates every entry
  rather than serving results computed by old code.

Values are pickled with the highest protocol and written atomically
(temp file + rename), so a crashed writer never leaves a half-written
artifact for the next reader. Unreadable or corrupt entries are treated
as misses and deleted.

Set ``REPRO_CACHE=0`` (or call :func:`set_enabled` with ``False``) to
bypass the cache entirely — the benchmark harness does this so timings
measure computation, not disk reads.

``REPRO_CACHE_MAX_MB`` bounds the cache's total size: after every write
the least-recently-used entries (by mtime — reads :func:`touch` their
entry) are evicted until the cache fits. Everything in the cache is a
pure derivation, so eviction only ever costs a re-derive on the next
miss; it can never change answers.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.obs import metrics
from repro.obs.log import get_logger

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_TOGGLE = "REPRO_CACHE"
_ENV_MAX_MB = "REPRO_CACHE_MAX_MB"

#: Every artifact family the cache owns: pickled products plus the
#: memory-mapped world snapshots written by :mod:`repro.net.compiled`.
_CACHE_PATTERNS = ("*.pkl", "*.npz")

_log = get_logger(__name__)

#: Read by the run manifest's ``cache`` section.
_HITS = metrics.counter("artifact_cache.hits")
_MISSES = metrics.counter("artifact_cache.misses")
_CORRUPT = metrics.counter("artifact_cache.corrupt_drops")

#: Exceptions pickle raises on a truncated/garbled/version-skewed entry.
#: Anything outside this set (KeyboardInterrupt, MemoryError, bugs in
#: ``__setstate__``) propagates instead of being silently eaten as a miss.
_CORRUPT_ENTRY_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    UnicodeDecodeError,
)

_enabled_override: bool | None = None
_code_salt: str | None = None


def cache_dir() -> Path:
    """Resolve the cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

    Read per call, not at import, so tests and one-off runs can redirect
    it with a plain environment variable.
    """
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def enabled() -> bool:
    """Whether artifacts are read/written (env toggle + programmatic override)."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(_ENV_TOGGLE, "1").lower() not in ("0", "false", "no", "off")


def set_enabled(value: bool | None) -> None:
    """Force the cache on/off (None restores the environment's choice)."""
    global _enabled_override
    _enabled_override = value


def code_salt() -> str:
    """Digest of the installed ``repro`` sources (computed once per process)."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
            hasher.update(b"\x01")
        _code_salt = hasher.hexdigest()
    return _code_salt


def artifact_key(kind: str, *parts: object) -> str:
    """Stable content key for an artifact of ``kind`` computed from ``parts``."""
    hasher = hashlib.sha256()
    hasher.update(kind.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(code_salt().encode("ascii"))
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()[:32]


def _path_for(kind: str, key: str) -> Path:
    return cache_dir() / f"{kind}-{key}.pkl"


def load(kind: str, key: str) -> Any | None:
    """Fetch a cached artifact, or None on miss/corruption/disabled cache."""
    if not enabled():
        return None
    path = _path_for(kind, key)
    try:
        with path.open("rb") as handle:
            value = pickle.load(handle)
    except FileNotFoundError:
        _MISSES.inc()
        return None
    except _CORRUPT_ENTRY_ERRORS as error:
        # Corrupt or version-incompatible entry: drop it and recompute —
        # loudly, so a recurring drop (bad disk, version skew) is visible.
        _MISSES.inc()
        _CORRUPT.inc()
        _log.warning(
            "dropping corrupt cache entry %s (%s: %s)",
            path,
            type(error).__name__,
            error,
            extra={"path": str(path), "kind": kind},
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None
    except OSError as error:
        _MISSES.inc()
        _log.warning("cache read failed for %s: %s", path, error)
        return None
    _HITS.inc()
    touch(path)
    return value


def store(kind: str, key: str, value: Any) -> None:
    """Persist an artifact atomically; failures degrade to a no-op."""
    if not enabled():
        return
    path = _path_for(kind, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _log.debug("stored %s artifact at %s", kind, path)
        evict_to_limit()
    except OSError as error:
        # Read-only filesystem, disk full, ... — cache is best-effort.
        _log.warning("cache write failed for %s: %s", path, error)


def fetch(kind: str, parts: tuple, builder: Callable[[], Any]) -> Any:
    """Get-or-build: the memoization primitive the heavy steps wire in.

    On a miss the artifact is built, stored, and returned; the round-trip
    through pickle is what a warm start would return, so cold and warm
    results are interchangeable.
    """
    key = artifact_key(kind, *parts)
    cached = load(kind, key)
    if cached is not None:
        return cached
    value = builder()
    store(kind, key, value)
    return value


def touch(path: Path) -> None:
    """Bump an entry's mtime so LRU eviction sees it as recently used."""
    try:
        os.utime(path, None)
    except OSError:  # pragma: no cover - entry raced away or read-only fs
        pass


def max_bytes() -> int | None:
    """Size bound from ``REPRO_CACHE_MAX_MB``; None means unbounded."""
    raw = os.environ.get(_ENV_MAX_MB, "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        _log.warning("ignoring unparsable %s=%r", _ENV_MAX_MB, raw)
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _entries() -> list[tuple[Path, float, int]]:
    root = cache_dir()
    entries: list[tuple[Path, float, int]] = []
    if root.is_dir():
        for pattern in _CACHE_PATTERNS:
            for path in root.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((path, stat.st_mtime, stat.st_size))
    return entries


def evict_to_limit(limit_bytes: int | None = None) -> int:
    """Drop least-recently-used entries until the cache fits the bound.

    Called after every write; a no-op unless ``REPRO_CACHE_MAX_MB`` (or
    an explicit ``limit_bytes``) is set. Everything evicted is a pure
    derivation, so the only cost is a rebuild on the next miss. Returns
    the number of files removed.
    """
    limit = max_bytes() if limit_bytes is None else limit_bytes
    if limit is None:
        return 0
    entries = _entries()
    total = sum(size for _, _, size in entries)
    if total <= limit:
        return 0
    removed = 0
    # Oldest mtime first: reads touch() their entry, so mtime is recency.
    for path, _, size in sorted(entries, key=lambda e: e[1]):
        if total <= limit:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
        _log.info("evicted cache entry %s (%d bytes) to fit %d-byte bound",
                  path.name, size, limit)
    return removed


def clear() -> int:
    """Delete every cached artifact; returns how many files were removed."""
    root = cache_dir()
    removed = 0
    if root.is_dir():
        for pattern in _CACHE_PATTERNS:
            for path in root.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed

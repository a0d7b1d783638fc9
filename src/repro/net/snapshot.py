"""Versioned, memory-mapped persistence for compiled world snapshots.

A compiled world is a flat bundle of numpy arrays, which makes it a
natural fit for an uncompressed ``.npz`` archive: one file per world in
the artifact cache, written atomically, loaded back *without copying* by
memory-mapping each member. ``np.load(mmap_mode="r")`` silently ignores
the mmap request for ``.npz`` (it only maps bare ``.npy`` files), so
:func:`load_arrays` locates each stored member inside the zip container
itself — uncompressed members are contiguous byte ranges — and hands the
ranges to :class:`numpy.memmap`. Cold-loading a scale-1.0 world this way
costs milliseconds and a few pages of touched memory; the OS shares the
cached pages between every process that maps the same file.

The format is versioned: a ``__meta__`` member records
:data:`SNAPSHOT_FORMAT_VERSION`, the world digest, and the seed. A
version mismatch (or any structural surprise) is reported through
``repro.obs`` and surfaces as a load miss — callers rebuild from the
generator and overwrite, never crash and never serve wrong tables.

Persistence consumes only the recorder's arrays: since PR 8 the
generate → persist path never materializes the object facade, so a
cold cache miss costs array-native generation (tables-sized RSS), and
every later process maps this file instead.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

from repro.obs import metrics
from repro.obs.log import get_logger

_log = get_logger(__name__)

SAVES = metrics.counter("snapshot.saves")
LOADS = metrics.counter("snapshot.loads")
LOAD_FAILURES = metrics.counter("snapshot.load_failures")
VERSION_MISMATCHES = metrics.counter("snapshot.version_mismatches")
LOAD_WALL_MS = metrics.histogram("snapshot.load_ms")

#: Bump when the array schema or encoding changes; stale files are
#: rejected at load with a warning and rebuilt from the generator.
SNAPSHOT_FORMAT_VERSION = 1

_META_MEMBER = "__meta__"

#: Local zip header layout (PKZIP appnote): fixed 30 bytes, then the
#: file name and the extra field, then the member's data.
_LOCAL_HEADER_SIZE = 30


def save_arrays(
    path: Path,
    arrays: dict[str, np.ndarray],
    *,
    digest: str,
    seed: int,
    format_version: int = SNAPSHOT_FORMAT_VERSION,
) -> None:
    """Write a snapshot atomically (temp file + rename).

    ``format_version`` is parameterized only so tests can fabricate a
    stale snapshot; production callers always write the current version.
    """
    meta = {
        "format_version": format_version,
        "digest": digest,
        "seed": seed,
        "arrays": sorted(arrays),
    }
    meta_blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **{_META_MEMBER: meta_blob}, **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    SAVES.inc()
    _log.debug("saved world snapshot %s (%d arrays)", path, len(arrays))


def _drop(path: Path) -> None:
    """Best-effort removal of a structurally unusable snapshot file.

    A stale-version or corrupt snapshot can never be loaded by this
    code, so leaving it in place would force a rebuild on *every* cold
    start; dropping it lets the next build persist a fresh one.
    """
    try:
        path.unlink()
    except OSError:  # pragma: no cover - already gone or read-only fs
        pass


def _read_meta(archive: zipfile.ZipFile, path: Path) -> dict | None:
    try:
        with archive.open(_META_MEMBER + ".npy") as member:
            blob = np.load(member)
        return json.loads(blob.tobytes().decode("utf-8"))
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as error:
        _log.warning("snapshot %s has unreadable metadata (%s)", path, error)
        return None


def _member_data_offset(raw, info: zipfile.ZipInfo) -> int:
    """Absolute offset of a stored member's payload inside the archive.

    The central directory's ``extra`` length can differ from the local
    header's, so the local header must be re-read to size the skip.
    """
    raw.seek(info.header_offset)
    header = raw.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != b"PK\x03\x04":
        raise ValueError(f"bad local header for member {info.filename!r}")
    name_len = int.from_bytes(header[26:28], "little")
    extra_len = int.from_bytes(header[28:30], "little")
    return info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len


def _mmap_member(path: Path, raw, info: zipfile.ZipInfo) -> np.ndarray:
    """Map one stored ``.npy`` member as a read-only array view."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {info.filename!r} is compressed")
    data_offset = _member_data_offset(raw, info)
    raw.seek(data_offset)
    npy_header = io.BytesIO(raw.read(min(info.file_size, 4096)))
    version = np.lib.format.read_magic(npy_header)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(npy_header)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(npy_header)
    else:
        raise ValueError(f"member {info.filename!r} has npy version {version}")
    if fortran:
        raise ValueError(f"member {info.filename!r} is Fortran-ordered")
    if dtype.hasobject:
        raise ValueError(f"member {info.filename!r} holds python objects")
    if int(np.prod(shape)) == 0:
        # Zero-byte maps are invalid; an empty array is equivalent.
        return np.empty(shape, dtype=dtype)
    return np.memmap(
        path, dtype=dtype, mode="r", offset=data_offset + npy_header.tell(),
        shape=shape,
    )


def load_arrays(path: Path, *, expect_digest: str | None = None) -> dict | None:
    """Load a snapshot as zero-copy array views, or None when unusable.

    Returns ``{"digest", "seed", "arrays"}`` on success. Every failure
    mode — missing file, corrupt zip, format-version or digest mismatch —
    logs through ``repro.obs`` and returns None so the caller rebuilds
    from the generator; a snapshot is never allowed to crash a run or
    serve tables from a different format.
    """
    load_start = time.perf_counter()
    try:
        with zipfile.ZipFile(path) as archive:
            meta = _read_meta(archive, path)
            if meta is None:
                LOAD_FAILURES.inc()
                _drop(path)
                return None
            if meta.get("format_version") != SNAPSHOT_FORMAT_VERSION:
                VERSION_MISMATCHES.inc()
                _log.warning(
                    "world snapshot %s has format_version=%r, expected %d; "
                    "rebuilding from the generator",
                    path, meta.get("format_version"), SNAPSHOT_FORMAT_VERSION,
                    extra={"path": str(path)},
                )
                _drop(path)
                return None
            if expect_digest is not None and meta.get("digest") != expect_digest:
                LOAD_FAILURES.inc()
                _log.warning(
                    "world snapshot %s holds digest %r, expected %r; ignoring",
                    path, meta.get("digest"), expect_digest,
                )
                return None
            raw = archive.fp
            arrays: dict[str, np.ndarray] = {}
            for name in meta["arrays"]:
                info = archive.getinfo(name + ".npy")
                arrays[name] = _mmap_member(path, raw, info)
    except FileNotFoundError:
        return None
    except zipfile.BadZipFile as error:
        LOAD_FAILURES.inc()
        _log.warning("world snapshot %s is corrupt (%s); dropping it", path, error)
        _drop(path)
        return None
    except (KeyError, ValueError, OSError) as error:
        LOAD_FAILURES.inc()
        _log.warning("failed to load world snapshot %s (%s)", path, error)
        return None
    LOADS.inc()
    LOAD_WALL_MS.observe((time.perf_counter() - load_start) * 1000.0)
    return {"digest": meta["digest"], "seed": meta["seed"], "arrays": arrays}

"""Disk cache for completed experiment sessions.

Completed :class:`~repro.core.training.SessionResult` objects are persisted
as gzip-compressed JSON under a directory keyed by the job hash (see
:mod:`repro.runtime.job`).  The payload stores the policy's loss/reward
histories plus the per-frame trace; the summary metrics are *recomputed* on
load through the same :func:`~repro.core.training.session_result_from_trace`
path a fresh run uses, so a cache hit is guaranteed to yield bit-identical
metrics to the run that produced it.

Long traces do not live inside the JSON: past a frame threshold the trace
is stored as a *sidecar blob* — a one-session columnar chunk store (see
:mod:`repro.store`) in a ``<key>.blob/`` directory next to the payload —
and the JSON carries only a reference.  Loads memory-map the blob, short
traces stay inline, and every maintenance operation (``stats``, ``list``,
``prune`` including ``--dry-run``, ``clear``) accounts for and removes
blobs together with their payloads.

The default cache location is ``~/.cache/repro-lotus`` and can be overridden
with the ``REPRO_CACHE_DIR`` environment variable or per-instance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.core.training import SessionResult, session_result_from_trace
from repro.env.trace import FrameRecord, Trace
from repro.errors import ExperimentError, StoreError
from repro.obs import bus as _obs
from repro.runtime.job import CACHE_SCHEMA_VERSION
from repro.store import read_scalar_trace, write_scalar_trace

#: Environment variable that overrides the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Traces at least this many frames long are stored as columnar sidecar
#: blobs instead of inline JSON rows.
DEFAULT_BLOB_THRESHOLD_FRAMES = 512

#: Column order used by the serialised trace payload.
_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(FrameRecord))

_BLOB_SUFFIX = ".blob"
_PAYLOAD_SUFFIX = ".json.gz"


def default_cache_dir() -> Path:
    """The cache directory used when none is given explicitly."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-lotus"


def _tree_bytes(path: Path) -> int:
    total = 0
    for item in path.rglob("*"):
        with contextlib.suppress(OSError):
            if item.is_file():
                total += item.stat().st_size
    return total


@dataclass(frozen=True)
class CacheStats:
    """Summary of a cache directory's contents.

    Attributes:
        entries: Number of stored session results.
        total_bytes: Total size of the stored payloads on disk, sidecar
            blobs included.
        blob_bytes: Portion of ``total_bytes`` held in sidecar blobs.
    """

    entries: int
    total_bytes: int
    blob_bytes: int = 0


@dataclass(frozen=True)
class CacheEntry:
    """One stored result's on-disk footprint.

    Attributes:
        key: The job hash the entry is stored under.
        path: Payload path on disk.
        size_bytes: Compressed payload size plus the entry's sidecar blob,
            if it has one.
        modified: Last-modified time (epoch seconds) — entries are written
            once, so this is effectively the completion time of the job.
        blob_bytes: Size of the entry's columnar sidecar blob (0 when the
            trace is inline JSON).
    """

    key: str
    path: Path
    size_bytes: int
    modified: float
    blob_bytes: int = 0


class ResultCache:
    """Content-addressed store of completed session results.

    Entries are sharded into two-character subdirectories (like Git objects)
    so that very large sweeps do not pile tens of thousands of files into a
    single directory.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Payload path of a cache key."""
        if not key:
            raise ExperimentError("cache key must be a non-empty string")
        return self.root / key[:2] / f"{key}{_PAYLOAD_SUFFIX}"

    def blob_dir_for(self, key: str) -> Path:
        """Sidecar-blob directory of a cache key (may not exist)."""
        return self.path_for(key).parent / f"{key}{_BLOB_SUFFIX}"

    def contains(self, key: str) -> bool:
        """Whether a result is stored under ``key``."""
        return self.path_for(key).exists()

    def _iter_entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return
        yield from self.root.glob(f"*/*{_PAYLOAD_SUFFIX}")

    # -- round trip ----------------------------------------------------------

    def _trace_is_contiguous(self, trace: Trace) -> bool:
        return bool(np.all(np.diff(trace.column("index")) == 1))

    def store(self, key: str, result: SessionResult) -> Path:
        """Persist ``result`` under ``key`` and return the payload path.

        Writes go through temporary files and atomic renames so a crashed
        or interrupted run never leaves a truncated payload behind.  Traces
        of at least :data:`DEFAULT_BLOB_THRESHOLD_FRAMES` frames (with
        contiguous frame indices) are written as a columnar sidecar blob
        *before* the JSON payload that references it — the payload is the
        commit point, so a crash in between leaves only an orphaned blob,
        never a payload pointing at a missing or partial blob.
        """
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "policy_name": result.policy_name,
            "fields": list(_TRACE_FIELDS),
            "losses": [float(v) for v in result.losses],
            "rewards": [float(v) for v in result.rewards],
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        use_blob = len(
            result.trace
        ) >= DEFAULT_BLOB_THRESHOLD_FRAMES and self._trace_is_contiguous(result.trace)
        if use_blob:
            blob_dir = self.blob_dir_for(key)
            tmp_dir = Path(
                tempfile.mkdtemp(dir=path.parent, prefix=f".{key}{_BLOB_SUFFIX}-")
            )
            try:
                write_scalar_trace(result.trace, tmp_dir)
                if blob_dir.exists():
                    shutil.rmtree(blob_dir)
                os.replace(tmp_dir, blob_dir)
            except BaseException:
                shutil.rmtree(tmp_dir, ignore_errors=True)
                raise
            payload["trace_blob"] = blob_dir.name
            payload["num_frames"] = len(result.trace)
            if _obs.active():
                _obs.inc("cache.blob_bytes_written", _tree_bytes(blob_dir))
        else:
            payload["records"] = [
                [getattr(record, name) for name in _TRACE_FIELDS]
                for record in result.trace
            ]
        # Unique temp name per writer: two processes storing the same key
        # concurrently (shared cache directory) must not clobber each
        # other's half-written payload before the atomic rename.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as raw:
                with gzip.open(raw, "wt", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        _obs.inc("cache.stores")
        if not use_blob:
            # A smaller re-store under the same key supersedes any stale
            # sidecar blob from a previous schema.
            stale = self.blob_dir_for(key)
            if stale.exists():
                shutil.rmtree(stale, ignore_errors=True)
        return path

    def load(self, key: str) -> Optional[SessionResult]:
        """Load the result stored under ``key``; ``None`` on miss.

        Entries written by an incompatible schema version, or corrupted on
        disk — including missing, truncated or tampered sidecar blobs — are
        treated as misses (and are overwritten by the next store) rather
        than raised, so a stale cache can never break a sweep.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, EOFError, json.JSONDecodeError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if payload.get("fields") != list(_TRACE_FIELDS):
            return None
        blob_name = payload.get("trace_blob")
        if blob_name is not None:
            # The reference is a bare directory name inside the entry's
            # shard; reject anything path-like outright.
            if Path(blob_name).name != blob_name:
                return None
            try:
                trace = read_scalar_trace(path.parent / blob_name)
            except StoreError:
                return None
            if _obs.active():
                _obs.inc("cache.blob_bytes_read", _tree_bytes(path.parent / blob_name))
            if len(trace) != payload.get("num_frames", len(trace)):
                return None
        else:
            trace = Trace(
                [
                    FrameRecord(**dict(zip(_TRACE_FIELDS, row)))
                    for row in payload["records"]
                ]
            )
        return session_result_from_trace(
            payload["policy_name"],
            trace,
            losses=payload.get("losses", []),
            rewards=payload.get("rewards", []),
        )

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Entry count and total size (payloads plus blobs) of the cache."""
        entries = 0
        total = 0
        blobs = 0
        for entry in self.entries():
            entries += 1
            total += entry.size_bytes
            blobs += entry.blob_bytes
        return CacheStats(entries=entries, total_bytes=total, blob_bytes=blobs)

    def entries(self) -> List[CacheEntry]:
        """Every stored entry with its on-disk size, newest first.

        ``size_bytes`` covers the payload *and* its sidecar blob, so
        ``cache list`` and prune decisions see the true footprint.  Entries
        deleted between the directory scan and the stat (another process
        pruning concurrently) are skipped, not raised.
        """
        items: List[CacheEntry] = []
        for path in self._iter_entries():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            key = path.name[: -len(_PAYLOAD_SUFFIX)]
            blob = path.parent / f"{key}{_BLOB_SUFFIX}"
            blob_bytes = _tree_bytes(blob) if blob.is_dir() else 0
            items.append(
                CacheEntry(
                    key=key,
                    path=path,
                    size_bytes=stat.st_size + blob_bytes,
                    modified=stat.st_mtime,
                    blob_bytes=blob_bytes,
                )
            )
        items.sort(key=lambda entry: (-entry.modified, entry.key))
        return items

    def _remove_entry(self, entry: CacheEntry) -> None:
        with contextlib.suppress(FileNotFoundError):
            entry.path.unlink()
        blob = entry.path.parent / f"{entry.key}{_BLOB_SUFFIX}"
        if blob.is_dir():
            shutil.rmtree(blob, ignore_errors=True)

    def _remove_orphan_blobs(self) -> None:
        """Drop blob directories whose payload no longer exists (a crash
        between blob write and payload commit, or an interrupted prune)."""
        if not self.root.exists():
            return
        for blob in self.root.glob(f"*/*{_BLOB_SUFFIX}"):
            if not blob.is_dir():
                continue
            key = blob.name[: -len(_BLOB_SUFFIX)]
            if not (blob.parent / f"{key}{_PAYLOAD_SUFFIX}").exists():
                shutil.rmtree(blob, ignore_errors=True)

    def _remove_empty_shards(self) -> None:
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()

    def prune(
        self,
        keep_latest: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> int:
        """Delete old entries (payloads and blobs); returns the number removed.

        Args:
            keep_latest: Keep only the N most recently written entries.
            max_age_days: Delete entries older than this many days.
            now: Reference time (epoch seconds; defaults to the current
                time) — injectable for tests.
            dry_run: Report how many entries *would* be removed without
                deleting anything.

        At least one criterion must be given; when both are, an entry is
        removed if *either* applies.  Long eval-matrix campaigns use this to
        keep the result cache bounded.
        """
        if keep_latest is None and max_age_days is None:
            raise ExperimentError("prune needs keep_latest and/or max_age_days")
        if keep_latest is not None and keep_latest < 0:
            raise ExperimentError("keep_latest must be non-negative")
        if max_age_days is not None and max_age_days < 0:
            raise ExperimentError("max_age_days must be non-negative")
        reference = time.time() if now is None else now
        entries = self.entries()  # newest first
        doomed = {}
        if keep_latest is not None:
            for entry in entries[keep_latest:]:
                doomed[entry.path] = entry
        if max_age_days is not None:
            cutoff = reference - max_age_days * 86_400.0
            for entry in entries:
                if entry.modified < cutoff:
                    doomed[entry.path] = entry
        if dry_run:
            return len(doomed)
        for entry in doomed.values():
            self._remove_entry(entry)
        self._remove_orphan_blobs()
        self._remove_empty_shards()
        return len(doomed)

    def clear(self) -> int:
        """Delete every stored entry (and blob); returns the number removed."""
        removed = 0
        for entry in self.entries():
            self._remove_entry(entry)
            removed += 1
        self._remove_orphan_blobs()
        self._remove_empty_shards()
        return removed

"""Chunked on-disk columnar trace store with zero-copy memory-mapped reads.

A trace store is a directory holding fixed-dtype column blocks of ``N``
frames each plus a JSON manifest:

``manifest.json``
    Format tag and version, fleet geometry, column schema (names and numpy
    dtype strings), the dataset string table, and the chunk index with one
    per-chunk SHA-256 digest.

``chunk-000000.bin``, ``chunk-000001.bin``, ...
    One binary blob per chunk of up to ``chunk_frames`` frames.  Inside a
    chunk every column of :data:`~repro.env.trace.COLUMN_DTYPES` (the one
    trace dtype table) is a contiguous C-order ``(frames, num_sessions)``
    block; columns are laid out in descending itemsize order (8-byte
    numerics, then the ``int32`` dataset codes, then booleans) so every
    block starts naturally aligned for its dtype.

Both files are written via atomic spool-rename (temp file + ``os.replace``)
and the manifest is written *last*, so a crashed writer never leaves a
readable-but-wrong store: either the manifest exists and every chunk it
indexes is complete, or the directory is not a store at all.

:class:`MappedFleetTrace` serves frames, per-session scalar traces and
column windows from ``numpy.memmap`` views without loading chunk files into
memory, and round-trips byte-identical to the in-memory
:class:`~repro.env.fleet.FleetTrace` it was written from.  A scalar
:class:`~repro.env.trace.Trace` is stored as a one-session store
(:func:`write_scalar_trace`) straight from its columns.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.env.fleet import FleetFrameResult, FleetTrace
from repro.env.trace import COLUMN_DTYPES, Trace, session_slice
from repro.errors import StoreError

STORE_FORMAT = "repro-store/v1"
STORE_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_CHUNK_FRAMES = 256

#: Synthetic int32 column recording each session's dataset as an index into
#: the manifest's dataset string table.
DATASET_CODE_COLUMN = "dataset_code"

_CHUNK_NAME = "chunk-{:06d}.bin"

#: The store's column schema: the trace columns of
#: :data:`~repro.env.trace.COLUMN_DTYPES` plus the int32 dataset codes.
_SCHEMA: Dict[str, np.dtype] = {**COLUMN_DTYPES, DATASET_CODE_COLUMN: np.dtype(np.int32)}

#: Chunk column order: descending itemsize, stable in field order.  With
#: the chunk laid out largest-itemsize first, every column block's byte
#: offset is a multiple of its own itemsize (chunk files start page-aligned
#: under ``mmap``), so memmap views never straddle alignment.
_COLUMN_ORDER: List[str] = sorted(_SCHEMA, key=lambda name: -_SCHEMA[name].itemsize)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class FleetTraceWriter:
    """Incremental chunked writer for fleet traces.

    Frames are appended one at a time (the episode loops use the writer
    directly as a trace *sink*), buffered by reference, and flushed to disk
    every ``chunk_frames`` frames, so peak writer memory is one chunk
    regardless of episode length.  ``close()`` flushes the tail chunk and
    writes the manifest; until then the directory is not a readable store.

    At a chunk boundary, :meth:`index` is the writer's whole state without
    its frames (sealed chunk entries, dataset table, frames written), and
    :meth:`resume` continues a store from such an index: the chunks after
    it are written again, each replacing its old file atomically.
    """

    def __init__(
        self,
        path: Union[str, Path],
        num_sessions: int,
        chunk_frames: int = DEFAULT_CHUNK_FRAMES,
        start_index: Optional[int] = None,
    ):
        if num_sessions <= 0:
            raise StoreError("num_sessions must be positive")
        if chunk_frames <= 0:
            raise StoreError("chunk_frames must be positive")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreError(f"{self.path} already contains a trace store")
        self.num_sessions = num_sessions
        self.chunk_frames = chunk_frames
        self._start_index = start_index
        self._frames_written = 0
        self._buffers: Dict[str, List[np.ndarray]] = {name: [] for name in _COLUMN_ORDER}
        self._chunks: List[dict] = []
        self._dataset_table: List[str] = []
        self._dataset_codes: Dict[str, int] = {}
        self._last_datasets: Optional[tuple] = None
        self._last_codes: Optional[np.ndarray] = None
        self._closed = False

    # -- dataset codes -----------------------------------------------------

    def _encode_datasets(self, datasets: tuple) -> np.ndarray:
        if datasets == self._last_datasets and self._last_codes is not None:
            return self._last_codes
        codes = np.empty(self.num_sessions, dtype=np.int32)
        for i, name in enumerate(datasets):
            code = self._dataset_codes.get(name)
            if code is None:
                code = len(self._dataset_table)
                self._dataset_codes[name] = code
                self._dataset_table.append(str(name))
            codes[i] = code
        self._last_datasets = datasets
        self._last_codes = codes
        return codes

    # -- appending ---------------------------------------------------------

    @property
    def frames_buffered(self) -> int:
        return len(self._buffers[DATASET_CODE_COLUMN])

    @property
    def frames_written(self) -> int:
        return self._frames_written

    @property
    def start_index(self) -> int:
        return 0 if self._start_index is None else self._start_index

    # -- resuming ----------------------------------------------------------

    def index(self) -> dict:
        """The sealed-chunk index: everything but the frames themselves.

        Taken at a chunk boundary only (nothing buffered), so the chunks it
        lists hold every frame written.
        """
        if self.frames_buffered:
            raise StoreError(
                f"{self.frames_buffered} frame(s) are buffered; the index is "
                f"taken at a chunk boundary"
            )
        return {
            "start_index": self._start_index,
            "frames_written": self._frames_written,
            "chunks": [dict(entry) for entry in self._chunks],
            "datasets": list(self._dataset_table),
        }

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        num_sessions: int,
        index: dict,
        chunk_frames: int = DEFAULT_CHUNK_FRAMES,
    ) -> "FleetTraceWriter":
        """A writer continuing the unsealed store at ``path`` from ``index``.

        Only what the index lists is kept: every chunk it indexes must be on
        disk at its declared size, and any later chunk file (written after
        the index was taken) is replaced when its frames are appended again.
        """
        writer = cls(path, num_sessions, chunk_frames=chunk_frames)
        for entry in index["chunks"]:
            chunk = writer.path / entry["file"]
            if not chunk.is_file() or chunk.stat().st_size != entry["bytes"]:
                raise StoreError(f"{writer.path}: indexed chunk {entry['file']} is missing")
        writer._start_index = index["start_index"]
        writer._frames_written = int(index["frames_written"])
        writer._chunks = [dict(entry) for entry in index["chunks"]]
        writer._dataset_table = [str(name) for name in index["datasets"]]
        writer._dataset_codes = {
            name: code for code, name in enumerate(writer._dataset_table)
        }
        return writer

    def append(self, frame: FleetFrameResult) -> None:
        """Append one completed fleet frame; flush a chunk when full."""
        if self._closed:
            raise StoreError("writer is closed")
        if frame.num_sessions != self.num_sessions:
            raise StoreError(
                f"frame has {frame.num_sessions} sessions, store expects "
                f"{self.num_sessions}"
            )
        if self._start_index is None:
            self._start_index = int(frame.index)
        expected = self._start_index + self._frames_written
        if int(frame.index) != expected:
            raise StoreError(
                f"non-contiguous frame index {frame.index} (expected {expected})"
            )
        for name, dtype in COLUMN_DTYPES.items():
            array = np.asarray(getattr(frame, name))
            if array.dtype != dtype or array.shape != (self.num_sessions,):
                raise StoreError(
                    f"column {name!r} is {array.dtype.str}{array.shape}, the "
                    f"store schema is {dtype.str}({self.num_sessions},)"
                )
            self._buffers[name].append(array)
        self._buffers[DATASET_CODE_COLUMN].append(self._encode_datasets(frame.datasets))
        self._frames_written += 1
        if self.frames_buffered >= self.chunk_frames:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        frames = self.frames_buffered
        if frames == 0:
            return
        digest = hashlib.sha256()
        parts: List[bytes] = []
        for name in _COLUMN_ORDER:
            block = np.stack(self._buffers[name])
            raw = block.tobytes()
            digest.update(raw)
            parts.append(raw)
            self._buffers[name].clear()
        payload = b"".join(parts)
        start = self.start_index + self._frames_written - frames
        filename = _CHUNK_NAME.format(len(self._chunks))
        _atomic_write_bytes(self.path / filename, payload)
        self._chunks.append(
            {
                "file": filename,
                "start": start,
                "frames": frames,
                "bytes": len(payload),
                "sha256": digest.hexdigest(),
            }
        )

    # -- finalising --------------------------------------------------------

    def close(self) -> Path:
        """Flush the tail chunk, write the manifest, and seal the store."""
        if self._closed:
            return self.path / MANIFEST_NAME
        if self._frames_written == 0:
            raise StoreError("cannot seal an empty trace store (no frames appended)")
        self._flush_chunk()
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_FORMAT_VERSION,
            "num_sessions": self.num_sessions,
            "num_frames": self._frames_written,
            "chunk_frames": self.chunk_frames,
            "start_index": self.start_index,
            "columns": [
                {"name": name, "dtype": _SCHEMA[name].str} for name in _COLUMN_ORDER
            ],
            "datasets": self._dataset_table,
            "chunks": self._chunks,
        }
        _atomic_write_bytes(
            self.path / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode("utf-8"),
        )
        self._closed = True
        return self.path / MANIFEST_NAME

    def __enter__(self) -> "FleetTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        # On error, deliberately leave the store unsealed (no manifest):
        # readers reject it instead of serving a partial trace.


class MappedFleetTrace:
    """Zero-copy reader over a sealed trace store.

    Chunk files are memory-mapped lazily and served as dtype views; frames,
    session slices and column windows are all constructed from those views
    without reading whole files.  Construction validates the manifest and
    every chunk's size eagerly (truncation is a :class:`StoreError` at open
    time); content hashes are checked on :meth:`verify` (or ``verify=True``).

    At most ``map_cache_chunks`` chunk maps are held at once (LRU): once a
    streaming pass moves past a chunk its mapping is dropped, so the
    reader's resident set stays bounded by a few chunks regardless of store
    size.  Views handed out earlier stay valid — they keep their backing
    map alive through numpy's base-reference chain.
    """

    def __init__(
        self,
        path: Union[str, Path],
        verify: bool = False,
        map_cache_chunks: int = 8,
    ):
        if map_cache_chunks < 1:
            raise StoreError("map_cache_chunks must be at least 1")
        self._map_cache_chunks = int(map_cache_chunks)
        path = Path(path)
        self.path = path.parent if path.name == MANIFEST_NAME else path
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{self.path} is not a trace store: no {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt store manifest {manifest_path}: {exc}") from exc
        self._manifest = self._validate_manifest(manifest)
        self.num_sessions: int = manifest["num_sessions"]
        self.num_frames: int = manifest["num_frames"]
        self.chunk_frames: int = manifest["chunk_frames"]
        self._start_index: int = manifest["start_index"]
        self._datasets: Tuple[str, ...] = tuple(manifest["datasets"])
        self._order: List[str] = [column["name"] for column in manifest["columns"]]
        self._chunks: List[dict] = manifest["chunks"]
        self._offsets: List[Dict[str, int]] = []
        self._validate_chunks()
        self._maps: "OrderedDict[int, np.memmap]" = OrderedDict()
        if verify:
            self.verify()

    # -- validation --------------------------------------------------------

    def _validate_manifest(self, manifest: object) -> dict:
        if not isinstance(manifest, dict):
            raise StoreError(f"{self.path}: manifest is not a JSON object")
        fmt = manifest.get("format")
        if fmt != STORE_FORMAT:
            raise StoreError(
                f"{self.path}: unknown store format {fmt!r} "
                f"(expected {STORE_FORMAT!r})"
            )
        version = manifest.get("version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"{self.path}: store version {version!r} is not supported "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        required = (
            "num_sessions",
            "num_frames",
            "chunk_frames",
            "start_index",
            "columns",
            "datasets",
            "chunks",
        )
        for key in required:
            if key not in manifest:
                raise StoreError(f"{self.path}: manifest is missing {key!r}")
        names = [column.get("name") for column in manifest["columns"]]
        if set(names) != set(_SCHEMA) or len(names) != len(_SCHEMA):
            raise StoreError(
                f"{self.path}: manifest column schema does not match "
                f"{len(_SCHEMA)} expected trace columns"
            )
        for column in manifest["columns"]:
            if column.get("dtype") != _SCHEMA[column["name"]].str:
                raise StoreError(
                    f"{self.path}: column {column['name']!r} has dtype "
                    f"{column.get('dtype')!r}, the trace schema stores "
                    f"{_SCHEMA[column['name']].str!r}"
                )
        return manifest

    def _validate_chunks(self) -> None:
        frame_bytes = sum(
            _SCHEMA[name].itemsize * self.num_sessions for name in self._order
        )
        expected_start = self._start_index
        total = 0
        for entry in self._chunks:
            frames = int(entry["frames"])
            if frames <= 0:
                raise StoreError(f"{self.path}: chunk {entry['file']} has no frames")
            if int(entry["start"]) != expected_start:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} starts at frame "
                    f"{entry['start']}, expected {expected_start}"
                )
            expected_bytes = frames * frame_bytes
            if int(entry["bytes"]) != expected_bytes:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} declares "
                    f"{entry['bytes']} bytes, layout requires {expected_bytes}"
                )
            chunk_path = self.path / entry["file"]
            try:
                actual = chunk_path.stat().st_size
            except OSError as exc:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} is missing"
                ) from exc
            if actual != expected_bytes:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} is truncated "
                    f"({actual} bytes on disk, {expected_bytes} expected)"
                )
            offsets: Dict[str, int] = {}
            cursor = 0
            for name in self._order:
                offsets[name] = cursor
                cursor += _SCHEMA[name].itemsize * self.num_sessions * frames
            self._offsets.append(offsets)
            expected_start += frames
            total += frames
        if total != self.num_frames:
            raise StoreError(
                f"{self.path}: chunk index covers {total} frames, manifest "
                f"declares {self.num_frames}"
            )

    def verify(self) -> None:
        """Re-hash every chunk and raise :class:`StoreError` on tampering."""
        for entry in self._chunks:
            digest = hashlib.sha256()
            with open(self.path / entry["file"], "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            if digest.hexdigest() != entry["sha256"]:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} failed its SHA-256 "
                    f"integrity check"
                )

    # -- low-level views ---------------------------------------------------

    def _chunk_map(self, chunk: int) -> np.memmap:
        mapped = self._maps.get(chunk)
        if mapped is None:
            mapped = np.memmap(
                self.path / self._chunks[chunk]["file"], dtype=np.uint8, mode="r"
            )
            self._maps[chunk] = mapped
            while len(self._maps) > self._map_cache_chunks:
                self._maps.popitem(last=False)
        else:
            self._maps.move_to_end(chunk)
        return mapped

    def _column_view(self, raw: np.ndarray, chunk: int, name: str) -> np.ndarray:
        """Column ``name`` of chunk ``chunk`` as a ``(frames, N)`` view of
        the chunk's bytes ``raw``."""
        frames = self._chunks[chunk]["frames"]
        dtype = _SCHEMA[name]
        offset = self._offsets[chunk][name]
        nbytes = dtype.itemsize * self.num_sessions * frames
        return raw[offset : offset + nbytes].view(dtype).reshape(frames, self.num_sessions)

    def _column_block(self, chunk: int, name: str) -> np.ndarray:
        """Column ``name`` of chunk ``chunk`` as a ``(frames, N)`` memmap view."""
        return self._column_view(self._chunk_map(chunk), chunk, name)

    # -- public read API ---------------------------------------------------

    @property
    def start_index(self) -> int:
        """Global index of the first stored frame."""
        return self._start_index

    @property
    def total_frames(self) -> int:
        """Aggregate frames processed across the fleet (frames x sessions)."""
        return self.num_frames * self.num_sessions

    def __len__(self) -> int:
        return self.num_frames

    def iter_column_chunks(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(frame_offset, block)`` zero-copy views of one column.

        Blocks are at most one chunk long; iterating a column touches one
        chunk's pages at a time, which is what keeps streaming reports in
        bounded memory.
        """
        if name not in _SCHEMA:
            raise StoreError(f"unknown column {name!r}")
        stop = self.num_frames if stop is None else min(stop, self.num_frames)
        cursor = 0
        for chunk, entry in enumerate(self._chunks):
            frames = entry["frames"]
            lo = max(start, cursor)
            hi = min(stop, cursor + frames)
            if lo < hi:
                block = self._column_block(chunk, name)[lo - cursor : hi - cursor]
                yield lo, block
            cursor += frames
            if cursor >= stop:
                break

    @property
    def dataset_table(self) -> Tuple[str, ...]:
        """The dataset names that the ``dataset_code`` column indexes."""
        return self._datasets

    def iter_chunks(self) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
        """Yield ``(frame_offset, blocks)`` per chunk, reading each file once.

        ``blocks`` maps every store column (the trace columns and
        ``dataset_code``) to a ``(frames, N)`` view of one in-memory copy
        of the chunk, so a pass over the whole store costs one read per
        chunk rather than a mapping and a view per column.
        """
        cursor = 0
        for chunk, entry in enumerate(self._chunks):
            raw = np.fromfile(self.path / entry["file"], dtype=np.uint8)
            if raw.size != entry["bytes"]:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} changed size since open"
                )
            yield cursor, {name: self._column_view(raw, chunk, name) for name in self._order}
            cursor += entry["frames"]

    def column_window(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Frames ``[start, stop)`` of one column as a ``(frames, N)`` array.

        A window inside a single chunk is a zero-copy memmap view; a window
        spanning chunks is assembled into one freshly allocated array.
        """
        stop = self.num_frames if stop is None else min(stop, self.num_frames)
        blocks = list(self.iter_column_chunks(name, start, stop))
        if len(blocks) == 1 and blocks[0][1].shape[0] == stop - start:
            return blocks[0][1]
        out = np.empty((max(stop - start, 0), self.num_sessions), dtype=_SCHEMA[name])
        for offset, block in blocks:
            out[offset - start : offset - start + block.shape[0]] = block
        return out

    def datasets_window(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[tuple]:
        """Per-frame dataset-name tuples for frames ``[start, stop)``."""
        table = self._datasets
        rows: List[tuple] = []
        last_codes: Optional[bytes] = None
        last_row: Optional[tuple] = None
        for _, block in self.iter_column_chunks(DATASET_CODE_COLUMN, start, stop):
            for codes in block:
                key = codes.tobytes()
                if key != last_codes:
                    last_row = tuple(table[code] for code in codes)
                    last_codes = key
                rows.append(last_row)
        return rows

    def __getitem__(self, frame: int) -> FleetFrameResult:
        """Frame ``frame`` (0-based offset) as memmap-backed views."""
        if frame < 0:
            frame += self.num_frames
        if not 0 <= frame < self.num_frames:
            raise StoreError(f"frame offset {frame} out of range [0, {self.num_frames})")
        return FleetFrameResult(
            index=self._start_index + frame,
            datasets=self.datasets_window(frame, frame + 1)[0],
            **{
                name: self.column_window(name, frame, frame + 1)[0]
                for name in COLUMN_DTYPES
            },
        )

    def __iter__(self) -> Iterator[FleetFrameResult]:
        for frame in range(self.num_frames):
            yield self[frame]

    def session_trace(self, i: int) -> Trace:
        """Session ``i``'s scalar :class:`Trace` (contiguous column copies)."""
        return session_slice(self, i)

    def close(self) -> None:
        """Drop the chunk memmaps (views handed out become invalid lazily)."""
        self._maps.clear()


# ---------------------------------------------------------------------------
# Convenience round-trip helpers
# ---------------------------------------------------------------------------


def write_fleet_trace(
    trace: FleetTrace,
    path: Union[str, Path],
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> Path:
    """Write an in-memory fleet trace to ``path``; returns the manifest path."""
    with FleetTraceWriter(path, trace.num_sessions, chunk_frames=chunk_frames) as writer:
        for frame in trace:
            writer.append(frame)
    return writer.close()


def write_scalar_trace(
    trace: Trace,
    path: Union[str, Path],
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> Path:
    """Write a scalar :class:`Trace` as a one-session store.

    Requires contiguous frame indices (every episode trace has them); raises
    :class:`StoreError` otherwise so callers can fall back to row formats.
    """
    if not len(trace):
        raise StoreError("cannot store an empty trace")
    index = trace.column("index")
    if not np.array_equal(index, np.arange(index[0], index[0] + len(index))):
        raise StoreError("cannot store a trace with non-contiguous frame indices")
    one_session = FleetTrace.from_columns(
        {name: trace.column(name)[:, np.newaxis] for name in COLUMN_DTYPES},
        [(dataset,) for dataset in trace.datasets()],
        int(index[0]),
    )
    return write_fleet_trace(one_session, path, chunk_frames=chunk_frames)


def read_scalar_trace(path: Union[str, Path]) -> Trace:
    """Read a one-session store written by :func:`write_scalar_trace`."""
    mapped = MappedFleetTrace(path)
    try:
        if mapped.num_sessions != 1:
            raise StoreError(
                f"{mapped.path} holds {mapped.num_sessions} sessions, expected "
                f"a scalar (1-session) store"
            )
        return mapped.session_trace(0)
    finally:
        mapped.close()


def fleet_traces_bitwise_equal(a, b, block_frames: int = 256) -> bool:
    """True iff two trace-likes are byte-identical, compared columnwise.

    Accepts any pairing of :class:`~repro.env.fleet.FleetTrace` and
    :class:`MappedFleetTrace`.  Floats are compared through int64 bit views,
    so even a flipped sign of zero or a differing NaN payload fails; the
    comparison streams ``block_frames`` frames at a time and never
    materialises either trace.
    """
    if a.num_sessions != b.num_sessions or len(a) != len(b):
        return False
    if a.start_index != b.start_index:
        return False
    length = len(a)
    for lo in range(0, length, block_frames):
        hi = min(lo + block_frames, length)
        for name in COLUMN_DTYPES:
            block_a = np.ascontiguousarray(a.column_window(name, lo, hi))
            block_b = np.ascontiguousarray(b.column_window(name, lo, hi))
            if block_a.dtype != block_b.dtype:
                return False
            if block_a.dtype.itemsize == 8:
                if not np.array_equal(
                    block_a.view(np.int64), block_b.view(np.int64)
                ):
                    return False
            elif not np.array_equal(block_a, block_b):
                return False
        if a.datasets_window(lo, hi) != b.datasets_window(lo, hi):
            return False
    return True

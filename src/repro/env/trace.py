"""Frame-level execution traces, and the one storage format of every trace.

A :class:`Trace` is the primary experiment artefact: one session's frames,
carrying everything needed to regenerate the paper's figures (latency and
temperature series) and tables (latency mean/std and satisfaction rate).

Traces are columns end to end: a :class:`Trace` keeps one NumPy column per
:class:`FrameRecord` field, the fleet traces keep the same columns as
``(frames, sessions)`` arrays, and :data:`COLUMN_DTYPES` is their one dtype
table.  A :class:`FrameRecord` is only a row view, built on demand with
Python scalars.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class FrameRecord:
    """Everything recorded about the inference of one image frame.

    Attributes:
        index: Frame index within the episode.
        dataset: Dataset the frame came from.
        num_proposals: RPN proposal count (0 for one-stage detectors).
        stage1_latency_ms: Latency of pre-processing + backbone + RPN.
        stage2_latency_ms: Latency of RoI pooling + heads + post-processing.
        total_latency_ms: End-to-end frame latency.
        latency_constraint_ms: Constraint in force for this frame.
        met_constraint: Whether ``total_latency_ms <= latency_constraint_ms``.
        cpu_temperature_c / gpu_temperature_c: Die temperatures at frame end.
        cpu_level_stage1 / gpu_level_stage1: Effective levels during stage 1.
        cpu_level_stage2 / gpu_level_stage2: Effective levels during stage 2.
        cpu_throttled / gpu_throttled: Whether hardware throttling was active
            at any point during the frame.
        ambient_temperature_c: Ambient temperature while processing the frame.
        energy_j: Energy consumed by the frame.
    """

    index: int
    dataset: str
    num_proposals: int
    stage1_latency_ms: float
    stage2_latency_ms: float
    total_latency_ms: float
    latency_constraint_ms: float
    met_constraint: bool
    cpu_temperature_c: float
    gpu_temperature_c: float
    cpu_level_stage1: int
    gpu_level_stage1: int
    cpu_level_stage2: int
    gpu_level_stage2: int
    cpu_throttled: bool
    gpu_throttled: bool
    ambient_temperature_c: float
    energy_j: float

    @property
    def latency_slack_ms(self) -> float:
        """ΔL_i = L - l_i; negative when the constraint was violated."""
        return self.latency_constraint_ms - self.total_latency_ms

    @property
    def mean_temperature_c(self) -> float:
        """Average of CPU and GPU temperature (the quantity the paper plots)."""
        return 0.5 * (self.cpu_temperature_c + self.gpu_temperature_c)

    @property
    def any_throttled(self) -> bool:
        """Whether either processor throttled during the frame."""
        return self.cpu_throttled or self.gpu_throttled


#: Storage dtype of each :class:`FrameRecord` field type.
_DTYPES = {"int": np.dtype(np.int64), "float": np.dtype(np.float64), "bool": np.dtype(np.bool_)}

#: The value columns of a trace — every :class:`FrameRecord` field but
#: ``index`` and ``dataset``, in field order — with their storage dtypes.
#: Every trace representation and the on-disk store use this one table.
COLUMN_DTYPES: Dict[str, np.dtype] = {
    f.name: _DTYPES[f.type]
    for f in dataclasses.fields(FrameRecord)
    if f.name not in ("index", "dataset")
}


def checked_column(name: str, column: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Column ``name``, which must have its table dtype and ``shape``."""
    column = np.asarray(column)
    if column.dtype != COLUMN_DTYPES[name] or column.shape != shape:
        raise ExperimentError(
            f"column {name!r} is {column.dtype.str}{column.shape}, expected "
            f"{COLUMN_DTYPES[name].str}{shape}"
        )
    return column


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """A copy of ``array``'s first ``size`` rows with room to double."""
    out = np.empty((max(16, 2 * size),) + array.shape[1:], dtype=array.dtype)
    out[:size] = array[:size]
    return out


class Trace:
    """One session's frames, as one NumPy column per :class:`FrameRecord` field.

    Records are appended one at a time (:meth:`append`, the scalar episode
    loop) into growable columns, or adopted whole (:meth:`from_columns`).
    Indexing and iteration build :class:`FrameRecord` row views on demand;
    the array accessors return fresh copies of the columns.
    """

    def __init__(self, records: Sequence[FrameRecord] | None = None):
        self._size = 0
        self._datasets: List[str] = []
        # The frame index, then the value columns.
        self._columns: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype)
            for name, dtype in {"index": _DTYPES["int"], **COLUMN_DTYPES}.items()
        }
        for record in records or ():
            self.append(record)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        datasets: Sequence[str],
        start_index: int = 0,
    ) -> "Trace":
        """Adopt 1-D value columns (one per :data:`COLUMN_DTYPES` name, one
        entry per dataset name) as frames ``start_index, start_index + 1, ...``.
        """
        shape = (len(datasets),)
        trace = cls.__new__(cls)
        trace._size = shape[0]
        trace._datasets = list(datasets)
        trace._columns = {
            "index": np.arange(start_index, start_index + shape[0], dtype=_DTYPES["int"]),
            **{name: checked_column(name, columns[name], shape) for name in COLUMN_DTYPES},
        }
        return trace

    def __getstate__(self) -> dict:
        # Pickle the filled rows only, so equal traces pickle to equal bytes.
        return self._take(np.arange(self._size)).__dict__

    # -- container protocol -------------------------------------------------------

    def append(self, record: FrameRecord) -> None:
        """Append a record to the trace."""
        size = self._size
        if size == len(self._columns["index"]):
            self._columns = {
                name: _grown(column, size) for name, column in self._columns.items()
            }
        for name, column in self._columns.items():
            column[size] = getattr(record, name)
        self._datasets.append(record.dataset)
        self._size = size + 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FrameRecord]:
        return map(self.__getitem__, range(self._size))

    def __getitem__(self, i: int) -> FrameRecord:
        """Frame ``i`` with Python ``int``/``float``/``bool`` values, as JSON
        rows require."""
        i = range(self._size)[i]
        index, *values = [column.item(i) for column in self._columns.values()]
        return FrameRecord(index, self._datasets[i], *values)

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        """All records as an immutable tuple."""
        return tuple(self)

    # -- slicing helpers -------------------------------------------------------------

    def _take(self, rows: np.ndarray) -> "Trace":
        """The frames at positions ``rows`` as a new trace."""
        trace = Trace.__new__(Trace)
        trace._size = len(rows)
        trace._datasets = [self._datasets[i] for i in rows]
        trace._columns = {name: column[rows] for name, column in self._columns.items()}
        return trace

    def tail(self, count: int) -> "Trace":
        """The last ``count`` records as a new trace."""
        if count < 0:
            raise ExperimentError("count must be non-negative")
        return self._take(np.arange(max(self._size - count, 0), self._size))

    def skip(self, count: int) -> "Trace":
        """Drop the first ``count`` records (e.g. a warm-up / learning prefix)."""
        if count < 0:
            raise ExperimentError("count must be non-negative")
        return self._take(np.arange(min(count, self._size), self._size))

    def for_dataset(self, dataset: str) -> "Trace":
        """Records belonging to one dataset (useful after domain switches)."""
        rows = [i for i, name in enumerate(self._datasets) if name == dataset]
        return self._take(np.array(rows, dtype=np.intp))

    # -- array accessors ---------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One value column (or ``"index"``) of every frame, as a fresh array."""
        return self._columns[name][: self._size].copy()

    def datasets(self) -> List[str]:
        """Dataset name of every frame."""
        return list(self._datasets)

    def latencies_ms(self) -> np.ndarray:
        """Total latency of every frame as a NumPy array."""
        return self.column("total_latency_ms")

    def stage1_latencies_ms(self) -> np.ndarray:
        """Stage-1 latency of every frame."""
        return self.column("stage1_latency_ms")

    def stage2_latencies_ms(self) -> np.ndarray:
        """Stage-2 latency of every frame."""
        return self.column("stage2_latency_ms")

    def proposals(self) -> np.ndarray:
        """Proposal count of every frame."""
        return self.column("num_proposals")

    def mean_temperatures_c(self) -> np.ndarray:
        """Mean (CPU, GPU) temperature of every frame."""
        return 0.5 * (self.cpu_temperatures_c() + self.gpu_temperatures_c())

    def cpu_temperatures_c(self) -> np.ndarray:
        """CPU temperature of every frame."""
        return self.column("cpu_temperature_c")

    def gpu_temperatures_c(self) -> np.ndarray:
        """GPU temperature of every frame."""
        return self.column("gpu_temperature_c")

    def constraint_met(self) -> np.ndarray:
        """Boolean array of constraint satisfaction per frame."""
        return self.column("met_constraint")

    def throttled(self) -> np.ndarray:
        """Boolean array: whether either processor throttled per frame."""
        return self.column("cpu_throttled") | self.column("gpu_throttled")

    def energies_j(self) -> np.ndarray:
        """Per-frame energy consumption."""
        return self.column("energy_j")


def session_slice(trace, i: int) -> Trace:
    """Session ``i`` of a column-window fleet trace as a scalar :class:`Trace`.

    Each column is gathered chunk by chunk into a contiguous copy, so a
    mapped store is read in bounded memory and NumPy's pairwise reductions
    see the same layout as in a trace built frame by frame.
    """
    if not 0 <= i < trace.num_sessions:
        raise ExperimentError(f"session {i} out of range [0, {trace.num_sessions - 1}]")
    num_frames = len(trace)
    columns: Dict[str, np.ndarray] = {}
    for name, dtype in COLUMN_DTYPES.items():
        column = np.empty(num_frames, dtype=dtype)
        for offset, block in trace.iter_column_chunks(name):
            column[offset : offset + len(block)] = block[:, i]
        columns[name] = column
    datasets = [row[i] for row in trace.datasets_window()]
    return Trace.from_columns(columns, datasets, trace.start_index)

"""Process-local event bus: spans, counters, gauges, exact histograms.

The design constraint that shapes everything here is *zero overhead when
off*.  Observability defaults to disabled (``REPRO_OBS=0``, mirroring the
``REPRO_FUSED`` kill switch); every instrumentation point in the library
goes through the module-level helpers below, whose first action is a
single ``_REGISTRY is None`` check.  When no registry is
active the helpers return immediately — no dict lookups, no string
formatting, no allocation beyond the call frame — and :func:`span` hands
back one shared no-op context manager.  Instrumentation never reads or
writes RNG state and never branches on simulated values, so traces are
byte-identical with observation on or off (enforced by
``tests/test_obs.py``).

When a registry *is* active it records three metric families plus a raw
event log:

* **counters** — monotonically increasing floats (``inc``),
* **gauges** — last-value-wins floats (``gauge``),
* **histograms** — value streams with *exact* statistics (``observe``):
  running moments via :class:`~repro.analysis.streaming.StreamingMoments`
  plus packed float64 chunks that fold through
  :class:`~repro.analysis.streaming.StreamingPercentile` at snapshot time,
  so p50/p99 come out exactly (not sketched) and in bounded memory.

Spans (:func:`span`) are context managers that emit paired start/end
events carrying monotonically-assigned span ids and the parent span id
from the registry's span stack, and record their duration into the
``span.<name>`` histogram.

Registries are picklable via :meth:`ObsRegistry.snapshot`; worker
processes ship their snapshot back with each task's result over the
worker's pipe and the parent folds it in with :meth:`ObsRegistry.merge` —
counters add, gauges overwrite, histogram chunks and moments concatenate,
events append tagged with their origin.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ObsError

#: Environment kill switch: observability is OFF unless ``REPRO_OBS=1``.
OBS_ENV = "REPRO_OBS"

#: Snapshot wire-format tag, checked on merge.
SNAPSHOT_SCHEMA = "repro-obs/v1"

#: Histogram buffer flush threshold (values per packed chunk).
_CHUNK = 512

#: Canonical metric key: (name, sorted label pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def obs_enabled() -> bool:
    """Whether the ``REPRO_OBS`` environment switch asks for observation."""
    return os.environ.get(OBS_ENV, "0") == "1"


def _metric_key(name: str, labels: Dict[str, Any]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Histogram:
    """Exact-statistics value stream in bounded memory.

    Values accumulate into running :class:`StreamingMoments` immediately
    and into a small scalar buffer that is packed into float64 chunks of
    ``_CHUNK`` values.  Exact percentiles need the chunk list (percentile
    selection cannot be pre-aggregated without declaring the quantile and
    total count up front), but packing keeps it to one contiguous array
    per 512 observations; :meth:`percentile` folds the chunks through
    :class:`StreamingPercentile` on demand.
    """

    __slots__ = ("moments", "chunks", "_buffer")

    def __init__(self) -> None:
        from repro.analysis.streaming import StreamingMoments

        self.moments = StreamingMoments()
        self.chunks: List[np.ndarray] = []
        self._buffer: List[float] = []

    def observe(self, value: float) -> None:
        v = float(value)
        self.moments.push_value(v)
        self._buffer.append(v)
        if len(self._buffer) >= _CHUNK:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self.chunks.append(np.array(self._buffer, dtype=np.float64))
            self._buffer = []

    def percentile(self, q: float) -> float:
        """The exact q-th percentile of every observed value."""
        from repro.analysis.streaming import StreamingPercentile

        self._flush()
        if self.moments.count == 0:
            raise ObsError("percentile of an empty histogram")
        tracker = StreamingPercentile(self.moments.count, q)
        for chunk in self.chunks:
            tracker.push(chunk)
        return tracker.result()

    def to_state(self) -> Dict[str, Any]:
        self._flush()
        return {"chunks": list(self.chunks)}

    def merge_state(self, state: Dict[str, Any]) -> None:
        for chunk in state["chunks"]:
            block = np.asarray(chunk, dtype=np.float64)
            if block.size:
                self.moments.push(block)
                self.chunks.append(block)


class ObsRegistry:
    """One run's metrics, spans and events, all process-local.

    Nothing here is thread-safe or cross-process by itself; worker
    processes run their own registry and ship :meth:`snapshot` back to the
    parent, which :meth:`merge`\\ s it.
    """

    def __init__(self) -> None:
        self.counters: Dict[MetricKey, float] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}
        self.events: List[Dict[str, Any]] = []
        self._next_span_id = 1
        self._span_stack: List[int] = []

    # -- metrics -------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _metric_key(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauges[_metric_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _metric_key(name, labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram()
        histogram.observe(value)

    # -- events and spans ----------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        self.events.append(
            {
                "type": "event",
                "name": name,
                "time": time.time(),
                "span": self._span_stack[-1] if self._span_stack else 0,
                "fields": {str(k): v for k, v in fields.items()},
            }
        )

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self._span_stack[-1] if self._span_stack else 0
        self._span_stack.append(span_id)
        started = time.perf_counter()
        self.events.append(
            {
                "type": "span",
                "phase": "start",
                "name": name,
                "time": time.time(),
                "span": span_id,
                "parent": parent,
                "fields": {str(k): v for k, v in labels.items()},
            }
        )
        try:
            yield
        finally:
            duration_ms = (time.perf_counter() - started) * 1000.0
            self._span_stack.pop()
            self.events.append(
                {
                    "type": "span",
                    "phase": "end",
                    "name": name,
                    "time": time.time(),
                    "span": span_id,
                    "parent": parent,
                    "duration_ms": duration_ms,
                }
            )
            self.observe(f"span.{name}", duration_ms)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A picklable image of everything recorded so far.

        This is what a pool worker sends back over the result pipe; the
        parent folds it in with :meth:`merge`.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: histogram.to_state()
                for key, histogram in self.histograms.items()
            },
            "events": list(self.events),
        }

    def merge(self, state: Dict[str, Any], origin: Optional[str] = None) -> None:
        """Fold a worker snapshot into this registry.

        Counters sum, gauges overwrite (last writer wins), histograms
        concatenate their packed chunks (keeping percentiles exact), and
        events append with ``origin`` recorded on each.
        """
        schema = state.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ObsError(f"unknown obs snapshot schema {schema!r}")
        for key, value in state["counters"].items():
            self.counters[key] = self.counters.get(key, 0.0) + float(value)
        for key, value in state["gauges"].items():
            self.gauges[key] = float(value)
        for key, histogram_state in state["histograms"].items():
            histogram = self.histograms.get(key)
            if histogram is None:
                histogram = self.histograms[key] = Histogram()
            histogram.merge_state(histogram_state)
        for entry in state["events"]:
            merged = dict(entry)
            if origin is not None:
                merged["origin"] = origin
            self.events.append(merged)


# -- module-level fast path ----------------------------------------------------

#: The active registry, or None when observation is off (the common case).
_REGISTRY: Optional[ObsRegistry] = None


class _NullSpan:
    """Shared no-op context manager returned by :func:`span` when off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def enable(fresh: bool = True) -> ObsRegistry:
    """Activate observation; with ``fresh`` (default) start a new registry."""
    global _REGISTRY
    if fresh or _REGISTRY is None:
        _REGISTRY = ObsRegistry()
    return _REGISTRY


def disable() -> None:
    """Deactivate observation; helpers become no-ops again."""
    global _REGISTRY
    _REGISTRY = None


def active() -> bool:
    """Whether a registry is currently collecting."""
    return _REGISTRY is not None


def registry() -> ObsRegistry:
    """The active registry; raises :class:`ObsError` when observation is off."""
    if _REGISTRY is None:
        raise ObsError("observability is not active (set REPRO_OBS=1 or call enable())")
    return _REGISTRY


def inc(name: str, value: float = 1.0, **labels: Any) -> None:
    if _REGISTRY is None:
        return
    _REGISTRY.inc(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    if _REGISTRY is None:
        return
    _REGISTRY.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    if _REGISTRY is None:
        return
    _REGISTRY.observe(name, value, **labels)


def event(name: str, **fields: Any) -> None:
    if _REGISTRY is None:
        return
    _REGISTRY.event(name, **fields)


def span(name: str, **labels: Any):
    """A tracing span context manager (shared no-op when observation is off)."""
    if _REGISTRY is None:
        return _NULL_SPAN
    return _REGISTRY.span(name, **labels)


def kernel_call(name: str) -> None:
    """Count one fused-kernel invocation (hot path: one None check when off)."""
    if _REGISTRY is None:
        return
    key = ("fused.kernel_calls", (("kernel", name),))
    counters = _REGISTRY.counters
    counters[key] = counters.get(key, 0.0) + 1.0


def record_report(prefix: str, report: Any) -> None:
    """Register a dataclass report's numeric fields as ``<prefix>.<field>`` gauges.

    Non-numeric fields are skipped except tuples/lists/sets, which record
    their length — enough to surface :class:`PoolRunReport`,
    :class:`RecoveryReport` and :class:`OverheadReport` uniformly in
    ``obs report`` without any per-report glue.
    """
    if _REGISTRY is None:
        return
    fields = getattr(report, "__dataclass_fields__", None)
    if fields is None:
        raise ObsError(f"record_report expects a dataclass, got {type(report).__name__}")
    for field_name in fields:
        value = getattr(report, field_name)
        if isinstance(value, bool) or isinstance(value, (int, float)):
            _REGISTRY.gauge(f"{prefix}.{field_name}", float(value))
        elif isinstance(value, (tuple, list, set, frozenset)):
            _REGISTRY.gauge(f"{prefix}.{field_name}", float(len(value)))

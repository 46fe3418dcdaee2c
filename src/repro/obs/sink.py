"""Sinks: persist a run's registry as JSONL events plus a JSON summary.

A run directory lives under ``default_obs_dir()`` (next to the result
cache, or wherever ``REPRO_OBS_DIR`` points) and contains exactly two
files:

* ``events.jsonl`` — every event and span boundary, one JSON object per
  line, in emission order (worker-merged events carry an ``origin``).
* ``summary.json`` — the aggregate snapshot: counters, gauges, and for
  every histogram its count/mean/std/min/max plus *exact* p50/p90/p99.

``summary.json`` is what ``python -m repro obs report`` renders; the
JSONL stream is for ad-hoc ``jq``/pandas digging and the CI smoke job.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs.bus import MetricKey, ObsRegistry

#: Override the obs run directory (defaults to ``<cache dir>/obs``).
OBS_DIR_ENV = "REPRO_OBS_DIR"

_SUMMARY_NAME = "summary.json"
_EVENTS_NAME = "events.jsonl"


def default_obs_dir() -> Path:
    """Where obs runs are written: ``$REPRO_OBS_DIR`` or ``<cache>/obs``."""
    override = os.environ.get(OBS_DIR_ENV)
    if override:
        return Path(override).expanduser()
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "obs"


def format_metric(key: MetricKey) -> str:
    """Render a metric key as ``name`` or ``name{k=v,...}``."""
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


def _fused_status() -> Dict[str, str] | str:
    # Lazy and failure-tolerant: the sink must not force a kernel build
    # (or an import of the kernel package) just to stamp the summary.
    try:
        from repro.kernels import kernel_status

        return kernel_status()
    except Exception:  # pragma: no cover - defensive
        return "unknown"


def summarize_registry(registry: ObsRegistry) -> Dict[str, Any]:
    """The aggregate summary dict written to ``summary.json``."""
    histograms: Dict[str, Any] = {}
    for key, histogram in sorted(registry.histograms.items()):
        moments = histogram.moments
        if moments.count == 0:
            continue
        histograms[format_metric(key)] = {
            "count": moments.count,
            "mean": moments.mean,
            "std": moments.std,
            "min": moments.minimum,
            "max": moments.maximum,
            "p50": histogram.percentile(50.0),
            "p90": histogram.percentile(90.0),
            "p99": histogram.percentile(99.0),
        }
    return {
        "schema": "repro-obs-summary/v1",
        "counters": {
            format_metric(key): value
            for key, value in sorted(registry.counters.items())
        },
        "gauges": {
            format_metric(key): value
            for key, value in sorted(registry.gauges.items())
        },
        "histograms": histograms,
        "num_events": len(registry.events),
        "fused_status": _fused_status(),
    }


def write_run(
    registry: ObsRegistry,
    obs_dir: Optional[Path] = None,
    run_id: Optional[str] = None,
    label: Optional[str] = None,
) -> Tuple[Path, Dict[str, Any]]:
    """Persist one run; returns ``(run_dir, summary)``.

    ``run_id`` defaults to a wall-clock + pid stamp, unique enough for
    one machine's runs to sort chronologically in ``obs list``.
    """
    base = Path(obs_dir) if obs_dir is not None else default_obs_dir()
    if run_id is None:
        run_id = f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    run_dir = base / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    with (run_dir / _EVENTS_NAME).open("w", encoding="utf-8") as handle:
        for entry in registry.events:
            handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
    summary = summarize_registry(registry)
    summary["run_id"] = run_id
    if label is not None:
        summary["label"] = label
    (run_dir / _SUMMARY_NAME).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return run_dir, summary


def list_runs(obs_dir: Optional[Path] = None) -> List[str]:
    """Run ids under the obs directory, oldest first."""
    base = Path(obs_dir) if obs_dir is not None else default_obs_dir()
    if not base.is_dir():
        return []
    return sorted(
        entry.name
        for entry in base.iterdir()
        if entry.is_dir() and (entry / _SUMMARY_NAME).is_file()
    )


def latest_run(obs_dir: Optional[Path] = None) -> str:
    """The most recent run id; raises :class:`ObsError` when none exist."""
    runs = list_runs(obs_dir)
    if not runs:
        base = Path(obs_dir) if obs_dir is not None else default_obs_dir()
        raise ObsError(f"no obs runs recorded under {base}")
    return runs[-1]


def load_summary(run_id: str, obs_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Load one run's ``summary.json``."""
    base = Path(obs_dir) if obs_dir is not None else default_obs_dir()
    path = base / run_id / _SUMMARY_NAME
    if not path.is_file():
        raise ObsError(f"no obs summary at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def iter_events(run_id: str, obs_dir: Optional[Path] = None) -> Iterator[Dict[str, Any]]:
    """Stream one run's events, one parsed JSON object per line."""
    base = Path(obs_dir) if obs_dir is not None else default_obs_dir()
    path = base / run_id / _EVENTS_NAME
    if not path.is_file():
        raise ObsError(f"no obs event log at {path}")
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)

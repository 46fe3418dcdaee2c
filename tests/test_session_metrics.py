"""The batched session-metrics reducer and lazily built session traces.

Every fleet entry point derives all N sessions' :class:`EpisodeMetrics` in
one pass over the ``(frames, N)`` columns
(:func:`repro.env.metrics.summarize_sessions`), and a packaged
:class:`SessionResult` builds its :class:`Trace` only when read.  These
tests pin both: the batched reducer against the 1-D reductions of each
session's own trace, bit for bit, and the lazy result against the eager one
built from ``session_trace(i)``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting
from repro.core.training import session_result_from_trace
from repro.env.fleet import FleetTrace
from repro.env.metrics import EpisodeMetrics, summarize_sessions, summarize_trace
from repro.env.trace import COLUMN_DTYPES, Trace
from repro.errors import ExperimentError
from repro.policies.store import PolicyStore
from repro.policies.train import train_policy
from repro.runtime.fleet import run_fleet, run_fleet_scenario
from repro.runtime.shards import run_supervised_scenario
from repro.scenarios import build_scenario


def _reference_metrics(trace: Trace) -> EpisodeMetrics:
    """The per-session summary as 1-D NumPy reductions of one trace."""
    latencies = trace.latencies_ms()
    stage2 = trace.stage2_latencies_ms()
    mean_temps = trace.mean_temperatures_c()
    return EpisodeMetrics(
        num_frames=len(trace),
        mean_latency_ms=float(np.mean(latencies)),
        latency_std_ms=float(np.std(latencies)),
        min_latency_ms=float(np.min(latencies)),
        max_latency_ms=float(np.max(latencies)),
        p95_latency_ms=float(np.percentile(latencies, 95)),
        satisfaction_rate=float(np.mean(trace.constraint_met())),
        mean_stage1_latency_ms=float(np.mean(trace.stage1_latencies_ms())),
        mean_stage2_latency_ms=float(np.mean(stage2)),
        stage2_latency_std_ms=float(np.std(stage2)),
        mean_temperature_c=float(np.mean(mean_temps)),
        max_temperature_c=float(np.max(mean_temps)),
        max_cpu_temperature_c=float(np.max(trace.cpu_temperatures_c())),
        max_gpu_temperature_c=float(np.max(trace.gpu_temperatures_c())),
        throttled_fraction=float(np.mean(trace.throttled())),
        total_energy_j=float(np.sum(trace.energies_j())),
        mean_proposals=float(np.mean(trace.proposals())),
    )


def _bits(metrics: EpisodeMetrics) -> list:
    """Every field as int64 bits, so NaN payloads and ``-0.0`` count."""
    values = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _random_fleet_trace(frames: int, sessions: int, seed: int) -> FleetTrace:
    """A fleet trace of random metric columns (zeros in the others)."""
    rng = np.random.default_rng(seed)
    shape = (frames, sessions)
    columns = {name: np.zeros(shape, dtype=dtype) for name, dtype in COLUMN_DTYPES.items()}
    for name in ("total_latency_ms", "stage1_latency_ms", "stage2_latency_ms"):
        columns[name] = rng.lognormal(5.0, 1.0, shape)
    for name in ("cpu_temperature_c", "gpu_temperature_c"):
        columns[name] = rng.normal(60.0, 12.0, shape)
    for name in ("met_constraint", "cpu_throttled", "gpu_throttled"):
        columns[name] = rng.random(shape) < 0.3
    columns["energy_j"] = rng.exponential(2.0, shape)
    columns["num_proposals"] = rng.integers(0, 1000, shape)
    return FleetTrace.from_columns(columns, [("kitti",) * sessions] * frames, start_index=3)


def _assert_matches_session_traces(trace: FleetTrace, sessions) -> None:
    whole, steady = summarize_sessions(trace)
    assert len(whole) == len(steady) == trace.num_sessions
    frames = len(trace)
    for i in sessions:
        session = trace.session_trace(i)
        steady_trace = session.skip(frames // 2) if frames >= 4 else session
        assert _bits(whole[i]) == _bits(_reference_metrics(session))
        assert _bits(steady[i]) == _bits(_reference_metrics(steady_trace))
        assert steady[i].num_frames == len(steady_trace)


@pytest.mark.parametrize("sessions", [1, 7, 128])
@pytest.mark.parametrize("frames", [1, 3, 4, 5, 120, 8193, 17000])
def test_batched_reducer_matches_per_session_reductions(frames, sessions):
    trace = _random_fleet_trace(frames, sessions, seed=frames * 1000 + sessions)
    # Long traces compare a spread of sessions (first and last included).
    checked = range(sessions) if frames <= 120 else sorted(
        {*range(0, sessions, max(1, sessions // 8)), sessions - 1}
    )
    _assert_matches_session_traces(trace, checked)


@pytest.mark.parametrize("frames", [1, 5, 120, 8193])
def test_batched_reducer_matches_with_special_values(frames):
    trace = _random_fleet_trace(frames, 7, seed=frames)
    latency = trace.column_window("total_latency_ms")
    energy = trace.column_window("energy_j")
    last = frames - 1
    latency[last, 1] = np.nan
    latency[0, 2] = np.inf
    latency[last, 3] = -np.inf
    latency[:, 4] = np.where(np.arange(frames) % 2 == 0, -0.0, 0.0)
    energy[0, 5] = np.nan
    energy[last, 2] = np.inf
    energy[0, 3] = -np.inf
    energy[:, 6] = -0.0
    for name in ("met_constraint", "cpu_throttled", "gpu_throttled"):
        trace.column_window(name)[:, 6] = False
    with np.errstate(invalid="ignore"):  # inf - inf in std and percentile
        _assert_matches_session_traces(trace, range(7))
        whole, _ = summarize_sessions(trace)
    assert np.isnan(whole[1].mean_latency_ms) and np.isnan(whole[5].total_energy_j)
    assert whole[6].satisfaction_rate == whole[6].throttled_fraction == 0.0


def test_summarize_trace_is_the_one_session_reduction():
    trace = _random_fleet_trace(37, 3, seed=5).session_trace(2)
    assert _bits(summarize_trace(trace)) == _bits(_reference_metrics(trace))
    (whole,), (steady,) = summarize_sessions(trace)
    assert _bits(whole) == _bits(summarize_trace(trace))
    assert _bits(steady) == _bits(summarize_trace(trace.skip(18)))


def test_empty_traces_raise():
    empty = FleetTrace.from_columns(
        {name: np.empty((0, 4), dtype=dtype) for name, dtype in COLUMN_DTYPES.items()}, []
    )
    with pytest.raises(ExperimentError):
        summarize_sessions(empty)
    with pytest.raises(ExperimentError):
        summarize_sessions(Trace())
    with pytest.raises(ExperimentError):
        summarize_trace(Trace())


# ---------------------------------------------------------------------------
# Lazy session traces
# ---------------------------------------------------------------------------


def test_lazy_results_pickle_to_the_eager_bytes():
    result = run_fleet(ExperimentSetting(num_frames=24, seed=0), "default", 128)
    for i, lazy in enumerate(result.sessions):
        eager = session_result_from_trace(
            lazy.policy_name,
            result.fleet_trace.session_trace(i),
            losses=lazy.losses,
            rewards=lazy.rewards,
        )
        payload = pickle.dumps(lazy)
        assert payload == pickle.dumps(eager)
        assert b"FleetTrace" not in payload
    loaded = pickle.loads(payload)
    assert isinstance(loaded._trace, Trace)
    assert _bits(loaded.metrics) == _bits(eager.metrics)


def test_deep_copying_a_lazy_result_copies_only_its_session():
    result = run_fleet(ExperimentSetting(num_frames=24, seed=0), "default", 4)
    lazy = result.sessions[2]
    clone = copy.deepcopy(lazy)
    assert isinstance(clone._trace, Trace)
    assert pickle.dumps(clone) == pickle.dumps(lazy)
    assert np.array_equal(
        clone.trace.latencies_ms(), result.fleet_trace.latencies_ms()[:, 2]
    )


@pytest.fixture
def session_trace_calls(monkeypatch):
    calls = []
    original = FleetTrace.session_trace

    def counted(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(FleetTrace, "session_trace", counted)
    return calls


def test_reading_metrics_builds_no_session_trace(session_trace_calls):
    scenario = build_scenario("cctv-burst")
    runs = [
        run_fleet_scenario(scenario, num_sessions=6, num_frames=16),
        run_supervised_scenario(scenario, 2, num_sessions=6, num_frames=16),
    ]
    for result in runs:
        for session in result.sessions:
            assert session.metrics.num_frames == 16
            assert session.steady_metrics.num_frames == 8
    assert session_trace_calls == []
    session = runs[1].sessions[3]
    assert session.trace is session.trace
    assert session_trace_calls == [3]
    assert np.array_equal(
        session.trace.latencies_ms(), runs[0].sessions[3].trace.latencies_ms()
    )


#: SHA-256 over the int64 bits of ``metrics`` then ``steady_metrics`` of a
#: lotus-fleet training run of ``jetson-kitti-baseline`` (4 sessions x 24
#: frames), as it was when every session was packaged.
PINNED_FLEET_TRAINING_METRICS = "b6f8bbf30a4a0b12ce2fb0a71083383069ea9ebf6ad06f2eb417982e209decda"


def test_fleet_training_packages_session_zero_only(session_trace_calls, tmp_path):
    spec = build_scenario("jetson-kitti-baseline").with_overrides(
        method="lotus-fleet", num_sessions=4, num_frames=24
    )
    _, result = train_policy(spec, store=PolicyStore(tmp_path))
    assert session_trace_calls == [0]
    bits = np.array(_bits(result.metrics) + _bits(result.steady_metrics), dtype=np.int64)
    assert hashlib.sha256(bits.tobytes()).hexdigest() == PINNED_FLEET_TRAINING_METRICS

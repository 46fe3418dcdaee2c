"""The columnar trace store: round-trips, rejection, merge byte-identity.

Four contracts, in the order a store lives through them:

* **Round-trip** — a trace written through :class:`FleetTraceWriter` and
  read back via :class:`MappedFleetTrace` is byte-identical to the
  in-memory :class:`~repro.env.fleet.FleetTrace`, across randomized
  shapes and chunk geometries, including NaN payloads and ``-0.0``.
* **Rejection** — truncated, tampered or version-mismatched artifacts
  raise a typed :class:`~repro.errors.StoreError` (a
  :class:`~repro.errors.ReproError`), never a silent wrong read; writer
  misuse (non-contiguous indices, wrong fleet width, empty close) is
  rejected the same way.
* **Merge identity** — a sharded run whose workers spool stores to disk
  re-interleaves through the memory-mapped merge path into a trace
  byte-identical to the unsharded run.
* **Streaming report** — :func:`~repro.analysis.streaming.summarize_fleet`
  run off a memory-mapped store agrees with a dense NumPy summary of the
  in-memory trace, and :func:`~repro.analysis.tables.fleet_summary_table`
  renders it.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.env.fleet import FleetFrameResult, FleetTrace, _FRAME_RESULT_ARRAY_FIELDS
from repro.env.trace import COLUMN_DTYPES, Trace
from repro.errors import ReproError, StoreError
from repro.store import (
    DATASET_CODE_COLUMN,
    DEFAULT_CHUNK_FRAMES,
    MANIFEST_NAME,
    FleetTraceWriter,
    MappedFleetTrace,
    fleet_traces_bitwise_equal,
    read_scalar_trace,
    write_fleet_trace,
    write_scalar_trace,
)


def make_trace(
    num_sessions: int,
    num_frames: int,
    seed: int = 0,
    start_index: int = 0,
    special_floats: bool = False,
) -> FleetTrace:
    """A deterministic random trace; optionally salted with NaN and -0.0."""
    rng = np.random.default_rng(seed)
    datasets = tuple(
        ("kitti", "visdrone2019")[int(rng.integers(0, 2))]
        for _ in range(num_sessions)
    )
    trace = FleetTrace(num_sessions)
    for frame in range(num_frames):
        shape = (num_sessions,)
        floats = {
            name: rng.random(shape) * 100.0
            for name in (
                "stage1_latency_ms",
                "stage2_latency_ms",
                "total_latency_ms",
                "latency_constraint_ms",
                "cpu_temperature_c",
                "gpu_temperature_c",
                "ambient_temperature_c",
                "energy_j",
            )
        }
        if special_floats:
            # Salt every float column with the representations plain "=="
            # comparison would miss: NaN (with a payload), -0.0 and +0.0.
            for values in floats.values():
                values[rng.integers(0, num_sessions)] = np.nan
                values[rng.integers(0, num_sessions)] = -0.0
                values[rng.integers(0, num_sessions)] = 0.0
        trace.append(
            FleetFrameResult(
                index=start_index + frame,
                datasets=datasets,
                num_proposals=rng.integers(1, 300, shape, dtype=np.int64),
                met_constraint=rng.random(shape) < 0.9,
                cpu_level_stage1=rng.integers(0, 8, shape, dtype=np.int64),
                gpu_level_stage1=rng.integers(0, 8, shape, dtype=np.int64),
                cpu_level_stage2=rng.integers(0, 8, shape, dtype=np.int64),
                gpu_level_stage2=rng.integers(0, 8, shape, dtype=np.int64),
                cpu_throttled=rng.random(shape) < 0.05,
                gpu_throttled=rng.random(shape) < 0.05,
                **floats,
            )
        )
    return trace


class TestRoundTrip:
    @pytest.mark.parametrize(
        "num_sessions,num_frames,chunk_frames",
        [
            (1, 1, DEFAULT_CHUNK_FRAMES),
            (1, 7, 3),
            (5, 12, 4),  # exact multiple of the chunk size
            (5, 13, 4),  # ragged final chunk
            (17, 2, 1),  # one frame per chunk
            (3, 40, 64),  # single chunk bigger than the trace
        ],
    )
    def test_randomized_shapes_round_trip_bitwise(
        self, tmp_path, num_sessions, num_frames, chunk_frames
    ):
        trace = make_trace(
            num_sessions, num_frames, seed=num_sessions * 100 + num_frames,
            special_floats=True,
        )
        path = write_fleet_trace(trace, tmp_path / "store", chunk_frames=chunk_frames)
        mapped = MappedFleetTrace(path, verify=True)
        assert fleet_traces_bitwise_equal(trace, mapped)
        assert fleet_traces_bitwise_equal(mapped, trace)
        assert len(mapped) == num_frames
        assert mapped.num_sessions == num_sessions

    def test_frames_and_windows_match_the_source(self, tmp_path):
        trace = make_trace(4, 11, seed=3, special_floats=True)
        mapped = MappedFleetTrace(write_fleet_trace(trace, tmp_path / "s", chunk_frames=4))
        for source, roundtripped in zip(trace, mapped):
            assert source.index == roundtripped.index
            assert source.datasets == roundtripped.datasets
            for field in _FRAME_RESULT_ARRAY_FIELDS:
                a, b = getattr(source, field), getattr(roundtripped, field)
                assert a.dtype == b.dtype
                if a.dtype.kind == "f":
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))
                else:
                    assert np.array_equal(a, b)
        window = mapped.column_window("total_latency_ms", 2, 9)
        dense = trace.column_window("total_latency_ms", 2, 9)
        assert np.array_equal(window.view(np.int64), dense.view(np.int64))
        assert mapped.datasets_window(1, 5) == trace.datasets_window(1, 5)
        assert mapped[-1].index == trace[len(trace) - 1].index

    def test_nonzero_start_index_is_preserved(self, tmp_path):
        trace = make_trace(3, 5, seed=9, start_index=40)
        mapped = MappedFleetTrace(write_fleet_trace(trace, tmp_path / "s"))
        assert mapped.start_index == 40
        assert [frame.index for frame in mapped] == [40, 41, 42, 43, 44]
        assert fleet_traces_bitwise_equal(trace, mapped)

    @pytest.mark.parametrize("kind", ["FleetTrace", "MappedFleetTrace"])
    def test_session_trace_matches_in_memory_rebuild(self, tmp_path, kind):
        trace = make_trace(6, 9, seed=5, special_floats=True, start_index=3)
        if kind == "MappedFleetTrace":
            trace = MappedFleetTrace(
                write_fleet_trace(trace, tmp_path / "s", chunk_frames=2)
            )
        for session in range(6):
            scalar = trace.session_trace(session)
            assert isinstance(scalar, Trace)
            assert len(scalar) == len(trace)
            # Every column is a contiguous, bit-equal copy of the session's
            # slice of the fleet column.
            for name in _FRAME_RESULT_ARRAY_FIELDS:
                column = scalar.column(name)
                window = trace.column_window(name)[:, session]
                assert column.dtype == window.dtype
                assert column.flags.c_contiguous
                assert column.tobytes() == np.ascontiguousarray(window).tobytes()
            assert scalar.datasets() == [
                row[session] for row in trace.datasets_window()
            ]
            assert list(scalar.column("index")) == list(range(3, 3 + len(trace)))
            # Row views carry Python scalars, which JSON rows require.
            for record in scalar:
                for field in dataclasses.fields(record):
                    value = getattr(record, field.name)
                    assert type(value) is {"int": int, "float": float, "bool": bool,
                                           "str": str}[field.type], field.name
            json.dumps([dataclasses.astuple(record) for record in scalar])

    def test_scalar_trace_round_trip(self, tmp_path):
        fleet = make_trace(1, 17, seed=21, special_floats=True)
        scalar = fleet.session_trace(0)
        write_scalar_trace(scalar, tmp_path / "scalar", chunk_frames=5)
        loaded = read_scalar_trace(tmp_path / "scalar")
        assert len(loaded) == len(scalar)
        for a, b in zip(scalar, loaded):
            for field in a.__dataclass_fields__:
                va, vb = getattr(a, field), getattr(b, field)
                if isinstance(va, float):
                    assert np.float64(va).view(np.int64) == np.float64(vb).view(np.int64)
                else:
                    assert va == vb

    def test_mapped_chunk_cache_is_bounded(self, tmp_path):
        trace = make_trace(2, 24, seed=8)
        mapped = MappedFleetTrace(
            write_fleet_trace(trace, tmp_path / "s", chunk_frames=2),
            map_cache_chunks=3,
        )
        for _ in mapped.iter_column_chunks("total_latency_ms"):
            assert len(mapped._maps) <= 3
        assert fleet_traces_bitwise_equal(trace, mapped)
        with pytest.raises(StoreError):
            MappedFleetTrace(tmp_path / "s", map_cache_chunks=0)

    def test_whole_chunk_reads_match_the_mapped_views(self, tmp_path):
        trace = make_trace(3, 10, seed=4, special_floats=True)
        mapped = MappedFleetTrace(write_fleet_trace(trace, tmp_path / "s", chunk_frames=4))
        offsets = []
        for offset, blocks in mapped.iter_chunks():
            offsets.append(offset)
            frames = len(blocks[DATASET_CODE_COLUMN])
            for name in _FRAME_RESULT_ARRAY_FIELDS:
                expected = mapped.column_window(name, offset, offset + frames)
                assert blocks[name].tobytes() == expected.tobytes(), name
            names = [
                tuple(mapped.dataset_table[code] for code in row)
                for row in blocks[DATASET_CODE_COLUMN].tolist()
            ]
            assert names == mapped.datasets_window(offset, offset + frames)
        assert offsets == [0, 4, 8]
        chunk = tmp_path / "s" / "chunk-000001.bin"
        chunk.write_bytes(chunk.read_bytes()[:-8])
        with pytest.raises(StoreError, match="changed size since open"):
            list(mapped.iter_chunks())

    def test_empty_trace_windows_report_the_schema_dtypes(self, tmp_path):
        full = make_trace(3, 4)
        mapped = MappedFleetTrace(write_fleet_trace(full, tmp_path / "s"))
        empty = FleetTrace(3)
        for name in _FRAME_RESULT_ARRAY_FIELDS:
            expected = full.column_window(name).dtype
            assert mapped.column_window(name).dtype == expected
            assert mapped.column_window(name, 2, 2).dtype == expected
            assert full.column_window(name, 2, 2).dtype == expected
            assert empty.column_window(name).dtype == expected, name
            assert empty.column_window(name).shape == (0, 3)


class TestRejection:
    def setup_store(self, tmp_path, **kwargs):
        trace = make_trace(3, 10, seed=1)
        path = write_fleet_trace(trace, tmp_path / "store", chunk_frames=4, **kwargs)
        return trace, path

    def test_store_error_is_a_repro_error(self):
        assert issubclass(StoreError, ReproError)

    def test_missing_manifest_is_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError, match="no manifest"):
            MappedFleetTrace(tmp_path / "empty")

    def test_corrupt_manifest_json_is_rejected(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="corrupt store manifest"):
            MappedFleetTrace(path)

    def test_format_and_version_mismatch_are_rejected(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        manifest = json.loads(path.read_text())
        for key, value, pattern in (
            ("format", "someone-elses/v9", "unknown store format"),
            ("version", 99, "not supported"),
        ):
            tampered = dict(manifest)
            tampered[key] = value
            path.write_text(json.dumps(tampered), encoding="utf-8")
            with pytest.raises(StoreError, match=pattern):
                MappedFleetTrace(path)

    def test_truncated_chunk_is_rejected_at_open(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        chunk = next(path.parent.glob("chunk-*.bin"))
        chunk.write_bytes(chunk.read_bytes()[:-8])
        with pytest.raises(StoreError, match="truncated"):
            MappedFleetTrace(path)

    def test_missing_chunk_is_rejected_at_open(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        next(path.parent.glob("chunk-*.bin")).unlink()
        with pytest.raises(StoreError):
            MappedFleetTrace(path)

    def test_tampered_chunk_fails_verification(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        chunk = sorted(path.parent.glob("chunk-*.bin"))[0]
        payload = bytearray(chunk.read_bytes())
        payload[10] ^= 0xFF  # same size, different bytes
        chunk.write_bytes(bytes(payload))
        MappedFleetTrace(path)  # size checks alone cannot see this
        with pytest.raises(StoreError, match="SHA-256"):
            MappedFleetTrace(path, verify=True)

    def test_schema_drift_in_manifest_columns_is_rejected(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["columns"] = manifest["columns"][:-1]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreError):
            MappedFleetTrace(path)

    def test_writer_rejects_non_contiguous_frame_indices(self, tmp_path):
        trace = make_trace(2, 3, seed=4)
        writer = FleetTraceWriter(tmp_path / "w", num_sessions=2)
        writer.append(trace[0])
        with pytest.raises(StoreError, match="contiguous"):
            writer.append(trace[2])

    def test_writer_rejects_wrong_fleet_width(self, tmp_path):
        narrow = make_trace(2, 1, seed=4)
        writer = FleetTraceWriter(tmp_path / "w", num_sessions=3)
        with pytest.raises(StoreError):
            writer.append(narrow[0])

    def test_writer_rejects_empty_close_and_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no frames"):
            FleetTraceWriter(tmp_path / "w", num_sessions=2).close()
        _, path = self.setup_store(tmp_path)
        with pytest.raises(StoreError, match="already"):
            FleetTraceWriter(path.parent, num_sessions=3)

    def test_aborted_writer_leaves_no_readable_store(self, tmp_path):
        trace = make_trace(2, 6, seed=6)
        try:
            with FleetTraceWriter(tmp_path / "w", num_sessions=2) as writer:
                writer.append(trace[0])
                raise RuntimeError("simulated crash mid-episode")
        except RuntimeError:
            pass
        # No manifest was written, so the partial spool is not a store.
        with pytest.raises(StoreError):
            MappedFleetTrace(tmp_path / "w")

    def test_writer_resumes_from_its_index_not_from_the_disk(self, tmp_path):
        """A writer rebuilt from an index taken at frame 8 ignores the chunk
        written after it (frames 8-11) and replaces that file on replay."""
        trace = make_trace(3, 14, seed=8)
        writer = FleetTraceWriter(tmp_path / "w", 3, chunk_frames=4)
        for frame in list(trace)[:10]:
            writer.append(frame)
            if writer.frames_written == 8:
                index = writer.index()
        with pytest.raises(StoreError, match="chunk boundary"):
            writer.index()
        for frame in list(trace)[10:12]:
            writer.append(frame)  # flushes chunk 2; then the writer dies
        resumed = FleetTraceWriter.resume(tmp_path / "w", 3, index, chunk_frames=4)
        for frame in list(trace)[8:]:
            resumed.append(frame)
        mapped = MappedFleetTrace(resumed.close(), verify=True)
        assert fleet_traces_bitwise_equal(mapped, trace)
        mapped.close()
        (tmp_path / "w" / MANIFEST_NAME).unlink()
        (tmp_path / "w" / "chunk-000001.bin").unlink()
        with pytest.raises(StoreError, match="chunk-000001.bin is missing"):
            FleetTraceWriter.resume(tmp_path / "w", 3, index, chunk_frames=4)

    def test_scalar_reader_rejects_fleet_stores(self, tmp_path):
        _, path = self.setup_store(tmp_path)
        with pytest.raises(StoreError, match="1-session"):
            read_scalar_trace(path)


class TestShardedMergeIdentity:
    def test_sharded_run_is_byte_identical_through_the_mmap_merge(self):
        from repro.runtime.fleet import run_fleet_scenario
        from repro.runtime.shards import run_sharded_scenario
        from repro.scenarios import build_scenario

        scenario = build_scenario("cctv-burst").with_overrides(num_frames=6)
        reference = run_fleet_scenario(scenario, num_sessions=6)
        sharded = run_sharded_scenario(scenario, num_sessions=6, num_shards=3)
        assert fleet_traces_bitwise_equal(
            reference.fleet_trace, sharded.fleet_trace
        )

    def test_interleave_accepts_manifest_paths(self, tmp_path):
        from repro.runtime.shards import ShardPlan, _ShardMerge

        full = make_trace(6, 8, seed=30, special_floats=True)
        shards = [ShardPlan(0, 0, 2), ShardPlan(1, 2, 6)]
        merge = _ShardMerge(shards, 6, len(full))
        for shard in shards:
            part = FleetTrace(shard.num_sessions)
            for frame in full:
                part.append(
                    FleetFrameResult(
                        index=frame.index,
                        datasets=frame.datasets[shard.start : shard.stop],
                        **{
                            field: getattr(frame, field)[shard.start : shard.stop]
                            for field in _FRAME_RESULT_ARRAY_FIELDS
                        },
                    )
                )
            manifest = str(write_fleet_trace(part, tmp_path / f"shard-{shard.index}"))
            count = shard.num_sessions
            merge.add(shard.index, (manifest, [[]] * count, [[]] * count, [""] * count, None))
        merged, _, _ = merge.finish()
        assert fleet_traces_bitwise_equal(merged, full)

    def test_store_is_smaller_than_or_close_to_pickle(self, tmp_path):
        """Column blocks carry no per-object overhead: sanity-check size."""
        trace = make_trace(64, 32, seed=12)
        store = write_fleet_trace(trace, tmp_path / "s").parent
        store_bytes = sum(p.stat().st_size for p in store.iterdir())
        pickled = pickle.dumps(list(trace), protocol=pickle.HIGHEST_PROTOCOL)
        assert store_bytes < len(pickled) * 1.05


def dense_fleet_summary(trace: FleetTrace) -> dict:
    """The report quantities from whole ``(frames, sessions)`` matrices."""
    dense = {
        name: np.stack([getattr(frame, name) for frame in trace])
        for name in (
            "total_latency_ms",
            "met_constraint",
            "cpu_temperature_c",
            "gpu_temperature_c",
            "cpu_throttled",
            "gpu_throttled",
            "energy_j",
            "num_proposals",
        )
    }
    latencies = dense["total_latency_ms"]
    return {
        "num_sessions": trace.num_sessions,
        "num_frames": len(trace),
        "total_frames": int(latencies.size),
        "mean_latency_ms": float(latencies.mean()),
        "p99_latency_ms": float(np.percentile(latencies, 99.0)),
        "min_latency_ms": float(latencies.min()),
        "max_latency_ms": float(latencies.max()),
        "constraint_met_fraction": float(dense["met_constraint"].mean()),
        "throttled_fraction": float(
            (dense["cpu_throttled"] | dense["gpu_throttled"]).mean()
        ),
        "mean_cpu_temperature_c": float(dense["cpu_temperature_c"].mean()),
        "mean_gpu_temperature_c": float(dense["gpu_temperature_c"].mean()),
        "max_temperature_c": float(
            max(dense["cpu_temperature_c"].max(), dense["gpu_temperature_c"].max())
        ),
        "total_energy_j": float(dense["energy_j"].sum(dtype=np.float64)),
        "mean_proposals": float(dense["num_proposals"].mean()),
    }


class TestStreamingFleetReport:
    SESSIONS = 32
    FRAMES = 24

    def run_default_fleet(self, sink=None):
        from repro.analysis.experiments import ExperimentSetting
        from repro.env.fleet import run_fleet_episode
        from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

        setting = ExperimentSetting(num_frames=self.FRAMES, seed=0)
        environment = make_fleet_environment(setting, self.SESSIONS)
        policy = make_fleet_policy("default", environment, self.FRAMES, seed=0)
        return run_fleet_episode(environment, policy, self.FRAMES, sink=sink)

    def test_mapped_summary_matches_the_dense_in_memory_summary(self, tmp_path):
        from repro.analysis.streaming import summarize_fleet
        from repro.analysis.tables import fleet_summary_table

        expected = dense_fleet_summary(self.run_default_fleet())
        writer = FleetTraceWriter(tmp_path / "fleet", self.SESSIONS, chunk_frames=4)
        self.run_default_fleet(sink=writer)
        writer.close()
        mapped = MappedFleetTrace(tmp_path / "fleet", map_cache_chunks=2)
        try:
            summary = summarize_fleet(mapped)
        finally:
            mapped.close()

        streamed = summary.to_dict()
        assert set(streamed) == set(expected)
        for name, value in expected.items():
            assert streamed[name] == pytest.approx(value, rel=1e-9, abs=0.0), name
        assert streamed["p99_latency_ms"] == expected["p99_latency_ms"]
        assert streamed["total_frames"] == self.SESSIONS * self.FRAMES

        table = fleet_summary_table(summary, title="fleet report")
        assert "fleet report" in table
        assert str(self.SESSIONS) in table
        assert f"{summary.p99_latency_ms:.1f}" in table

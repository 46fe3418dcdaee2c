"""Policy lifecycle tests: checkpoints, the zoo, frozen deployment and the
generalization matrix.

The two headline guarantees are enforced here:

* **Bit-exact resume** — save → load → continue training equals an
  uninterrupted run seed for seed (trace records, losses, rewards and the
  final network parameters), including a checkpoint taken *mid-episode*
  (the pending cross-frame transition survives).
* **Bit-exact frozen replay** — a frozen policy rebuilt from a checkpoint
  reproduces the trained agent's own evaluation trace exactly, both on the
  scalar path and deployed across a fleet scenario.

Robustness: truncated/tampered checkpoint files and format-version
mismatches raise the typed :class:`~repro.errors.PolicyError`, and the
replay-ring snapshot survives save/load at arbitrary fill levels including
wraparound.
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting, make_environment, make_policy
from repro.env.episode import run_episode
from repro.errors import PolicyError, ScenarioError
from repro.policies import (
    CHECKPOINT_FORMAT_VERSION,
    PolicyStore,
    checkpoint_from_bytes,
    checkpoint_from_policy,
    checkpoint_to_bytes,
    frozen_policy_from_checkpoint,
    policy_from_checkpoint,
    run_generalization_matrix,
    train_policy,
)
from repro.policies.frozen import FrozenLotusPolicy, FrozenZttPolicy
from repro.rl.replay import ReplayBuffer
from repro.runtime.cache import ResultCache
from repro.runtime.engine import ExperimentRuntime


def _records_equal(trace_a, trace_b) -> bool:
    return list(trace_a) == list(trace_b)


def _split_run(method: str, total_frames: int, split: int, seed: int):
    """Run ``total_frames`` once uninterrupted and once split at ``split``
    with a checkpoint round-trip in between; returns both sides' artifacts."""
    setting = ExperimentSetting(num_frames=total_frames, seed=seed)

    env_full = make_environment(setting)
    policy_full = make_policy(method, env_full, total_frames, seed=seed)
    trace_full = run_episode(env_full, policy_full, total_frames)

    env_split = make_environment(setting)
    policy_head = make_policy(method, env_split, total_frames, seed=seed)
    trace_head = run_episode(env_split, policy_head, split)
    blob = checkpoint_to_bytes(checkpoint_from_policy(policy_head))
    policy_tail = policy_from_checkpoint(checkpoint_from_bytes(blob))
    trace_tail = run_episode(
        env_split,
        policy_tail,
        total_frames - split,
        reset_environment=False,
        reset_policy=False,
    )
    return policy_full, trace_full, policy_head, policy_tail, trace_head, trace_tail


class TestBitExactResume:
    def test_lotus_mid_episode_resume_is_bit_exact(self):
        policy_full, trace_full, head, tail, trace_head, trace_tail = _split_run(
            "lotus", total_frames=120, split=47, seed=3
        )
        assert list(trace_head) + list(trace_tail) == list(trace_full)
        # The restored agent carries the pre-checkpoint history forward, so
        # its final histories equal the uninterrupted run's in full.
        assert tail.loss_history == policy_full.loss_history
        assert tail.reward_history == policy_full.reward_history
        assert tail.loss_history[: len(head.loss_history)] == head.loss_history
        assert np.array_equal(
            tail.network.flat_parameters, policy_full.network.flat_parameters
        )
        assert np.array_equal(
            tail.learner.target_network.flat_parameters,
            policy_full.learner.target_network.flat_parameters,
        )

    def test_ztt_mid_episode_resume_is_bit_exact(self):
        policy_full, trace_full, head, tail, trace_head, trace_tail = _split_run(
            "ztt", total_frames=110, split=39, seed=5
        )
        assert list(trace_head) + list(trace_tail) == list(trace_full)
        assert tail.loss_history == policy_full.loss_history
        assert tail.reward_history == policy_full.reward_history
        assert np.array_equal(
            tail.network.flat_parameters, policy_full.network.flat_parameters
        )

    def test_lotus_ablation_round_trips_config_and_name(self):
        setting = ExperimentSetting(num_frames=60, seed=2)
        env = make_environment(setting)
        policy = make_policy("lotus-single-action", env, 60, seed=2)
        run_episode(env, policy, 60)
        restored = policy_from_checkpoint(
            checkpoint_from_bytes(checkpoint_to_bytes(checkpoint_from_policy(policy)))
        )
        assert restored.name == "lotus-single-action"
        assert restored.config == policy.config
        assert np.array_equal(
            restored.network.flat_parameters, policy.network.flat_parameters
        )

    def test_non_learning_policy_is_not_checkpointable(self):
        setting = ExperimentSetting(num_frames=10, seed=0)
        env = make_environment(setting)
        policy = make_policy("default", env, 10, seed=0)
        with pytest.raises(PolicyError, match="not checkpointable"):
            checkpoint_from_policy(policy)


def _fleet_traces_equal(frames_a, frames_b) -> bool:
    """Bitwise equality of two lists of FleetFrameResult records."""
    from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS

    if len(frames_a) != len(frames_b):
        return False
    for fa, fb in zip(frames_a, frames_b):
        if fa.index != fb.index or fa.datasets != fb.datasets:
            return False
        for field in _FRAME_RESULT_ARRAY_FIELDS:
            a = np.asarray(getattr(fa, field))
            b = np.asarray(getattr(fb, field))
            if not np.array_equal(a, b):
                return False
    return True


class TestFleetCheckpointResume:
    """lotus-fleet: one shared network trained across a whole fleet.

    The checkpoint captures the complete fleet training state — shared
    learner, per-session replay rings, reward calculators, cooldown,
    pending cross-frame transitions and the shared RNG — so save → load →
    continue equals an uninterrupted fleet run frame for frame on every
    session.
    """

    def _fleet_split_run(self, total_frames, split, seed, num_sessions):
        from repro.env.fleet import run_fleet_episode
        from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

        setting = ExperimentSetting(num_frames=total_frames, seed=seed)
        env_full = make_fleet_environment(setting, num_sessions)
        policy_full = make_fleet_policy(
            "lotus-fleet", env_full, total_frames, seed=seed
        )
        trace_full = run_fleet_episode(env_full, policy_full, total_frames)

        env_split = make_fleet_environment(setting, num_sessions)
        policy_head = make_fleet_policy(
            "lotus-fleet", env_split, total_frames, seed=seed
        )
        trace_head = run_fleet_episode(env_split, policy_head, split)
        blob = checkpoint_to_bytes(checkpoint_from_policy(policy_head))
        policy_tail = policy_from_checkpoint(checkpoint_from_bytes(blob))
        trace_tail = run_fleet_episode(
            env_split,
            policy_tail,
            total_frames - split,
            reset_environment=False,
            reset_policy=False,
        )
        return policy_full, trace_full, policy_tail, trace_head, trace_tail

    def test_mid_episode_resume_is_bit_exact(self):
        policy_full, trace_full, tail, trace_head, trace_tail = (
            self._fleet_split_run(total_frames=40, split=17, seed=3, num_sessions=4)
        )
        assert _fleet_traces_equal(
            list(trace_head) + list(trace_tail), list(trace_full)
        )
        assert tail.loss_history == policy_full.loss_history
        assert tail.reward_history == policy_full.reward_history
        assert np.array_equal(
            tail.network.flat_parameters, policy_full.network.flat_parameters
        )
        assert np.array_equal(
            tail.learner.target_network.flat_parameters,
            policy_full.learner.target_network.flat_parameters,
        )

    def test_per_session_traces_survive_the_round_trip(self):
        _, trace_full, _, trace_head, trace_tail = self._fleet_split_run(
            total_frames=24, split=11, seed=9, num_sessions=3
        )
        for session in range(3):
            resumed = list(trace_head.session_trace(session)) + list(
                trace_tail.session_trace(session)
            )
            assert resumed == list(trace_full.session_trace(session))

    def test_checkpoint_kind_and_geometry(self):
        from repro.env.fleet import run_fleet_episode
        from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

        setting = ExperimentSetting(num_frames=12, seed=1)
        env = make_fleet_environment(setting, 3)
        policy = make_fleet_policy("lotus-fleet", env, 12, seed=1)
        run_fleet_episode(env, policy, 12)
        checkpoint = checkpoint_from_policy(policy)
        assert checkpoint.kind == "lotus-fleet"
        assert checkpoint.geometry["num_sessions"] == 3
        restored = policy_from_checkpoint(
            checkpoint_from_bytes(checkpoint_to_bytes(checkpoint))
        )
        assert restored.num_sessions == 3
        assert np.array_equal(
            restored.network.flat_parameters, policy.network.flat_parameters
        )

    def test_session_count_mismatch_is_refused(self):
        from repro.errors import AgentError
        from repro.env.fleet import run_fleet_episode
        from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

        setting = ExperimentSetting(num_frames=8, seed=2)
        env4 = make_fleet_environment(setting, 4)
        agent4 = make_fleet_policy("lotus-fleet", env4, 8, seed=2)
        run_fleet_episode(env4, agent4, 8)
        env3 = make_fleet_environment(setting, 3)
        agent3 = make_fleet_policy("lotus-fleet", env3, 8, seed=2)
        with pytest.raises(AgentError, match="4-session fleet"):
            agent3.load_state_dict(agent4.state_dict())

    def test_frozen_deployment_is_refused(self):
        from repro.env.fleet import run_fleet_episode
        from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

        setting = ExperimentSetting(num_frames=8, seed=0)
        env = make_fleet_environment(setting, 2)
        policy = make_fleet_policy("lotus-fleet", env, 8, seed=0)
        run_fleet_episode(env, policy, 8)
        with pytest.raises(PolicyError, match="no per-session frozen form"):
            frozen_policy_from_checkpoint(checkpoint_from_policy(policy))

    def test_train_and_resume_through_the_store(self, tmp_path):
        from repro.scenarios import ScenarioSpec

        store = PolicyStore(tmp_path / "zoo")
        spec = ScenarioSpec(
            name="fleet-train-cell",
            method="lotus-fleet",
            num_sessions=3,
            num_frames=24,
            seed=7,
        )
        policy_id, result = train_policy(spec, store=store)
        checkpoint = store.load_checkpoint(policy_id)
        assert checkpoint.kind == "lotus-fleet"
        assert checkpoint.geometry["num_sessions"] == 3
        assert len(result.trace) == 24

        child_id, _ = train_policy(spec, store=store, resume=policy_id)
        assert child_id != policy_id
        child = store.load_checkpoint(child_id)
        assert child.kind == "lotus-fleet"
        assert child.geometry["num_sessions"] == 3


class TestCheckpointRobustness:
    def _checkpoint_blob(self) -> bytes:
        setting = ExperimentSetting(num_frames=40, seed=1)
        env = make_environment(setting)
        policy = make_policy("lotus", env, 40, seed=1)
        run_episode(env, policy, 40)
        return checkpoint_to_bytes(checkpoint_from_policy(policy))

    def test_truncated_checkpoint_raises_policy_error(self, tmp_path):
        blob = self._checkpoint_blob()
        for cut in (0, 10, len(blob) // 2, len(blob) - 3):
            with pytest.raises(PolicyError, match="truncated or corrupted"):
                checkpoint_from_bytes(blob[:cut])

    def test_tampered_payload_fails_the_integrity_hash(self):
        blob = self._checkpoint_blob()
        envelope = json.loads(gzip.decompress(blob))
        envelope["payload"]["method"] = "lotus-evil-twin"
        tampered = gzip.compress(
            json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        )
        with pytest.raises(PolicyError, match="integrity hash"):
            checkpoint_from_bytes(tampered)

    def test_version_mismatch_is_refused(self):
        blob = self._checkpoint_blob()
        envelope = json.loads(gzip.decompress(blob))
        envelope["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        newer = gzip.compress(
            json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        )
        with pytest.raises(PolicyError, match="format version"):
            checkpoint_from_bytes(newer)

    def test_foreign_blob_is_not_a_checkpoint(self):
        blob = gzip.compress(json.dumps({"format": "something-else"}).encode())
        with pytest.raises(PolicyError, match="not a repro policy checkpoint"):
            checkpoint_from_bytes(blob)

    def test_unknown_config_fields_are_refused(self):
        blob = self._checkpoint_blob()
        checkpoint = checkpoint_from_bytes(blob)
        checkpoint.config["warp_drive"] = True
        with pytest.raises(PolicyError, match="unknown fields"):
            policy_from_checkpoint(checkpoint)


class TestReplayRingRoundTrip:
    """Property-style check: the ring snapshot survives save/load at every
    fill level, through empty, partially filled, exactly full and multiply
    wrapped states."""

    CAPACITY = 13
    DIM = 3

    @staticmethod
    def _rings_equal(a: ReplayBuffer, b: ReplayBuffer) -> bool:
        """Same live rows, cursor, counters and uniform-width tracker."""
        state_a, state_b = a.state_dict(), b.state_dict()
        return state_a.keys() == state_b.keys() and all(
            np.array_equal(state_a[key], state_b[key]) for key in state_a
        )

    def _filled(self, pushes: int) -> ReplayBuffer:
        buffer = ReplayBuffer(self.CAPACITY)
        for i in range(pushes):
            buffer.append(
                state=np.arange(self.DIM, dtype=float) + i,
                action=i % 5,
                reward=0.25 * i,
                next_state=np.arange(self.DIM, dtype=float) - i,
                next_width=0.75 if i % 2 else 1.0,
            )
        return buffer

    @pytest.mark.parametrize(
        "pushes", [0, 1, 5, 12, 13, 14, 20, 26, 27, 40]
    )
    def test_wraparound_survives_save_load(self, pushes):
        original = self._filled(pushes)
        restored = ReplayBuffer(self.CAPACITY)
        restored.load_state_dict(original.state_dict())

        assert len(restored) == len(original)
        assert restored.total_pushed == original.total_pushed
        assert (len(restored) == restored.capacity) == (len(original) == original.capacity)
        if pushes:
            assert self._rings_equal(restored, original)
            # Seeded sampling is bit-identical (same physical layout, same
            # ring cursor)...
            size = min(len(original), 4)
            batch_a = original.sample(size, np.random.default_rng(9))
            batch_b = restored.sample(size, np.random.default_rng(9))
            assert np.array_equal(batch_a.states, batch_b.states)
            assert np.array_equal(batch_a.actions, batch_b.actions)
            assert np.array_equal(batch_a.rewards, batch_b.rewards)
            assert np.array_equal(batch_a.next_states, batch_b.next_states)
            assert np.array_equal(batch_a.next_widths, batch_b.next_widths)
            assert batch_a.uniform_next_width == batch_b.uniform_next_width
        # ... and pushing onward from the restored ring stays in lock-step.
        for j in range(5):
            for buffer in (original, restored):
                buffer.append(
                    state=np.full(self.DIM, float(j)),
                    action=j,
                    reward=float(j),
                    next_state=np.full(self.DIM, -float(j)),
                )
        assert self._rings_equal(original, restored)
        if len(original) >= 4:
            batch_a = original.sample(4, np.random.default_rng(11))
            batch_b = restored.sample(4, np.random.default_rng(11))
            assert np.array_equal(batch_a.states, batch_b.states)

    def test_capacity_mismatch_is_refused(self):
        snapshot = self._filled(6).state_dict()
        other = ReplayBuffer(self.CAPACITY + 1)
        from repro.errors import ReplayBufferError

        with pytest.raises(ReplayBufferError, match="capacity"):
            other.load_state_dict(snapshot)


class TestOptimizerRollback:
    """Loading a pre-first-step snapshot into a *stepped* optimizer must
    clear the moments, so an in-place rollback matches a fresh run."""

    def test_adam_rollback_clears_moments(self):
        from repro.rl.optimizer import Adam

        params_a = [np.ones((3, 2)), np.ones(2)]
        params_b = [np.ones((3, 2)), np.ones(2)]
        grads = [np.full((3, 2), 0.5), np.full(2, 0.25)]

        regions = [(slice(None), slice(None)), (slice(None),)]

        stepped = Adam(learning_rate=0.01)
        pristine_snapshot = stepped.state_dict()  # before any step
        stepped.step_sliced(params_a, grads, regions)
        stepped.load_state_dict(params_a, pristine_snapshot)
        params_a = [np.ones((3, 2)), np.ones(2)]  # roll parameters back too

        fresh = Adam(learning_rate=0.01)
        stepped.step_sliced(params_a, grads, regions)
        fresh.step_sliced(params_b, grads, regions)
        assert all(np.array_equal(a, b) for a, b in zip(params_a, params_b))


class TestFrozenDeployment:
    def _trained(self, method="lotus", frames=80, seed=4):
        setting = ExperimentSetting(num_frames=frames, seed=seed)
        env = make_environment(setting)
        policy = make_policy(method, env, frames, seed=seed)
        run_episode(env, policy, frames)
        return setting, policy

    def test_frozen_replay_reproduces_the_evaluation_trace(self):
        setting, policy = self._trained("lotus")
        checkpoint = checkpoint_from_policy(policy)

        policy.set_training(False)
        eval_env = make_environment(setting)
        eval_trace = run_episode(eval_env, policy, 50)

        frozen = frozen_policy_from_checkpoint(checkpoint)
        assert isinstance(frozen, FrozenLotusPolicy)
        frozen_env = make_environment(setting)
        frozen_trace = run_episode(frozen_env, frozen, 50)
        assert _records_equal(eval_trace, frozen_trace)
        assert frozen.loss_history == [] and frozen.reward_history == []
        # Frozen rebuilds are inference-only: the training bulk (replay
        # rings, histories) is not restored.
        assert len(frozen.agent.start_buffer) == 0
        assert frozen.agent.loss_history == []

    def test_frozen_ztt_kind_and_wrapper_match(self):
        _, policy = self._trained("ztt", frames=60, seed=6)
        frozen = frozen_policy_from_checkpoint(checkpoint_from_policy(policy))
        assert isinstance(frozen, FrozenZttPolicy)
        with pytest.raises(PolicyError, match="kind"):
            FrozenLotusPolicy(checkpoint_from_policy(policy))

    def test_policy_method_runs_through_make_policy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY_DIR", str(tmp_path / "zoo"))
        setting, policy = self._trained("lotus", frames=60)
        policy_id = PolicyStore().save(checkpoint_from_policy(policy))

        env = make_environment(setting)
        frozen = make_policy(f"policy:{policy_id[:10]}", env, 40, seed=0)
        assert frozen.policy_id == policy_id
        assert frozen.name == f"policy:{policy_id[:12]}"

    def test_geometry_mismatch_is_refused(self, tmp_path):
        _, policy = self._trained("lotus", frames=60)
        store = PolicyStore(tmp_path / "zoo")
        policy_id = store.save(checkpoint_from_policy(policy))
        phone_env = make_environment(
            ExperimentSetting(device="mi11-lite", num_frames=10, seed=0)
        )
        from repro.policies import frozen_policy_for_environment

        with pytest.raises(PolicyError, match="levels"):
            frozen_policy_for_environment(
                f"policy:{policy_id}", phone_env, store=store
            )

    def test_fleet_scenario_deploys_one_artifact_bit_exactly(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_POLICY_DIR", str(tmp_path / "zoo"))
        _, policy = self._trained("lotus", frames=60)
        policy_id = PolicyStore().save(checkpoint_from_policy(policy))

        from repro.runtime.fleet import run_fleet_scenario, scalar_reference_session
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            name="frozen-fleet-test",
            device="jetson-orin-nano",
            detector="faster_rcnn",
            dataset="kitti",
            method=f"policy:{policy_id}",
            num_frames=30,
            num_sessions=3,
            seed=21,
        )
        result = run_fleet_scenario(spec)
        assert result.num_sessions == 3
        for i in range(3):
            reference = scalar_reference_session(spec, seed=21 + i)
            assert _records_equal(
                result.fleet_trace.session_trace(i), reference.trace
            )


class TestPolicyStore:
    def test_save_resolve_list_lineage_export_import(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        first_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        record = store.record(first_id[:8])
        assert record.train_scenario == "jetson-kitti-baseline"
        assert record.method == "lotus"
        assert record.parent is None
        assert record.metadata["geometry"]["cpu_levels"] > 0
        assert record.metadata["repro_version"]
        assert record.metadata["config_fingerprint"]

        # Content addressing: identical training run, identical id.
        again_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        assert again_id == first_id

        # Resume records lineage.
        child_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=40, resume=first_id[:10]
        )
        assert child_id != first_id
        assert store.record(child_id).parent == first_id
        assert store.lineage(child_id) == [child_id, first_id]

        # Export/import into a second store preserves identity.
        exported = store.export(child_id[:10], tmp_path / "out")
        other = PolicyStore(tmp_path / "zoo2")
        imported = other.import_checkpoint(exported)
        assert imported == child_id
        assert other.load_checkpoint(imported).content_id() == child_id

        ids = {r.policy_id for r in store.list()}
        assert ids == {first_id, child_id}

    def test_unknown_and_ambiguous_ids(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        with pytest.raises(PolicyError, match="unknown policy"):
            store.resolve("deadbeef")
        with pytest.raises(PolicyError, match="non-empty"):
            store.resolve("")

    def test_train_rejects_non_learning_and_fleet_scenarios(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        with pytest.raises(PolicyError, match="not checkpointable"):
            train_policy("phone-diurnal", store=store, num_frames=10)
        with pytest.raises(ScenarioError, match="fleet"):
            train_policy("mixed-edge-fleet", store=store, num_frames=10)

    def test_resume_refuses_incompatible_device_geometry(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        jetson_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        # phone-diurnal runs on mi11-lite, whose level counts differ.
        with pytest.raises(PolicyError, match="levels"):
            train_policy(
                "phone-diurnal", store=store, num_frames=10, resume=jetson_id
            )

    def test_resume_refuses_a_method_override(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        policy_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        with pytest.raises(PolicyError, match="method override"):
            train_policy(
                "jetson-kitti-baseline",
                store=store,
                num_frames=10,
                method="ztt",
                resume=policy_id,
            )


class TestGeneralizationMatrix:
    SCENARIOS = (
        "jetson-kitti-baseline",
        "drone-climb",
        "autonomous-driving",
        "drone-surveillance",
    )

    def test_matrix_runs_and_rerun_is_a_full_cache_hit(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        lotus_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        ztt_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70, method="ztt"
        )
        assert lotus_id != ztt_id

        cache = ResultCache(tmp_path / "cache")
        runtime = ExperimentRuntime(max_workers=1, cache=cache)
        matrix = run_generalization_matrix(
            [lotus_id, ztt_id],
            scenarios=list(self.SCENARIOS),
            num_frames=25,
            runtime=runtime,
            store=store,
        )
        assert len(matrix.cells) == 8
        assert matrix.executed == 8 and matrix.cache_hits == 0
        for cell in matrix.cells:
            assert cell.compatible and cell.session is not None
            assert cell.session.policy_name.startswith("policy:")

        # The checkpoint hash is the method name, so a re-run over the same
        # zoo entries is answered entirely from the cache.
        rerun = run_generalization_matrix(
            [lotus_id[:12], ztt_id[:12]],
            scenarios=list(self.SCENARIOS),
            num_frames=25,
            runtime=ExperimentRuntime(max_workers=1, cache=cache),
            store=store,
        )
        assert rerun.executed == 0 and rerun.cache_hits == 8
        for cell, recell in zip(matrix.cells, rerun.cells):
            assert _records_equal(cell.session.trace, recell.session.trace)

        from repro.analysis.tables import generalization_matrix_table

        table = generalization_matrix_table(rerun, title="transfer")
        assert "transfer" in table
        assert lotus_id[:10] in table and ztt_id[:10] in table
        for name in self.SCENARIOS:
            assert name in table

    def test_matrices_over_two_stores_share_one_pool(self, tmp_path):
        """Pool workers outlive a matrix run, so each run must hand its own
        store to the workers: a second matrix over another store resolves
        its rows there, not in the store the workers first saw."""
        from repro.runtime.pool import shutdown_shared_pool

        store_a = PolicyStore(tmp_path / "zoo-a")
        store_b = PolicyStore(tmp_path / "zoo-b")
        id_a, _ = train_policy("jetson-kitti-baseline", store=store_a, num_frames=60)
        id_b, _ = train_policy(
            "jetson-kitti-baseline", store=store_b, num_frames=60, method="ztt"
        )
        assert not store_a.contains(id_b) and not store_b.contains(id_a)

        columns = ["jetson-kitti-baseline", "drone-climb"]
        shutdown_shared_pool()
        try:
            for store, policy_id in ((store_a, id_a), (store_b, id_b)):
                matrix = run_generalization_matrix(
                    [policy_id],
                    scenarios=columns,
                    num_frames=15,
                    runtime=ExperimentRuntime(max_workers=2, cache=None),
                    store=store,
                )
                assert matrix.executed == len(columns)
                for cell in matrix.cells:
                    assert cell.session.policy_name == f"policy:{policy_id[:12]}"
        finally:
            shutdown_shared_pool()

    def test_incompatible_device_cells_are_skipped_not_failed(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        policy_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        matrix = run_generalization_matrix(
            [policy_id],
            scenarios=["jetson-kitti-baseline", "phone-diurnal"],
            num_frames=20,
            runtime=ExperimentRuntime(max_workers=1, cache=None),
            store=store,
        )
        compatible = matrix.cell(policy_id, "jetson-kitti-baseline")
        incompatible = matrix.cell(policy_id, "phone-diurnal")
        assert compatible.compatible and compatible.session is not None
        assert not incompatible.compatible and incompatible.session is None
        assert "levels" in incompatible.reason

        from repro.analysis.tables import generalization_matrix_table

        assert "-" in generalization_matrix_table(matrix)

    def test_missing_metadata_falls_back_to_the_checkpoint_geometry(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        policy_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        # Simulate an interrupted save / hand-copied shard: checkpoint
        # present, metadata gone.  The matrix must read the geometry from
        # the verified checkpoint, not guess incompatibility.
        (store._entry_dir(policy_id) / "meta.json").unlink()
        matrix = run_generalization_matrix(
            [policy_id],
            scenarios=["jetson-kitti-baseline"],
            num_frames=15,
            runtime=ExperimentRuntime(max_workers=1, cache=None),
            store=store,
        )
        cell = matrix.cell(policy_id, "jetson-kitti-baseline")
        assert cell.compatible and cell.session is not None

    def test_matrix_rejects_empty_inputs_and_fleet_columns(self, tmp_path):
        store = PolicyStore(tmp_path / "zoo")
        with pytest.raises(PolicyError, match="at least one policy"):
            run_generalization_matrix([], store=store)
        policy_id, _ = train_policy(
            "jetson-kitti-baseline", store=store, num_frames=70
        )
        with pytest.raises(ScenarioError, match="fleet"):
            run_generalization_matrix(
                [policy_id], scenarios=["mixed-edge-fleet"], store=store
            )


class TestScenarioValidation:
    def test_policy_method_specs_register(self):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.registry import validate_scenario

        spec = ScenarioSpec(name="frozen-ok", method="policy:abc123")
        validate_scenario(spec)  # does not raise
        with pytest.raises(ScenarioError, match="empty id"):
            validate_scenario(ScenarioSpec(name="frozen-bad", method="policy:"))


class TestPolicyCli:
    def test_policy_cli_full_lifecycle(self, tmp_path, capsys):
        from repro.runtime.cli import main

        zoo = str(tmp_path / "zoo")
        cache = str(tmp_path / "cache")

        assert main([
            "policy", "train", "--scenario", "jetson-kitti-baseline",
            "--frames", "70", "--quiet", "--policy-dir", zoo,
        ]) == 0
        lotus_id = capsys.readouterr().out.strip()
        assert len(lotus_id) == 64

        assert main([
            "policy", "train", "--scenario", "drone-climb",
            "--frames", "70", "--quiet", "--policy-dir", zoo,
        ]) == 0
        drone_id = capsys.readouterr().out.strip()

        assert main(["policy", "list", "--policy-dir", zoo]) == 0
        out = capsys.readouterr().out
        assert "2 policies" in out and lotus_id[:16] in out

        assert main(["policy", "show", lotus_id[:10], "--policy-dir", zoo]) == 0
        out = capsys.readouterr().out
        assert '"train_scenario": "jetson-kitti-baseline"' in out

        exported = tmp_path / "exported.ckpt"
        assert main([
            "policy", "export", lotus_id[:10], str(exported), "--policy-dir", zoo,
        ]) == 0
        capsys.readouterr()
        assert exported.exists()
        zoo2 = str(tmp_path / "zoo2")
        assert main([
            "policy", "import", str(exported), "--policy-dir", zoo2,
        ]) == 0
        assert lotus_id in capsys.readouterr().out

        assert main([
            "policy", "eval-matrix",
            "--policies", f"{lotus_id[:12]},{drone_id[:12]}",
            "--scenarios", "jetson-kitti-baseline,drone-climb",
            "--frames", "20", "--quiet",
            "--policy-dir", zoo, "--cache-dir", cache,
        ]) == 0
        out = capsys.readouterr().out
        assert "2 policies x 2 scenarios" in out
        assert "0 cache hits, 4 executed" in out

        # Re-render: 100 % cache hit.
        assert main([
            "policy", "eval-matrix",
            "--policies", f"{lotus_id[:12]},{drone_id[:12]}",
            "--scenarios", "jetson-kitti-baseline,drone-climb",
            "--frames", "20", "--quiet",
            "--policy-dir", zoo, "--cache-dir", cache,
        ]) == 0
        assert "4 cache hits, 0 executed" in capsys.readouterr().out

    def test_run_subcommand_accepts_policy_method(self, tmp_path, capsys, monkeypatch):
        from repro.runtime.cli import main

        monkeypatch.setenv("REPRO_POLICY_DIR", str(tmp_path / "zoo"))
        policy_id, _ = train_policy(
            "jetson-kitti-baseline", store=PolicyStore(), num_frames=70
        )
        assert main([
            "run", "--method", f"policy:{policy_id[:12]}", "--frames", "20",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "whole episode" in out

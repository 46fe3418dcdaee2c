"""Scenario-driven policy training into the zoo.

``train_policy`` is the lifecycle's front door: pick a scenario spec, train
its learning method online for the spec's episode, capture a checkpoint of
the full training state and file it in the policy store with provenance
metadata.  Passing ``resume`` continues training from a stored checkpoint
instead of a fresh agent — the saved child records the parent id, building
the zoo's lineage chain.

Most methods train as one scalar session.  ``lotus-fleet`` is the
exception: it learns one shared Q-network from ``spec.num_sessions``
concurrent sessions, so its training episode runs on the vectorized fleet
engine instead of the scalar runner — same checkpoint envelope, same store,
same resume semantics (the fleet size is part of the checkpoint geometry
and must match on resume).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import PolicyError, ScenarioError
from repro.policies.checkpoint import checkpoint_from_policy, policy_from_checkpoint
from repro.policies.store import PolicyStore


def train_policy(
    spec,
    *,
    store: PolicyStore | None = None,
    num_frames: int | None = None,
    seed: int | None = None,
    method: str | None = None,
    resume: str | None = None,
) -> Tuple[str, "object"]:
    """Train one policy on a scenario and save it into the zoo.

    Args:
        spec: A :class:`~repro.scenarios.ScenarioSpec` (or registered
            scenario name) describing the training cell; heterogeneous
            fleet scenarios have no single training session and are
            rejected.  A spec whose method is ``lotus-fleet`` trains on
            the fleet engine with ``spec.num_sessions`` sessions.
        store: Target policy store (default: :class:`PolicyStore`).
        num_frames / seed / method: Optional overrides of the spec's
            episode length, base seed and method.
        resume: Optional policy id (or unique prefix) to continue training
            from; the spec's method is ignored in favour of the
            checkpoint's (combining ``resume`` with an explicit ``method``
            override is an error), and the saved child records the parent
            lineage.  The scenario's device must expose the same
            frequency-level geometry the checkpoint was trained for.

    Returns:
        ``(policy_id, session_result)`` — the stored content id and the
        training session's :class:`~repro.core.training.SessionResult`.
    """
    from repro.analysis.experiments import make_environment, make_policy
    from repro.core.training import session_result_from_trace
    from repro.env.episode import run_episode
    from repro.scenarios import FleetScenario, ScenarioSpec, build_scenario

    if isinstance(spec, str):
        spec = build_scenario(spec)
    if isinstance(spec, FleetScenario):
        raise ScenarioError(
            f"cannot train on fleet scenario {spec.name!r}; pick one of its "
            f"member specs (training is one scalar session)"
        )
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            f"expected a ScenarioSpec or registered name, got {type(spec).__name__}"
        )
    if resume is not None and method is not None:
        raise PolicyError(
            "cannot combine a method override with resume: the checkpoint "
            "fixes the method; drop --method or train a fresh policy"
        )
    overrides = {}
    if num_frames is not None:
        overrides["num_frames"] = num_frames
    if seed is not None:
        overrides["seed"] = seed
    if method is not None:
        overrides["method"] = method
    if overrides:
        spec = spec.with_overrides(**overrides)

    store = store if store is not None else PolicyStore()
    setting = spec.setting()

    parent: str | None = None
    parent_checkpoint = None
    if resume is not None:
        parent = store.resolve(resume)
        parent_checkpoint = store.load_checkpoint(parent)

    # The checkpoint fixes the training regime on resume, exactly like it
    # fixes the method: a lotus-fleet parent resumes on the fleet engine
    # (with the fleet size stored in its geometry), everything else resumes
    # as one scalar session.
    fleet_training = (
        parent_checkpoint.kind == "lotus-fleet"
        if parent_checkpoint is not None
        else spec.method == "lotus-fleet"
    )

    if fleet_training:
        from repro.env.fleet import FleetSessionGroup, run_grouped_fleet_episode
        from repro.runtime.fleet import (
            _group_histories,
            make_fleet_environment,
            make_fleet_policy,
        )

        num_sessions = (
            int(parent_checkpoint.geometry["num_sessions"])
            if parent_checkpoint is not None
            else int(spec.num_sessions)
        )
        environment = make_fleet_environment(
            setting, num_sessions, ambient=spec.ambient
        )
    else:
        environment = make_environment(setting, ambient=spec.ambient)

    if parent_checkpoint is not None:
        geometry = parent_checkpoint.geometry
        device = environment.device
        if (
            int(device.cpu.num_levels) != int(geometry["cpu_levels"])
            or int(device.gpu.num_levels) != int(geometry["gpu_levels"])
        ):
            raise PolicyError(
                f"cannot resume {parent[:12]} on scenario {spec.name!r}: it "
                f"was trained for a {geometry['cpu_levels']}x"
                f"{geometry['gpu_levels']} level action space but device "
                f"{spec.device!r} exposes {device.cpu.num_levels}x"
                f"{device.gpu.num_levels} levels"
            )
        policy = policy_from_checkpoint(parent_checkpoint)
        policy.set_training(True)
    elif fleet_training:
        policy = make_fleet_policy(
            spec.method, environment, setting.num_frames, seed=setting.seed
        )
    else:
        policy = make_policy(spec.method, environment, setting.num_frames, seed=setting.seed)
        if not hasattr(policy, "state_dict"):
            raise PolicyError(
                f"method {spec.method!r} is not checkpointable; only the "
                f"learning agents (lotus variants, lotus-fleet, ztt) persist "
                f"training state"
            )

    if fleet_training:
        groups = [
            FleetSessionGroup(
                environment=environment,
                policy=policy,
                session_indices=tuple(range(environment.num_sessions)),
            )
        ]
        fleet_trace = run_grouped_fleet_episode(groups, setting.num_frames)
        # The zoo records one SessionResult per training run; for a fleet
        # run that is session 0's trace (every session shares the same
        # network and loss history), so only session 0 is packaged.
        losses, rewards, names = _group_histories(groups)
        result = session_result_from_trace(
            names[0], fleet_trace.session_trace(0), losses=losses[0], rewards=rewards[0]
        )
    else:
        trace = run_episode(environment, policy, setting.num_frames)
        result = session_result_from_trace(
            policy.name,
            trace,
            losses=list(getattr(policy, "loss_history", [])),
            rewards=list(getattr(policy, "reward_history", [])),
        )
    checkpoint = checkpoint_from_policy(policy)
    extra = {
        "device": spec.device,
        "detector": spec.detector,
        "dataset": spec.dataset,
        "num_frames": int(setting.num_frames),
        "seed": int(setting.seed),
    }
    if fleet_training:
        extra["num_sessions"] = int(environment.num_sessions)
    policy_id = store.save(
        checkpoint,
        train_scenario=spec.name,
        parent=parent,
        extra=extra,
    )
    return policy_id, result

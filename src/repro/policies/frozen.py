"""Frozen policy deployment: run a stored checkpoint inference-only.

A frozen policy rebuilds the trained agent a checkpoint describes, switches
it to evaluation mode (greedy actions, no exploration, no cool-down
override, no replay writes, no gradient steps) and exposes it through the
ordinary scalar :class:`~repro.env.policy.Policy` protocol — so one trained
artifact plugs into everything that drives a policy today:

* the scalar episode runner and the cached experiment runtime (via the
  ``policy:<id>`` method name understood by
  :func:`repro.analysis.experiments.make_policy`),
* the vectorized fleet engine (``policy:<id>`` falls through
  :func:`repro.runtime.fleet.make_member_policy` to per-session frozen
  instances wrapped in :class:`repro.env.fleet.PerSessionPolicies`), and
* declarative scenarios and heterogeneous fleets (``method:
  "policy:<id>"`` in a :class:`~repro.scenarios.ScenarioSpec`).

Replaying a frozen policy on its training scenario reproduces the trained
agent's own evaluation trace bit for bit: the checkpoint restores the exact
weights *and* RNG state, and evaluation mode consumes randomness identically
(``tests/test_policies.py`` enforces this).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import PolicyError
from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import FrameRecord
from repro.policies.checkpoint import PolicyCheckpoint, policy_from_checkpoint
from repro.policies.store import PolicyStore

#: Method-name prefix that routes a scenario/job method string to a stored
#: policy: ``policy:<id>`` (full content id or unique prefix).
POLICY_METHOD_PREFIX = "policy:"


def is_policy_method(method: str) -> bool:
    """Whether a method name denotes a frozen stored policy."""
    return method.startswith(POLICY_METHOD_PREFIX)


def policy_method_id(method: str) -> str:
    """Extract the policy id from a ``policy:<id>`` method name."""
    if not is_policy_method(method):
        raise PolicyError(f"{method!r} is not a policy:<id> method name")
    policy_id = method[len(POLICY_METHOD_PREFIX):].strip()
    if not policy_id:
        raise PolicyError("policy:<id> method name carries an empty id")
    return policy_id


class _FrozenPolicy(Policy):
    """Inference-only wrapper around a checkpoint-rebuilt agent.

    The wrapped agent keeps its trained weights but runs with
    ``set_training(False)``; the wrapper deliberately does *not* expose
    ``set_training`` (a frozen artifact cannot be un-frozen in place) and
    reports empty loss/reward histories so deployment results never carry
    the training run's diagnostics.
    """

    kind = ""

    def __init__(self, checkpoint: PolicyCheckpoint, policy_id: str | None = None):
        if checkpoint.kind != self.kind:
            raise PolicyError(
                f"checkpoint is of kind {checkpoint.kind!r}, expected {self.kind!r}"
            )
        self.policy_id = policy_id if policy_id is not None else checkpoint.content_id()
        self.method = checkpoint.method
        self.geometry: Dict[str, Any] = dict(checkpoint.geometry)
        # Inference-only rebuild: replay rings, optimizer moments and
        # training histories are never read by greedy decisions, so a
        # frozen instance (N of them per fleet member) skips restoring
        # them.  Evaluation traces are identical either way.
        self.agent = policy_from_checkpoint(checkpoint, inference_only=True)
        self.agent.set_training(False)
        self.name = f"policy:{self.policy_id[:12]}"

    # -- policy protocol -----------------------------------------------------

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision | None:
        return self.agent.begin_frame(observation)

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision | None:
        return self.agent.mid_frame(observation)

    def end_frame(self, result: FrameRecord) -> None:
        self.agent.end_frame(result)

    def reset(self) -> None:
        self.agent.reset()

    # -- diagnostics ---------------------------------------------------------

    @property
    def loss_history(self) -> List[float]:
        """Always empty: a frozen policy never trains."""
        return []

    @property
    def reward_history(self) -> List[float]:
        """Always empty: deployment results carry no training diagnostics."""
        return []

    def validate_environment(self, environment) -> None:
        """Refuse environments whose device geometry the network cannot drive."""
        device = environment.device
        cpu_levels = int(device.cpu.num_levels)
        gpu_levels = int(device.gpu.num_levels)
        if (
            cpu_levels != int(self.geometry["cpu_levels"])
            or gpu_levels != int(self.geometry["gpu_levels"])
        ):
            raise PolicyError(
                f"policy {self.policy_id[:12]} was trained for a "
                f"{self.geometry['cpu_levels']}x{self.geometry['gpu_levels']} "
                f"level action space but device {device.name!r} exposes "
                f"{cpu_levels}x{gpu_levels} levels"
            )


class FrozenLotusPolicy(_FrozenPolicy):
    """A Lotus agent (or ablation variant) restored from a checkpoint,
    running inference-only."""

    kind = "lotus"


class FrozenZttPolicy(_FrozenPolicy):
    """A zTT agent restored from a checkpoint, running inference-only."""

    kind = "ztt"


def frozen_policy_from_checkpoint(
    checkpoint: PolicyCheckpoint, policy_id: str | None = None
) -> _FrozenPolicy:
    """Build the right frozen wrapper for a checkpoint's kind."""
    if checkpoint.kind == "lotus":
        return FrozenLotusPolicy(checkpoint, policy_id=policy_id)
    if checkpoint.kind == "ztt":
        return FrozenZttPolicy(checkpoint, policy_id=policy_id)
    if checkpoint.kind == "lotus-fleet":
        raise PolicyError(
            "lotus-fleet checkpoints train one shared network across a whole "
            "fleet and have no per-session frozen form; resume training with "
            "`policy train --resume` instead of deploying via policy:<id>"
        )
    raise PolicyError(f"unknown checkpoint kind {checkpoint.kind!r}")


def frozen_policy_for_environment(
    method: str, environment, store: PolicyStore | None = None
) -> _FrozenPolicy:
    """Resolve a ``policy:<id>`` method against the store for an environment.

    This is the hook :func:`repro.analysis.experiments.make_policy` routes
    through: the id is resolved (prefixes allowed), the checkpoint loaded
    and verified, the frozen wrapper built, and the environment's device
    geometry checked against the checkpoint's.  ``environment`` may be the
    scalar or the batched fleet environment — both expose ``.device``.
    """
    store = store if store is not None else PolicyStore()
    policy_id = store.resolve(policy_method_id(method))
    frozen = frozen_policy_from_checkpoint(
        store.load_checkpoint(policy_id), policy_id=policy_id
    )
    frozen.validate_environment(environment)
    return frozen

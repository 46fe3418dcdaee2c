"""Lossless, versioned policy checkpoints.

A checkpoint is the complete, self-contained description of a trained
agent: its kind (``lotus``, ``lotus-fleet`` or ``ztt``), the method name
it was built as,
the action-space geometry it was sized for, its full hyper-parameter
configuration and a :meth:`state_dict` snapshot of every mutable training
quantity — flat network parameters (online and target), Adam moments,
replay-ring contents, epsilon/step counters, cool-down trigger count,
reward window, RNG state and in-flight transition bookkeeping.  Rebuilding
a policy from a checkpoint and continuing is bit-identical to never having
stopped, even mid-episode (``tests/test_policies.py`` enforces this).

On disk a checkpoint is a gzip-compressed JSON envelope::

    {"format": "repro-policy-checkpoint", "format_version": 1,
     "repro_version": "...", "sha256": "<payload digest>", "payload": {...}}

Arrays are base64-encoded raw little-endian bytes (bit-exact float64
round-trip), the payload is canonicalised (sorted keys, no whitespace)
before hashing, and the SHA-256 of the canonical payload doubles as the
checkpoint's *content id* — the policy-zoo key of
:class:`repro.policies.store.PolicyStore`.  Truncated files, tampered
payloads and unknown format versions are all refused with a typed
:class:`~repro.errors.PolicyError`.
"""

from __future__ import annotations

import base64
import dataclasses
import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.errors import PolicyError
from repro.baselines.ztt import ZttConfig, ZttPolicy
from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.core.fleet import FleetLotusAgent
from repro.core.reward import RewardConfig
from repro.env.policy import Policy

#: Magic format name embedded in every checkpoint envelope.
FORMAT_NAME = "repro-policy-checkpoint"

#: Bumped whenever the payload layout changes incompatibly; readers refuse
#: checkpoints written by any other version instead of misinterpreting them.
FORMAT_VERSION = 1

#: Checkpointable policy kinds and the classes they rebuild into.
CHECKPOINT_KINDS = ("lotus", "lotus-fleet", "ztt")


# ---------------------------------------------------------------------------
# Array / payload codec
# ---------------------------------------------------------------------------


def _encode(obj: Any) -> Any:
    """Recursively convert a state tree into JSON-compatible values.

    Arrays become ``{"__ndarray__": <base64>, "dtype": ..., "shape": ...}``
    markers carrying their raw little-endian bytes, so the round trip is
    bit-exact for every dtype the state dicts use.
    """
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        little = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
        return {
            "__ndarray__": base64.b64encode(little.tobytes()).decode("ascii"),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(key): _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(value) for value in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise PolicyError(f"cannot serialise object of type {type(obj).__name__}")


def _decode(obj: Any) -> Any:
    """Inverse of :func:`_encode` (lists stay lists; state consumers accept
    them wherever tuples went in)."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            try:
                raw = base64.b64decode(obj["__ndarray__"])
                dtype = np.dtype(obj["dtype"]).newbyteorder("<")
                array = np.frombuffer(raw, dtype=dtype).reshape(obj["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PolicyError(f"malformed array payload: {exc}") from exc
            return np.ascontiguousarray(array.astype(array.dtype.newbyteorder("=")))
        return {key: _decode(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_decode(value) for value in obj]
    return obj


def _canonical(payload: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes of an (already encoded) payload, for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Config (de)serialisation
# ---------------------------------------------------------------------------


def _config_from_dict(cls, payload: Dict[str, Any], **overrides: Any):
    """Rebuild a frozen config dataclass from ``dataclasses.asdict`` output,
    refusing unknown fields (a checkpoint written by a newer build must not
    be silently reinterpreted)."""
    known = {f.name for f in dataclasses.fields(cls)}
    unexpected = set(payload) - known
    if unexpected:
        raise PolicyError(
            f"{cls.__name__} snapshot carries unknown fields {sorted(unexpected)}; "
            f"refusing to reinterpret a checkpoint from an incompatible build"
        )
    kwargs = {key: value for key, value in payload.items() if key not in overrides}
    kwargs.update(overrides)
    if "hidden_dims" in kwargs:
        kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise PolicyError(f"malformed {cls.__name__} snapshot: {exc}") from exc


def lotus_config_from_dict(payload: Dict[str, Any]) -> LotusConfig:
    """Rebuild a :class:`LotusConfig` (nested reward included) from a dict."""
    payload = dict(payload)
    reward_payload = payload.pop("reward", None)
    if reward_payload is None:
        raise PolicyError("Lotus config snapshot is missing the reward section")
    reward = _config_from_dict(RewardConfig, dict(reward_payload))
    return _config_from_dict(LotusConfig, payload, reward=reward)


def ztt_config_from_dict(payload: Dict[str, Any]) -> ZttConfig:
    """Rebuild a :class:`ZttConfig` from a dict."""
    return _config_from_dict(ZttConfig, dict(payload))


# ---------------------------------------------------------------------------
# PolicyCheckpoint
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PolicyCheckpoint:
    """An in-memory checkpoint: kind, method, geometry, config and state.

    Equality is content equality: two checkpoints compare equal exactly
    when their content ids match (the state tree holds numpy arrays, so
    the dataclass-generated field comparison would be ill-defined).

    Attributes:
        kind: ``"lotus"``, ``"lotus-fleet"`` or ``"ztt"`` — which agent
            class rebuilds it.
        method: The method name the policy was built as (``"lotus"``,
            ``"ztt"``, or an ablation such as ``"lotus-single-action"``);
            restored onto the rebuilt policy's ``name``.
        geometry: Action-space / encoder sizing: ``cpu_levels``,
            ``gpu_levels``, ``temperature_threshold_c`` and (Lotus)
            ``proposal_scale``.  Frozen deployment refuses environments
            whose device disagrees with these.
        config: ``dataclasses.asdict`` of the agent's configuration.
        state: The agent's :meth:`state_dict` tree (arrays decoded).
        repro_version: Package version that wrote the checkpoint
            (informational; compatibility is governed by the format
            version and the config/geometry round-trip).
    """

    kind: str
    method: str
    geometry: Dict[str, Any]
    config: Dict[str, Any]
    state: Dict[str, Any]
    repro_version: str = ""
    _content_id: str | None = field(default=None, repr=False, compare=False)
    _payload: Dict[str, Any] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in CHECKPOINT_KINDS:
            raise PolicyError(
                f"unknown checkpoint kind {self.kind!r}; supported: {CHECKPOINT_KINDS}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyCheckpoint):
            return NotImplemented
        return self.content_id() == other.content_id()

    def __hash__(self) -> int:
        return hash(self.content_id())

    def payload(self) -> Dict[str, Any]:
        """The JSON-compatible (encoded) payload of this checkpoint.

        Encoded once and cached (the state tree dominates — megabytes of
        array bytes), so hashing for the content id and writing to disk do
        not serialise twice.  A checkpoint is treated as immutable once its
        payload or id has been computed.
        """
        if self._payload is None:
            self._payload = {
                "kind": self.kind,
                "method": self.method,
                "geometry": _encode(self.geometry),
                "config": _encode(self.config),
                "state": _encode(self.state),
            }
        return self._payload

    def content_id(self) -> str:
        """SHA-256 of the canonical payload — the content-addressed id."""
        if self._content_id is None:
            self._content_id = hashlib.sha256(_canonical(self.payload())).hexdigest()
        return self._content_id


def checkpoint_from_policy(policy: Policy) -> PolicyCheckpoint:
    """Capture a checkpoint from a live agent.

    Supports the learning agents (:class:`LotusAgent` including its
    ablation variants, the fleet-trained :class:`FleetLotusAgent`, and
    :class:`ZttPolicy`).  Non-learning policies have no training state to
    persist and are refused.
    """
    from repro import __version__

    if isinstance(policy, (LotusAgent, FleetLotusAgent)):
        geometry = {
            "cpu_levels": int(policy.encoder.cpu_levels),
            "gpu_levels": int(policy.encoder.gpu_levels),
            "temperature_threshold_c": float(policy.temperature_threshold_c),
            "proposal_scale": float(policy.encoder.proposal_scale),
        }
        if isinstance(policy, FleetLotusAgent):
            geometry["num_sessions"] = int(policy.num_sessions)
        return PolicyCheckpoint(
            kind="lotus" if isinstance(policy, LotusAgent) else "lotus-fleet",
            method=policy.name,
            geometry=geometry,
            config=dataclasses.asdict(policy.config),
            state=policy.state_dict(),
            repro_version=__version__,
        )
    if isinstance(policy, ZttPolicy):
        return PolicyCheckpoint(
            kind="ztt",
            method=policy.name,
            geometry={
                "cpu_levels": int(policy._cpu_levels),
                "gpu_levels": int(policy._gpu_levels),
                "temperature_threshold_c": float(policy.temperature_threshold_c),
            },
            config=dataclasses.asdict(policy.config),
            state=policy.state_dict(),
            repro_version=__version__,
        )
    raise PolicyError(
        f"policy of type {type(policy).__name__} is not checkpointable; only "
        f"the learning agents (lotus variants, ztt) persist training state"
    )


def _empty_ring(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """An empty replay-ring snapshot with the original capacity."""
    return {
        "capacity": snapshot["capacity"],
        "size": 0,
        "next": 0,
        "total_pushed": 0,
        "dim": 0,
        "uniform_next_width": None,
        "state_pairs": None,
        "scalar_pairs": None,
        "actions": None,
    }


def _inference_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """Prune a state snapshot down to what evaluation-mode decisions read.

    Frozen deployment never samples replay, never steps the optimizer and
    never reports training histories, so the replay rings, Adam moments
    and loss/reward histories — the bulk of a checkpoint — are dropped
    (rings restore empty, moments zero).  Everything a greedy decision
    touches (network parameters, RNG, counters, in-flight frame
    bookkeeping) is kept, so evaluation traces are unchanged.

    This function names the heavy keys of the component ``state_dict``
    schemas directly; a new training-only bulk field added to any of them
    must be listed here too, or frozen instances will restore it.
    """
    pruned = dict(state)
    learner = dict(pruned["learner"])
    optimizer = dict(learner["optimizer"])
    optimizer["first_moment"] = optimizer["second_moment"] = None
    learner["optimizer"] = optimizer
    pruned["learner"] = learner
    for key in ("start_buffer", "mid_buffer", "buffer"):
        if pruned.get(key) is not None:
            pruned[key] = _empty_ring(pruned[key])
    pruned["loss_history"] = []
    pruned["reward_history"] = []
    return pruned


def policy_from_checkpoint(
    checkpoint: PolicyCheckpoint, inference_only: bool = False
) -> Policy:
    """Rebuild the live agent a checkpoint describes, state fully restored.

    The agent is constructed from the stored geometry and configuration
    (identical construction path to :func:`repro.analysis.experiments.make_policy`),
    then every mutable quantity — including the RNG — is overwritten from
    the state snapshot, so the rebuilt agent continues exactly where the
    captured one stopped.

    With ``inference_only`` the replay rings, optimizer moments and
    training histories are not restored (see :func:`_inference_state`) —
    the cheap rebuild frozen deployment uses, where N fleet sessions each
    get an instance and none of that state is ever read.
    """
    geometry = checkpoint.geometry
    try:
        if checkpoint.kind == "lotus":
            config = lotus_config_from_dict(checkpoint.config)
            agent: Policy = LotusAgent(
                cpu_levels=int(geometry["cpu_levels"]),
                gpu_levels=int(geometry["gpu_levels"]),
                temperature_threshold_c=float(geometry["temperature_threshold_c"]),
                proposal_scale=float(geometry["proposal_scale"]),
                config=config,
                rng=np.random.default_rng(0),
            )
        elif checkpoint.kind == "lotus-fleet":
            config = lotus_config_from_dict(checkpoint.config)
            agent = FleetLotusAgent(
                cpu_levels=int(geometry["cpu_levels"]),
                gpu_levels=int(geometry["gpu_levels"]),
                temperature_threshold_c=float(geometry["temperature_threshold_c"]),
                proposal_scale=float(geometry["proposal_scale"]),
                num_sessions=int(geometry["num_sessions"]),
                config=config,
                rng=np.random.default_rng(0),
            )
        else:
            config = ztt_config_from_dict(checkpoint.config)
            agent = ZttPolicy(
                cpu_levels=int(geometry["cpu_levels"]),
                gpu_levels=int(geometry["gpu_levels"]),
                temperature_threshold_c=float(geometry["temperature_threshold_c"]),
                config=config,
                rng=np.random.default_rng(0),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyError(f"malformed checkpoint geometry: {exc}") from exc
    state = _inference_state(checkpoint.state) if inference_only else checkpoint.state
    agent.load_state_dict(state)
    agent.name = checkpoint.method
    return agent


# ---------------------------------------------------------------------------
# Bytes / file round trip
# ---------------------------------------------------------------------------


def checkpoint_to_bytes(checkpoint: PolicyCheckpoint) -> bytes:
    """Serialise a checkpoint to its compact on-disk form."""
    from repro import __version__

    envelope = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "repro_version": checkpoint.repro_version or __version__,
        "sha256": checkpoint.content_id(),
        "payload": checkpoint.payload(),
    }
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return gzip.compress(text.encode("utf-8"), compresslevel=6)


def checkpoint_from_bytes(blob: bytes) -> PolicyCheckpoint:
    """Parse and verify a checkpoint from its on-disk form.

    Raises:
        PolicyError: When the blob is truncated or corrupted, is not a
            policy checkpoint, was written by an unsupported format version,
            or its payload does not match the stored integrity hash.
    """
    try:
        text = gzip.decompress(blob).decode("utf-8")
        envelope = json.loads(text)
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PolicyError(f"checkpoint is truncated or corrupted: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_NAME:
        raise PolicyError("not a repro policy checkpoint")
    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise PolicyError(
            f"unsupported checkpoint format version {version!r}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise PolicyError("checkpoint envelope is missing its payload")
    digest = hashlib.sha256(_canonical(payload)).hexdigest()
    if digest != envelope.get("sha256"):
        raise PolicyError("checkpoint integrity hash mismatch (corrupted payload)")
    try:
        checkpoint = PolicyCheckpoint(
            kind=payload["kind"],
            method=str(payload["method"]),
            geometry=_decode(payload["geometry"]),
            config=_decode(payload["config"]),
            state=_decode(payload["state"]),
            repro_version=str(envelope.get("repro_version", "")),
        )
    except (KeyError, TypeError) as exc:
        raise PolicyError(f"malformed checkpoint payload: {exc}") from exc
    checkpoint._content_id = digest
    checkpoint._payload = payload
    return checkpoint


def write_checkpoint(checkpoint: PolicyCheckpoint, path) -> str:
    """Write a checkpoint file; returns its content id."""
    from pathlib import Path

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    blob = checkpoint_to_bytes(checkpoint)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(target)
    return checkpoint.content_id()


def read_checkpoint(path) -> PolicyCheckpoint:
    """Read and verify a checkpoint file."""
    from pathlib import Path

    target = Path(path)
    try:
        blob = target.read_bytes()
    except OSError as exc:
        raise PolicyError(f"cannot read checkpoint {target}: {exc}") from exc
    return checkpoint_from_bytes(blob)

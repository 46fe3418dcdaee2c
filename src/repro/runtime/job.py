"""Experiment jobs and their stable cache keys.

A job is the unit of work the runtime schedules: one fully-described
experiment cell — a single (setting, method) pair, optionally with an
ambient-temperature schedule or a domain-switch workload attached.  Jobs are
frozen, picklable and order-independent, which is what lets a sweep fan out
over a process pool and lets completed results be cached on disk.

The cache key of a job is a SHA-256 digest over the *fully resolved*
experiment description: every :class:`~repro.analysis.experiments.ExperimentSetting`
field (with a ``None`` latency constraint replaced by the derived default,
so that an explicit constraint equal to the derived one hashes identically),
the method name, the ambient/domain specification, and a fingerprint of the
code-relevant configuration (agent hyper-parameter defaults, reward
defaults, margin-derivation constants and the package version).  Changing
any configuration default therefore invalidates the cache automatically,
while re-rendering a table with unchanged code is a pure cache hit.

Frozen-policy jobs (method ``policy:<id>``, see :mod:`repro.policies`) get
checkpoint-exact keys for free: the id *is* the SHA-256 of the checkpoint
payload, so the trained network's content hash rides into the job key
through the method name — retraining a policy yields a new id and therefore
new cells, while re-evaluating an unchanged artifact is a pure cache hit.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Bumped whenever the serialised payload layout or the key derivation
#: changes incompatibly; keys embed it so stale entries are never read.
CACHE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExperimentJob:
    """One independent unit of experiment work.

    Attributes:
        setting: The :class:`~repro.analysis.experiments.ExperimentSetting`
            describing the cell (device, detector, dataset, frames, seed...).
        method: Policy/method name understood by
            :func:`~repro.analysis.experiments.make_policy` (e.g.
            ``"default"``, ``"ztt"``, ``"lotus"``, ``"fixed"`` or an
            ablation variant).
        ambient: Optional ambient-temperature profile overriding the
            setting's constant ambient (an
            :class:`~repro.env.ambient.AmbientProfile`).  Constant and
            stepped profiles are cacheable; exotic custom profiles still run
            but bypass the cache.
        domain_datasets: Optional dataset names for a mid-run domain switch
            (Fig. 7b).  When set, the executor splits ``setting.num_frames``
            evenly across the datasets and rebuilds the paper's
            ``DomainSwitchStream``.
        policy_dir: Root of the policy store a ``policy:<id>`` method
            resolves in (``None``: the default store).  It travels with the
            job into pool workers, which never see later changes to the
            parent's environment.  It is not part of the cache key: the id
            is the checkpoint's content hash, wherever it is stored.
    """

    setting: Any
    method: str
    ambient: Any = None
    domain_datasets: Optional[Tuple[str, ...]] = None
    policy_dir: Optional[str] = None

    def cache_key(self) -> Optional[str]:
        """Stable hex digest identifying this job, or ``None`` if uncacheable."""
        return job_key(self)


def ambient_fingerprint(ambient: Any) -> Optional[Dict[str, Any]]:
    """Serialisable description of an ambient profile, for hashing.

    Returns ``None`` for "no override" and raises :class:`TypeError` for
    profile types the runtime cannot describe (the engine treats such jobs
    as uncacheable rather than failing them).
    """
    # Imported lazily: the runtime layer sits below repro.analysis but the
    # ambient classes live in repro.env, which is safe; keep the import local
    # anyway so unpickling jobs in worker processes stays cheap.
    from repro.env.ambient import ConstantAmbient, StepAmbient

    if ambient is None:
        return None
    # The constant/steps shapes predate the scenario codec and are kept
    # verbatim so existing cache keys stay stable.
    if isinstance(ambient, ConstantAmbient):
        return {"kind": "constant", "temperature_c": float(ambient.temperature_c)}
    if isinstance(ambient, StepAmbient):
        return {
            "kind": "steps",
            "segments": [
                [int(s.num_frames), float(s.temperature_c)] for s in ambient.segments
            ],
        }
    # Every other library profile fingerprints through the scenario codec,
    # so new serialisable profiles are cacheable without a second codec.
    from repro.errors import ScenarioError
    from repro.scenarios.spec import ambient_to_dict

    try:
        return ambient_to_dict(ambient)
    except ScenarioError as exc:
        raise TypeError(
            f"cannot fingerprint ambient profile of type {type(ambient).__name__}"
        ) from exc


def config_fingerprint() -> Dict[str, Any]:
    """Code-relevant configuration snapshot folded into every job key.

    Captures the default hyper-parameters of the learning agents and the
    reward, the experiment-derivation constants, and the package version.
    Any change to these defaults produces different job keys, so cached
    results can never silently survive a configuration change.
    """
    from repro import __version__
    from repro.analysis import experiments
    from repro.baselines.ztt import ZttConfig
    from repro.core.config import LotusConfig
    from repro.core.reward import RewardConfig

    return {
        "repro_version": __version__,
        "lotus_config": dataclasses.asdict(LotusConfig()),
        "ztt_config": dataclasses.asdict(ZttConfig()),
        "reward_config": dataclasses.asdict(RewardConfig()),
        "control_margin_fraction": experiments.CONTROL_MARGIN_FRACTION,
        "control_margin_range_c": list(experiments.CONTROL_MARGIN_RANGE_C),
        "soft_margin_fraction": experiments.SOFT_MARGIN_FRACTION,
        "soft_margin_range_c": list(experiments.SOFT_MARGIN_RANGE_C),
        "reference_ambient_c": experiments.REFERENCE_AMBIENT_C,
        "constraint_headroom": experiments.CONSTRAINT_HEADROOM,
    }


@functools.lru_cache(maxsize=256)
def _derived_constraint_ms(device: str, detector: str, dataset: str) -> float:
    """Memoised :func:`~repro.analysis.experiments.default_latency_constraint`.

    Deriving the constraint rebuilds the device/detector/dataset models; a
    large sweep keys hundreds of jobs over a handful of distinct triples,
    so the derivation is cached per process.  (The headroom constant the
    derivation uses is part of :func:`config_fingerprint`, which is *not*
    cached, so a configuration change still produces new keys.)
    """
    from repro.analysis.experiments import default_latency_constraint

    return default_latency_constraint(device, detector, dataset)


def resolved_setting_dict(setting: Any) -> Dict[str, Any]:
    """The setting as a plain dict with the latency constraint resolved.

    A ``None`` constraint is replaced by the value
    :func:`~repro.analysis.experiments.default_latency_constraint` derives,
    so a job that spells the derived constraint out explicitly maps to the
    same cache entry as one that leaves it implicit.
    """
    payload = dataclasses.asdict(setting)
    if payload.get("latency_constraint_ms") is None:
        payload["latency_constraint_ms"] = _derived_constraint_ms(
            setting.device, setting.detector, setting.dataset
        )
    return payload


def job_key(job: ExperimentJob) -> Optional[str]:
    """SHA-256 key of a job, or ``None`` when the job cannot be cached."""
    try:
        ambient = ambient_fingerprint(job.ambient)
    except TypeError:
        return None
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "setting": resolved_setting_dict(job.setting),
        "method": job.method,
        "ambient": ambient,
        "domain_datasets": list(job.domain_datasets) if job.domain_datasets else None,
        "config": config_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""Per-layer host-time tracing, installed from outside the program.

The traced run wraps the public calls into each simulator layer with a
timing shim and removes every shim afterwards; the untraced run never sees
them.  Each shim records *self time*: its own duration minus the time spent
in shims nested inside it, so the layer times of one process add up to the
time spent inside the outermost shims without double counting.  Calls into
a layer that is already on top of the stack (a policy adapter calling the
scalar policy it wraps, a ``super()`` chain) pass straight through, so a
layer's call count is the number of entries into it.

Layer names follow the ``repro`` modules: ``workload``, ``detection``,
``hardware``, ``governors``, ``policy`` (``core`` agents and the fleet
policy adapters), ``core.results`` (per-session summaries), ``rl``, ``env``,
``trace`` (in-memory sink), ``store``, ``runtime`` and ``faults``.

Pool workers are forked from the traced parent, so they inherit the shims.
A worker accumulates into its own copy of the tracer and, when a task
finishes, ships the totals back as ``repro.obs`` counters, which the pool
already merges into the parent's registry.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

# (module, class or None for a module-level function, attribute, layer key).
_TARGETS: Tuple[Tuple[str, str | None, str, str], ...] = (
    # workload
    ("repro.workload.fleet", "FleetFrameStream", "next_frames", "workload"),
    ("repro.workload.generator", "FrameStream", "next_frame", "workload"),
    ("repro.workload.generator", "DomainSwitchStream", "next_frame", "workload"),
    # detection: stage costs and proposals (fleet helpers are called through
    # the names ``repro.env.fleet`` imported)
    ("repro.env.fleet", None, "stage1_cost_arrays", "detection.cost"),
    ("repro.env.fleet", None, "stage2_cost_arrays", "detection.cost"),
    ("repro.detection.fleet", "BatchedExecutionModel", "execute", "detection.cost"),
    ("repro.detection.detector", "DetectorModel", "stage1_cost", "detection.cost"),
    ("repro.detection.detector", "DetectorModel", "stage2_cost", "detection.cost"),
    ("repro.detection.latency", "ExecutionModel", "execute", "detection.cost"),
    ("repro.env.fleet", None, "propose_batch", "detection.propose"),
    ("repro.detection.detector", "DetectorModel", "propose", "detection.propose"),
    # hardware
    ("repro.hardware.fleet", "DeviceFleet", "execute", "hardware"),
    ("repro.hardware.fleet", "DeviceFleet", "idle", "hardware"),
    ("repro.hardware.fleet", "DeviceFleet", "set_ambient", "hardware"),
    ("repro.hardware.fleet", "DeviceFleet", "request_levels", "hardware"),
    ("repro.hardware.device", "EdgeDevice", "execute", "hardware"),
    ("repro.hardware.device", "EdgeDevice", "idle", "hardware"),
    ("repro.hardware.device", "EdgeDevice", "set_ambient", "hardware"),
    ("repro.hardware.device", "EdgeDevice", "request_levels", "hardware"),
    # rl
    ("repro.rl.dqn", "DqnLearner", "train_batch", "rl.train_batch"),
    ("repro.rl.dqn", "DqnLearner", "select_action", "rl.select_action"),
    # env: the frame protocol phases
    ("repro.env.fleet", "BatchedInferenceEnvironment", "begin_frame", "env"),
    ("repro.env.fleet", "BatchedInferenceEnvironment", "run_first_stage", "env"),
    ("repro.env.fleet", "BatchedInferenceEnvironment", "run_second_stage", "env"),
    ("repro.env.fleet", "BatchedInferenceEnvironment", "apply_decision", "env"),
    ("repro.env.environment", "InferenceEnvironment", "begin_frame", "env"),
    ("repro.env.environment", "InferenceEnvironment", "run_first_stage", "env"),
    ("repro.env.environment", "InferenceEnvironment", "run_second_stage", "env"),
    ("repro.env.environment", "InferenceEnvironment", "apply_levels", "env"),
    # trace sinks
    ("repro.env.fleet", "FleetTrace", "append", "trace.append"),
    ("repro.env.trace", "Trace", "append", "trace.append"),
    ("repro.store.columnar", "FleetTraceWriter", "append", "store"),
    ("repro.store.columnar", "FleetTraceWriter", "close", "store"),
    ("repro.store.columnar", "MappedFleetTrace", "column_window", "store"),
    ("repro.store.columnar", "MappedFleetTrace", "datasets_window", "store"),
    # per-session results: materialise each session's trace, summarise it
    # (the summary is called through the importers' names)
    ("repro.env.fleet", "FleetTrace", "session_trace", "core.results"),
    ("repro.core.training", None, "session_result_from_trace", "core.results"),
    ("repro.runtime.fleet", None, "session_result_from_trace", "core.results"),
    ("repro.runtime.shards", None, "session_result_from_trace", "core.results"),
    # runtime (client side; worker side arrives through repro.obs)
    ("repro.runtime.pool", "FleetWorkerPool", "run_tasks", "runtime.run_tasks"),
    ("repro.runtime.shards", None, "_interleave_shard_traces", "runtime.merge"),
    ("repro.runtime.shards", None, "_checkpoint_write", "runtime.checkpoint"),
)

# Policy protocol methods, wrapped on every class that defines them.
_POLICY_METHODS = ("begin_frame", "mid_frame", "end_frame")
_POLICY_MODULES = (
    "repro.env.fleet",
    "repro.env.policy",
    "repro.governors.fleet",
    "repro.governors.base",
    "repro.governors.static",
    "repro.core.agent",
    "repro.core.fleet",
    "repro.faults.inject",
    "repro.baselines.ztt",
    "repro.policies.frozen",
)


def _own(owner: object, name: str) -> object:
    """The attribute as defined on ``owner`` itself (a class or a module)."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def _policy_layer(cls: type) -> str:
    if cls.__name__ in ("FaultedFleetPolicy", "FaultedPolicy"):
        return "faults"
    if cls.__module__.startswith("repro.governors") and cls.__name__ != "SubFleetPolicies":
        return "governors"
    return "policy"


def _subclasses(root: type) -> List[type]:
    seen: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Self-time accumulators for one process, plus the installed shims.

    Shims only record while the tracer is active (inside :meth:`recording`
    in the parent, inside a task in a pool worker); at other times, such as
    an episode's untimed build and digest, they pass straight through.
    Besides the per-layer self times, the tracer keeps ``outer_ns``, the
    inclusive time of the outermost shim calls, measured separately: the
    self times must add up to it.
    """

    def __init__(self) -> None:
        self.active = False
        self.busy_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.outer_ns = 0
        self._stack: List[list] = []  # [key, child_ns] frames
        self._patched: List[Tuple[object, str, object]] = []
        self._policy_keys: Dict[type, str] = {}

    # -- accounting ------------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Record from a fresh start until the block is left."""
        self.busy_ns = {}
        self.calls = {}
        self.outer_ns = 0
        self._stack = []
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def totals(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """``(busy_ns, calls, outer_ns)`` recorded so far."""
        return dict(self.busy_ns), dict(self.calls), self.outer_ns

    def _timed(self, key: str, fn: Callable, args, kwargs):
        stack = self._stack
        if not self.active or (stack and stack[-1][0] == key):
            return fn(*args, **kwargs)
        frame = [key, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self.busy_ns[key] = self.busy_ns.get(key, 0) + elapsed - frame[1]
            self.calls[key] = self.calls.get(key, 0) + 1
            if stack:
                stack[-1][1] += elapsed
            else:
                self.outer_ns += elapsed

    # -- shims -----------------------------------------------------------------

    def _shim(self, fn: Callable, key: str) -> Callable:
        timed = self._timed

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return timed(key, fn, args, kwargs)

        return shim

    def _policy_shim(self, fn: Callable, method: str) -> Callable:
        timed = self._timed
        keys = self._policy_keys

        @functools.wraps(fn)
        def shim(self_, *args, **kwargs):
            cls = type(self_)
            key = keys.get(cls)
            if key is None:
                key = keys[cls] = _policy_layer(cls)
            return timed(f"{key}.{method}", fn, (self_,) + args, kwargs)

        return shim

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patched.append((owner, name, _own(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer entry point and the pool workers' task runner."""
        if self._patched:
            raise RuntimeError("tracer shims are already installed")
        for module_name, class_name, attr, key in _TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            self._patch(owner, attr, self._shim(_own(owner, attr), key))
        from repro.env.fleet import FleetPolicy
        from repro.env.policy import Policy

        for module_name in _POLICY_MODULES:
            importlib.import_module(module_name)
        for root in (FleetPolicy, Policy):
            for cls in _subclasses(root):
                for method in _POLICY_METHODS:
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    self._patch(cls, method, self._policy_shim(fn, method))
        self._install_worker_hook()

    def _install_worker_hook(self) -> None:
        """Reset per task in pool workers and ship the totals through obs."""
        from repro.obs import bus as obs
        from repro.runtime import pool

        execute = pool._execute_task
        tracer = self

        @functools.wraps(execute)
        def traced_execute(*args, **kwargs):
            with tracer.recording():
                start = time.perf_counter_ns()
                try:
                    return execute(*args, **kwargs)
                finally:
                    wall = time.perf_counter_ns() - start
                    obs.observe("perfbench.task_s", wall / 1e9)
                    obs.inc("perfbench.outer_s", tracer.outer_ns / 1e9)
                    for key, value in tracer.busy_ns.items():
                        obs.inc("perfbench.layer_s", value / 1e9, layer=key)
                    for key, value in tracer.calls.items():
                        obs.inc("perfbench.layer_calls", value, layer=key)

        self._patch(pool, "_execute_task", traced_execute)

    def restore(self) -> None:
        """Put back every original callable, newest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> List[Tuple[object, str, object]]:
        """(owner, name, original) of every installed shim, for leak checks."""
        return list(self._patched)

    @staticmethod
    def leaked(record: List[Tuple[object, str, object]]) -> List[str]:
        """Names from a :meth:`snapshot` whose attribute is not the original."""
        return [
            f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"
            for owner, name, original in record
            if _own(owner, name) is not original
        ]

"""Remote-agent deployment model.

:class:`RemotePolicy` wraps any :class:`~repro.env.policy.Policy` and routes
its observations and decisions through a :class:`SimulatedChannel`, exactly
like the paper's deployment where the agent runs on a workstation GPU and
the Jetson / phone is the client.  It measures both the channel time and the
policy's own compute time, producing the per-inference overhead breakdown of
§4.4.2 (Q-network ≈0.42 ms, 4 socket messages ≈1.92 ms each, ≈8.5 ms per
inference in total).

Over a :class:`~repro.comms.channel.LossyChannel` the wrapper runs a small
reliability protocol: every message is retransmitted with exponential
backoff until it is delivered (or the retry budget is exhausted), and the
receiver discards duplicate deliveries by sequence number.  Decisions are
computed locally and re-sent verbatim, so channel loss can delay a
decision but never lose one; the extra waiting shows up in the overhead
accounting instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.comms.channel import SimulatedChannel
from repro.comms.protocol import Message, MessageKind
from repro.env.environment import FrameStartObservation, MidFrameObservation
from repro.env.policy import FrequencyDecision, Policy
from repro.env.trace import FrameRecord
from repro.errors import ProtocolError
from repro.obs import bus as _obs

#: Default maximum retransmissions per message before giving up.
DEFAULT_MAX_RETRIES = 12
#: Default first-retry timeout (milliseconds); doubles on every retry.
DEFAULT_RETRY_TIMEOUT_MS = 5.0


@dataclass(frozen=True)
class OverheadReport:
    """Per-inference overhead breakdown of the remote deployment.

    Attributes:
        frames: Number of frames the report covers.
        agent_compute_ms_per_decision: Mean wall-clock time of one policy
            decision (the "Q-network latency" of §4.4.2).
        channel_ms_per_message: Mean per-message channel latency.
        messages_per_frame: Messages exchanged per frame (state up + action
            down, at each of the two decision points; retransmissions
            included).
        total_overhead_ms_per_frame: Mean total overhead added to one frame
            (retry backoff waits included).
        retries: Total retransmissions caused by channel loss.
        dropped_messages: Messages the channel lost in transit.
        duplicates_discarded: Deliveries discarded by sequence-number dedup.
        retry_wait_ms_per_frame: Mean per-frame time spent in backoff waits.
    """

    frames: int
    agent_compute_ms_per_decision: float
    channel_ms_per_message: float
    messages_per_frame: float
    total_overhead_ms_per_frame: float
    retries: int = 0
    dropped_messages: int = 0
    duplicates_discarded: int = 0
    retry_wait_ms_per_frame: float = 0.0


class RemotePolicy(Policy):
    """Wrap a policy behind a simulated client/agent socket link.

    Args:
        inner: The policy whose decisions are routed over the channel.
        channel: The link model (lossless by default; pass a
            :class:`~repro.comms.channel.LossyChannel` to exercise the
            retry protocol).
        max_retries: Retransmission budget per message; exceeding it raises
            :class:`~repro.errors.ProtocolError`.
        retry_timeout_ms: Simulated wait before the first retransmission;
            doubles on every further retry (exponential backoff).
    """

    def __init__(
        self,
        inner: Policy,
        channel: SimulatedChannel | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_timeout_ms: float = DEFAULT_RETRY_TIMEOUT_MS,
    ):
        if max_retries < 0:
            raise ProtocolError("max_retries must be non-negative")
        if retry_timeout_ms < 0:
            raise ProtocolError("retry_timeout_ms must be non-negative")
        self.inner = inner
        self.channel = channel if channel is not None else SimulatedChannel()
        self.max_retries = max_retries
        self.retry_timeout_ms = retry_timeout_ms
        self.name = f"remote({inner.name})"
        self._sequence = 0
        self._frames = 0
        self._decisions = 0
        self._agent_compute_ms = 0.0
        self._overhead_ms = 0.0
        self._retries = 0
        self._retry_wait_ms = 0.0
        self._duplicates_discarded = 0
        self._last_seen_sequence = 0

    # -- reliability protocol ------------------------------------------------------------

    def _receive(self, sequence: int, copies: int) -> None:
        """Receiver-side sequence-number dedup over ``copies`` deliveries."""
        for _ in range(copies):
            if sequence <= self._last_seen_sequence:
                self._duplicates_discarded += 1
                _obs.inc("comms.duplicates_discarded")
            else:
                self._last_seen_sequence = sequence

    def _send_reliable(self, message: Message) -> float:
        """Deliver ``message``, retrying with exponential backoff.

        Returns the total simulated latency of the exchange: every
        transmission attempt's link time plus the backoff waits between
        attempts.  Raises :class:`~repro.errors.ProtocolError` when the
        retry budget is exhausted.
        """
        latency_ms = 0.0
        for attempt in range(self.max_retries + 1):
            outcome = self.channel.attempt(message)
            latency_ms += outcome.latency_ms
            if outcome.delivered:
                self._receive(message.sequence, 1 + outcome.duplicates)
                return latency_ms
            self._retries += 1
            backoff_ms = self.retry_timeout_ms * (2.0**attempt)
            latency_ms += backoff_ms
            self._retry_wait_ms += backoff_ms
            if _obs.active():
                _obs.inc("comms.retries")
                _obs.inc("comms.drops")
                _obs.inc("comms.backoff_wait_ms", backoff_ms)
        raise ProtocolError(
            f"message {message.sequence} undeliverable after "
            f"{self.max_retries} retries"
        )

    # -- helpers ------------------------------------------------------------------------

    def _exchange(self, payload: dict, decision: FrequencyDecision | None) -> float:
        """Simulate the state-up / action-down exchange, returning its latency."""
        self._sequence += 1
        request = Message(kind=MessageKind.STATE, payload=payload, sequence=self._sequence)
        self._sequence += 1
        response_payload = (
            {"cpu_level": decision.cpu_level, "gpu_level": decision.gpu_level}
            if decision is not None
            else {"noop": True}
        )
        response = Message(
            kind=MessageKind.ACTION, payload=response_payload, sequence=self._sequence
        )
        return self._send_reliable(request) + self._send_reliable(response)

    def _observation_payload(self, observation) -> dict:
        return {
            "frame_index": observation.frame_index,
            "cpu_temperature_c": round(observation.cpu_temperature_c, 3),
            "gpu_temperature_c": round(observation.gpu_temperature_c, 3),
            "cpu_level": observation.cpu_level,
            "gpu_level": observation.gpu_level,
            "remaining_budget_ms": round(observation.remaining_budget_ms, 3),
            "num_proposals": getattr(observation, "num_proposals", None),
        }

    def _timed_decision(self, method, observation) -> FrequencyDecision | None:
        start = time.perf_counter()
        decision = method(observation)
        self._agent_compute_ms += (time.perf_counter() - start) * 1e3
        self._decisions += 1
        self._overhead_ms += self._exchange(self._observation_payload(observation), decision)
        return decision

    # -- policy protocol -----------------------------------------------------------------

    def reset(self) -> None:
        self.inner.reset()

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision | None:
        self._frames += 1
        return self._timed_decision(self.inner.begin_frame, observation)

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision | None:
        return self._timed_decision(self.inner.mid_frame, observation)

    def end_frame(self, result: FrameRecord) -> None:
        self.inner.end_frame(result)

    # -- reporting ------------------------------------------------------------------------

    def overhead_report(self) -> OverheadReport:
        """Summarise the measured per-inference overhead."""
        frames = max(self._frames, 1)
        decisions = max(self._decisions, 1)
        stats = self.channel.stats
        report = OverheadReport(
            frames=self._frames,
            agent_compute_ms_per_decision=self._agent_compute_ms / decisions,
            channel_ms_per_message=stats.mean_message_latency_ms,
            messages_per_frame=stats.messages_sent / frames,
            total_overhead_ms_per_frame=(self._agent_compute_ms + self._overhead_ms) / frames,
            retries=self._retries,
            dropped_messages=stats.dropped,
            duplicates_discarded=self._duplicates_discarded,
            retry_wait_ms_per_frame=self._retry_wait_ms / frames,
        )
        _obs.record_report("comms.overhead", report)
        return report

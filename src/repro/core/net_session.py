"""Event-driven attestation over the simulated Ethernet channel.

:func:`run_attestation` in ``repro.core.protocol`` accounts time with the
calibrated Table-3 action model.  :class:`NetworkAttestationSession`
instead runs the protocol *through the network substrate*: every command
and response is a real Ethernet frame crossing a :class:`Channel` with
serialization and latency, and adversary taps on the channel see (and
may rewrite) every frame — the path the man-in-the-middle attacks use.
Both drive the same verifier engine,
:class:`~repro.core.protocol.AttestationRun`: the session builds one per
attempt, sends its schedule, feeds it every decoded response and keeps
only the transport — ports, ARQ, retries and telemetry.

The readback batch size is the session's only shape decision:

* **batch 1**: every ``ICAP_config`` goes out in its own send, then one
  ``ICAP_readback`` is outstanding at a time; the next leaves when the
  run accepts its response and the checksum command follows the last;
* **batch above 1** (the default): configuration and readback commands
  are batched to the MTU (``repro.net.batch``) and the whole schedule
  leaves in one burst ahead of the responses, the sliding-window ARQ
  keeps several payloads in flight, and the prover answers each config
  batch with one cumulative :class:`~repro.net.messages.ConfigAck`.

Streaming needs in-order delivery, not reliability: the raw channel
delivers each frame after its own serialization delay, so a burst of
mixed-size frames arrives out of order (a small checksum command
overtakes a large readback batch).  Over ARQ (``reliable=True``) the
sliding window restores order.  On a raw channel the session interposes
a :class:`~repro.net.resequencer.ResequencerLink` — a bounded
reorder/dedup buffer with no retransmission — whenever the batch is
above 1 or the channel can drop, corrupt, duplicate or reorder a frame.
A lost frame then leaves a permanent gap that drains the simulation and
fails the attempt toward ``inconclusive``; without the buffer a lost
``ICAP_config`` would go unnoticed and the readback of the misconfigured
frame would end in a false reject.  A raw batch-1 session on a
fault-free channel keeps the original headerless wire format.

The session degrades gracefully instead of raising out of the event
loop.  Undecodable frames (bit corruption or truncation from the fault
model) are dropped and counted; responses the run refuses (duplicated,
late, off the plan) are counted and ignored; a drained simulation or an
ARQ link giving up fails *the attempt*, and the session retries the
whole protocol — fresh nonce, full reconfiguration, new ARQ state — up
to ``max_attempts`` times before returning an
:class:`~repro.core.report.AttestationReport` whose verdict is
``inconclusive`` with a structured
:class:`~repro.core.report.FailureReason`.  A caller therefore always
gets a verdict: ``accept``, ``reject``, or ``inconclusive``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, List, Optional, cast

from repro.errors import NetworkError, ProtocolError
from repro.core.protocol import AttestationRun
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, FailureReason
from repro.core.verifier import SachaVerifier
from repro.net.arq import ArqTuning
from repro.net.batch import pack_config_commands
from repro.net.channel import Channel, Endpoint
from repro.net.ethernet import ETHERTYPE_SACHA, EthernetFrame, MacAddress
from repro.net.messages import (
    Command,
    ConfigAck,
    IcapConfigBatchCommand,
    IcapConfigCommand,
    IcapReadbackBatchCommand,
    IcapReadbackCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    TraceHelloCommand,
    decode_command,
    decode_response,
)
from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry, get_registry, use_context_registry
from repro.obs.spans import span
from repro.obs.trace import trace_context, trace_id_from_nonce
from repro.perf import get_config
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)

VERIFIER_MAC = MacAddress.from_string("02:00:00:00:00:01")
PROVER_MAC = MacAddress.from_string("02:00:00:00:00:02")


#: Span names for prover-side command handling, by command kind.  Kinds
#: that implement the same protocol phase share a name so phase
#: breakdowns aggregate naturally.
_PROVER_SPAN_NAMES = {
    IcapConfigCommand: "prover_config",
    IcapConfigBatchCommand: "prover_config",
    IcapReadbackCommand: "prover_readback",
    IcapReadbackBatchCommand: "prover_readback",
    IcapReadbackMaskedCommand: "prover_readback",
    MacChecksumCommand: "prover_checksum",
}


@dataclass
class NetworkRunResult:
    report: AttestationReport
    duration_ns: float
    frames_sent_by_verifier: int
    frames_sent_by_prover: int
    attempts: int = 1


class NetworkAttestationSession:
    """One attestation run as network traffic on a channel."""

    def __init__(
        self,
        simulator: Simulator,
        channel: Channel,
        prover: SachaProver,
        verifier: SachaVerifier,
        rng: Optional[DeterministicRng] = None,
        reliable: bool = False,
        arq_tuning: Optional[ArqTuning] = None,
        arq_max_retries: int = 25,
        max_attempts: int = 1,
        readback_batch_frames: Optional[int] = None,
        prover_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_attempts < 1:
            raise ProtocolError(
                f"session needs at least one attempt, got {max_attempts}"
            )
        self._simulator = simulator
        self._channel = channel
        self._prover = prover
        self._verifier = verifier
        self._rng = rng or DeterministicRng(0)
        self._reliable = reliable
        self._arq_max_retries = arq_max_retries
        self._max_attempts = max_attempts
        # Optional separate registry for prover-side telemetry.  With the
        # in-process prover both parties would otherwise share one span
        # store; a dedicated registry yields the genuinely multi-party
        # dumps the trace stitcher is built for.  None -> the active one.
        self._prover_registry = prover_registry
        config = get_config()
        # Without a tuning the perf config supplies the window and the AIMD
        # switch (REPRO_ARQ_WINDOW / REPRO_ARQ_ADAPTIVE and their flags).
        if arq_tuning is None:
            arq_tuning = ArqTuning(
                window=config.arq_window, adaptive=config.arq_adaptive
            )
        self._arq_tuning = arq_tuning
        if readback_batch_frames is not None:
            if readback_batch_frames < 1:
                raise ProtocolError(
                    f"readback batch must be >= 1, got {readback_batch_frames}"
                )
            self._batch_frames = readback_batch_frames
        else:
            self._batch_frames = config.readback_batch_frames

        self.verifier_endpoint = Endpoint("vrf", VERIFIER_MAC)
        self.prover_endpoint = Endpoint("prv", PROVER_MAC)
        channel.connect(self.verifier_endpoint, self.prover_endpoint)
        self._verifier_port = self.verifier_endpoint
        self._prover_port = self.prover_endpoint
        self._install_ports()

        self._run: Optional[AttestationRun] = None
        self._nonce = b""
        self._schedule: Iterator[Command] = iter(())
        self._start_ns = 0.0
        self._end_ns = 0.0
        self._trace_id = ""
        self._prover_trace_id: Optional[str] = None
        self._link_failure: Optional[NetworkError] = None
        self.undecodable_frames = 0
        self.unexpected_frames = 0
        self.total_retransmissions = 0

    @property
    def tag(self) -> Optional[bytes]:
        """The prover's MAC tag from the last run.

        ``None`` until a checksum response arrived — callers comparing
        transport shapes for byte-identity (benchmarks, the fleet
        controller's history rows) read it here instead of re-deriving
        it from the report.
        """
        return self._run.tag if self._run is not None else None

    # -- transport plumbing --------------------------------------------------------

    @property
    def _resequenced(self) -> bool:
        """Whether a raw channel gets the reorder/dedup buffer.

        A raw batched burst needs in-order delivery.  A raw channel that
        can lose, corrupt, duplicate or reorder frames needs exactly-once
        delivery with gap detection: a duplicated or reordered readback
        would desynchronize the incremental MAC, and a lost configuration
        frame would misconfigure the device — both false rejects, where
        the buffer's permanent gap fails the attempt toward inconclusive
        instead.  A raw batch-1 session on a fault-free channel keeps the
        original headerless wire format.
        """
        if self._reliable:
            return False
        model = self._channel.fault_model
        return (
            self._batch_frames > 1
            or self._channel.loss_probability > 0
            or (model is not None and model.profile.is_active)
        )

    def _install_ports(self) -> None:
        """(Re)create the transport for one attempt.

        In reliable mode every attempt gets fresh ARQ links on both
        endpoints: sequence numbers and RTT estimators restart together,
        so a retry is indistinguishable from a brand-new session to the
        peer.  Resequenced raw mode likewise gets fresh
        :class:`ResequencerLink` pairs so sequence numbers restart.
        """
        if self._reliable:
            from repro.net.arq import ArqLink

            self._verifier_port = ArqLink(
                self._simulator,
                self.verifier_endpoint,
                PROVER_MAC,
                max_retries=self._arq_max_retries,
                tuning=self._arq_tuning,
                rng=self._rng.fork("arq-vrf"),
                on_give_up=self._on_link_failure,
            )
            self._prover_port = ArqLink(
                self._simulator,
                self.prover_endpoint,
                VERIFIER_MAC,
                max_retries=self._arq_max_retries,
                tuning=self._arq_tuning,
                rng=self._rng.fork("arq-prv"),
                on_give_up=self._on_link_failure,
            )
        elif self._resequenced:
            from repro.net.resequencer import ResequencerLink

            self._verifier_port = ResequencerLink(
                self.verifier_endpoint, PROVER_MAC
            )
            self._prover_port = ResequencerLink(
                self.prover_endpoint, VERIFIER_MAC
            )
        else:
            self._verifier_port = self.verifier_endpoint
            self._prover_port = self.prover_endpoint
        self._verifier_port.handler = self._on_verifier_delivery
        self._prover_port.handler = self._on_prover_delivery

    def _on_link_failure(self, error: NetworkError) -> None:
        """Terminal ARQ give-up: record it and let the simulation drain."""
        if self._link_failure is None:
            self._link_failure = error
        stage = self._run.stage if self._run is not None else "idle"
        _log.warning("session_link_failure", phase=stage, error=str(error))

    def _count(self, name: str, help_text: str, **labels: str) -> None:
        registry = get_registry()
        if registry.enabled:
            label_names = tuple(sorted(labels))
            registry.counter(name, help_text, labels=label_names).inc(**labels)

    def _drop_undecodable(self, side: str) -> None:
        """Count a frame dropped because it failed to decode."""
        self.undecodable_frames += 1
        self._count(
            "sacha_session_undecodable_frames_total",
            "Frames the session dropped because they failed to decode",
            side=side,
        )

    def _ignore_unexpected(self) -> None:
        """Count a response the attempt's run refused: out of phase, a
        duplicate, off the plan cursor, or a kind it never expects."""
        self.unexpected_frames += 1
        self._count(
            "sacha_session_unexpected_frames_total",
            "Out-of-phase or duplicate responses the session ignored",
            side="verifier",
        )

    # -- verifier side -----------------------------------------------------------

    def run(self) -> NetworkRunResult:
        """Drive a full attestation and return the verdict.

        Never raises for link-level failures: after ``max_attempts``
        failed attempts the result carries an ``inconclusive`` report.
        """
        if self._run is not None:
            raise ProtocolError("session already ran")
        self._start_ns = self._simulator.now_ns
        registry = get_registry()
        clock = lambda: self._simulator.now_ns  # noqa: E731

        attempts = 0
        failure: Optional[FailureReason] = None
        with span("net_session", clock=clock, reliable=self._reliable):
            while attempts < self._max_attempts:
                attempts += 1
                if attempts > 1:
                    self._count(
                        "sacha_session_retries_total",
                        "Session-level attestation re-runs after link failure",
                    )
                    _log.info(
                        "session_retry",
                        attempt=attempts,
                        max_attempts=self._max_attempts,
                    )
                # The nonce is drawn before the attempt span opens so the
                # span (and the prover's, via the TraceHello handshake)
                # can carry the nonce-derived trace id.
                self._nonce = self._verifier.new_nonce()
                self._trace_id = trace_id_from_nonce(self._nonce)
                with trace_context(self._trace_id, "verifier"):
                    with span("session_attempt", clock=clock, attempt=attempts):
                        failure = self._run_attempt()
                if failure is None:
                    break
        if registry.enabled:
            registry.counter(
                "sacha_session_attempts_total",
                "Protocol attempts started by networked sessions",
            ).inc(attempts)

        run = cast(AttestationRun, self._run)
        if failure is not None:
            self._end_ns = self._simulator.now_ns
            report = AttestationReport.make_inconclusive(
                replace(failure, attempts=attempts), self._nonce
            )
        else:
            report = run.report()
            report.nonce = self._nonce
        report.config_steps = len(run.config_commands)
        self._count(
            "sacha_session_outcomes_total",
            "Networked session results, by verdict",
            verdict=report.verdict.value,
        )
        return NetworkRunResult(
            report=report,
            duration_ns=self._end_ns - self._start_ns,
            frames_sent_by_verifier=self.verifier_endpoint.frames_sent,
            frames_sent_by_prover=self.prover_endpoint.frames_sent,
            attempts=attempts,
        )

    def _run_attempt(self) -> Optional[FailureReason]:
        """One full protocol pass; None on success, the failure otherwise."""
        # Fresh per-attempt state: a new run and a new transport.
        self._link_failure = None
        self._prover_trace_id = None
        # Abort under the prover's registry: the abandoned attempt's
        # pending command counts must land in the same shard that the
        # delivery path used, not the verifier's ambient registry.
        with use_context_registry(self._prover_registry or get_registry()):
            self._prover.abort_run()
        self._install_ports()
        run = self._run = AttestationRun(
            self._verifier, self._nonce, self._batch_frames
        )
        self._send_schedule(run)

        self._simulator.run()
        self._harvest_retransmissions()
        if self._link_failure is not None:
            return FailureReason(
                stage=run.stage,
                kind="link_down",
                detail=str(self._link_failure),
            )
        if run.stage != "done":
            return FailureReason(
                stage=run.stage,
                kind="drained",
                detail="simulation drained before the checksum exchange; "
                "a message was lost",
            )
        config_steps = len(run.config_commands)
        if self._batch_frames > 1 and run.config_acked < config_steps:
            # The tag arrived but the cumulative ConfigAcks do not cover
            # the configuration: on a transport without retransmission a
            # config frame may be gone, and a MAC over a misconfigured
            # device must fail toward inconclusive, not a false reject.
            return FailureReason(
                stage="config",
                kind="config_unacked",
                detail=f"cumulative ConfigAcks cover {run.config_acked} of "
                f"{config_steps} configuration frames",
            )
        return None

    def _send_schedule(self, run: AttestationRun) -> None:
        """Send the attempt's command schedule, shaped by the batch size.

        At batch 1 each configuration command goes out in its own send
        and the readbacks drip one per accepted response (see
        :meth:`_on_verifier_delivery`).  Above 1 the whole schedule — the
        telemetry hello, config batches, readback batches, checksum —
        leaves in one burst: the ARQ layer sees the burst's tail, so a
        window's worth of commands costs one cumulative ACK, and in-order
        delivery (ARQ or the resequencer) keeps the prover's view ordered.
        """
        registry = get_registry()
        hello = []
        if registry.enabled and self._trace_id:
            hello.append(TraceHelloCommand(bytes.fromhex(self._trace_id)).encode())
        if self._batch_frames == 1:
            self._schedule = chain(run.readbacks, [MacChecksumCommand()])
            if hello:
                self._send_to_prover(*hello)
            for command in run.config_commands:
                self._send_to_prover(command.encode())
            self._send_to_prover(next(self._schedule).encode())
            return

        config_batches = pack_config_commands(run.config_commands)
        # Above batch 1 every readback command is a batch.
        readback_batches = cast(List[IcapReadbackBatchCommand], list(run.readbacks))
        self._send_to_prover(
            *hello,
            *(batch.encode() for batch in config_batches),
            *(batch.encode() for batch in readback_batches),
            MacChecksumCommand().encode(),
        )
        if registry.enabled:
            counter = registry.counter(
                "sacha_net_batch_frames_total",
                "Frames moved through batched commands, by kind",
                labels=("kind",),
            )
            counter.inc(
                sum(len(b.frame_indices) for b in config_batches), kind="config"
            )
            counter.inc(len(run.plan), kind="readback")
            registry.histogram(
                "sacha_net_batch_size_frames",
                "Frames per batched readback command",
                buckets=(1, 4, 16, 64, 256, 1024, 4096),
            ).observe(
                float(max((len(b.frame_indices) for b in readback_batches), default=0))
            )

    def _harvest_retransmissions(self) -> None:
        for port in (self._verifier_port, self._prover_port):
            self.total_retransmissions += getattr(port, "retransmissions", 0)

    def _on_verifier_delivery(self, frame: EthernetFrame) -> None:
        try:
            response = decode_response(frame.payload)
        except NetworkError:
            # Corrupted in flight on a raw (non-ARQ) channel: drop it and
            # let the drained-simulation path fail the attempt.
            self._drop_undecodable("verifier")
            return
        run = self._run
        if run is None or not run.receive(response):
            self._ignore_unexpected()
        elif isinstance(response, MacChecksumResponse):
            self._end_ns = self._simulator.now_ns
        elif self._batch_frames == 1 and not isinstance(response, ConfigAck):
            # Lockstep: the next readback (or the checksum) leaves now.
            self._send_to_prover(next(self._schedule).encode())

    def _send(
        self,
        port: Endpoint,
        destination: MacAddress,
        source: MacAddress,
        payloads: Iterable[bytes],
    ) -> None:
        """Frame ``payloads`` and hand them to ``port`` as one burst.

        One call per burst lets an ARQ port see the burst's tail (one
        cumulative ACK per window); a link that has given up fails the
        attempt instead of raising out of the event loop.
        """
        if self._link_failure is not None:
            return
        try:
            port.send_many(
                EthernetFrame(
                    destination=destination,
                    source=source,
                    ethertype=ETHERTYPE_SACHA,
                    payload=payload,
                )
                for payload in payloads
            )
        except NetworkError as error:
            self._on_link_failure(error)

    def _send_to_prover(self, *payloads: bytes) -> None:
        self._send(self._verifier_port, PROVER_MAC, VERIFIER_MAC, payloads)

    def _send_to_verifier(self, *payloads: bytes) -> None:
        self._send(self._prover_port, VERIFIER_MAC, PROVER_MAC, payloads)

    # -- prover side ---------------------------------------------------------------

    def _scramble_after_app_config(self) -> None:
        """A configured application starts running: declare/refresh its
        storage elements once the last application frame arrives."""
        self._verifier.system.app_impl.declare_registers(
            self._prover.board.fpga.registers
        )
        self._prover.board.fpga.registers.scramble(
            self._rng.fork("net-app-activity")
        )

    def _on_prover_delivery(self, frame: EthernetFrame) -> None:
        try:
            command = decode_command(frame.payload)
        except NetworkError:
            self._drop_undecodable("prover")
            return
        target = self._prover_registry or get_registry()
        if isinstance(command, TraceHelloCommand):
            self._prover_trace_id = command.trace_id.hex()
            with use_context_registry(target):
                self._prover.handle_command(command)
            return
        if not target.enabled:
            self._handle_prover_command(command)
            return
        # Prover-side telemetry: commands handled under the prover's own
        # registry (which may be a separate shard), tagged with the trace
        # id announced by the hello and rooted per exchange — roots
        # because the verifier's spans live in another context/registry;
        # the offline stitcher re-parents them under the attempt span.
        name = _PROVER_SPAN_NAMES.get(type(command), "prover_command")
        with use_context_registry(target), trace_context(
            self._prover_trace_id or "", self._prover.device_id
        ):
            with span(
                name,
                clock=lambda: self._simulator.now_ns,
                registry=target,
                root=True,
                kind=type(command).__name__,
            ):
                self._handle_prover_command(command)

    def _handle_prover_command(self, command: Command) -> None:
        result = self._prover.handle_command(command)
        if isinstance(command, (IcapConfigCommand, IcapConfigBatchCommand)):
            app_frames = self._verifier.system.app_impl.region_frames
            if app_frames and app_frames[-1] in command.frame_indices:
                self._scramble_after_app_config()
        if result is None:
            return
        if isinstance(result, ConfigAck) and self._link_failure is None:
            self._count(
                "sacha_config_acks_total",
                "Cumulative ConfigAcks sent by provers",
            )
        replies = result if isinstance(result, list) else [result]
        self._send_to_verifier(*(reply.encode() for reply in replies))

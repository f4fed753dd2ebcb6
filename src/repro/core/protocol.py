"""The SACHa attestation protocol (Figures 8 and 9).

:func:`run_attestation` drives one complete run between a prover and a
verifier: the two-step dynamic configuration (application, then nonce),
the full-configuration readback in the verifier's order with incremental
MAC computation, the final checksum exchange, and the verifier's two
comparisons.  Timing is accumulated from the Table-3 action model plus a
network model, so a run on the XC6VLX240T reports the paper's 1.443 s /
28.5 s durations while moving every real byte through the real MAC.

The verifier's side is :class:`AttestationRun`, a sans-IO engine that
:func:`run_attestation` drives in memory and
:class:`~repro.core.net_session.NetworkAttestationSession` over the
simulated Ethernet.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Union

from repro.crypto.cmac import AesCmac
from repro.errors import ProtocolError
from repro.core.prover import SachaProver
from repro.core.report import AttestationReport, TimingBreakdown
from repro.core.verifier import SachaVerifier
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.net.batch import (
    BATCH_RESPONSE_HEADER_BYTES,
    pack_readback_plan,
    reassemble_readback,
)
from repro.net.ethernet import FRAME_OVERHEAD_BYTES
from repro.net.messages import (
    ConfigAck,
    IcapReadbackBatchCommand,
    IcapReadbackCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    MaskedReadbackAck,
    ReadbackBatchResponse,
    ReadbackResponse,
)
from repro.net.phy import GigabitPhy
from repro.sim.tracing import TraceRecorder
from repro.timing.model import ActionCounts, ActionTimingModel, ProtocolAction
from repro.timing.network import IDEAL_NETWORK, NetworkModel
from repro.utils.rng import DeterministicRng

_log = obs_log.get_logger(__name__)


@dataclass
class SessionOptions:
    """Knobs of one protocol run."""

    network: NetworkModel = IDEAL_NETWORK
    record_trace: bool = False
    #: Simulate the application (and static logic) running between the
    #: configuration and readback phases: live registers take arbitrary
    #: values, which the mask must absorb.
    scramble_registers: bool = True
    #: Section-6.1 alternative: send the Msk to the prover with each
    #: readback; the prover masks before MACing and returns no frame
    #: content.  Similar communication latency, no tamper localization.
    mask_at_prover: bool = False
    #: Frames per ``ICAP_readback_batch`` command/response round trip
    #: (the optimization the E7 ablation motivates), capped at one MTU
    #: payload of indices.  1 = the paper's one-frame-per-packet
    #: protocol.  Must be >= 1; incompatible with mask_at_prover.
    readback_batch_frames: int = 1
    #: Emit one observability span per readback step (28k+ spans on a
    #: full XC6VLX240T run — phase spans alone are the default).  Only
    #: takes effect while the active metrics registry is enabled.
    span_frames: bool = False


@dataclass
class SessionResult:
    """The run's artifacts beyond the report (for attacks and tests)."""

    report: AttestationReport
    nonce: bytes = b""
    plan: List[int] = field(default_factory=list)
    responses: List[ReadbackResponse] = field(default_factory=list)
    tag: bytes = b""


ReadbackCommand = Union[
    IcapReadbackCommand, IcapReadbackMaskedCommand, IcapReadbackBatchCommand
]

#: Trace label of each readback command kind (its wire opcode name).
_READBACK_KINDS = {
    IcapReadbackCommand: "ICAP_readback",
    IcapReadbackMaskedCommand: "ICAP_readback_masked",
    IcapReadbackBatchCommand: "ICAP_readback_batch",
}


def readback_schedule(
    verifier: SachaVerifier,
    plan: Sequence[int],
    batch_frames: int = 1,
    mask_at_prover: bool = False,
) -> Iterator[ReadbackCommand]:
    """The readback commands covering ``plan``, in plan order.

    The one place that decides how a plan becomes commands, for the
    in-memory run and the networked session alike: the Section-6.1
    ``ICAP_readback(frame, Msk)`` per frame under prover-side masking,
    the paper's per-frame ``ICAP_readback`` for a batch of 1, and
    MTU-capped ``ICAP_readback_batch`` commands otherwise.  Commands
    are built lazily, so a full-device plan is never held as 28k
    command objects.
    """
    if batch_frames < 1:
        raise ProtocolError(f"readback batch must be >= 1, got {batch_frames}")
    if mask_at_prover:
        if batch_frames > 1:
            raise ProtocolError(
                "readback batching is incompatible with prover-side masking"
            )
        mask = verifier.system.combined_mask()
        return (
            IcapReadbackMaskedCommand(
                frame_index=frame_index, mask=mask.frame_mask(frame_index)
            )
            for frame_index in plan
        )
    if batch_frames == 1:
        return (IcapReadbackCommand(frame_index) for frame_index in plan)
    return iter(pack_readback_plan(plan, batch_frames))


class AttestationRun:
    """The verifier's side of one protocol attempt; it does no I/O.

    Each caller builds one run per attempt, moves ``config_commands``, the
    ``readbacks`` schedule and a ``MAC_checksum`` to the prover over its
    own transport, and feeds every prover response to :meth:`receive` —
    the one place that decides what the verifier accepts next:

    * a cumulative :class:`~repro.net.messages.ConfigAck`, at any time;
    * the next contiguous whole-frame slice of the plan: a
      ``ReadbackBatchResponse`` at the cursor, or a per-frame
      ``ReadbackResponse`` echoing the frame the plan expects there (a
      ``MaskedReadbackAck`` instead, under prover-side masking);
    * the MAC tag, once the sweep is complete and only once — a tag over
      missing data must fail toward inconclusive, not a false reject.

    Anything else is refused and leaves the state unchanged.  Accepted
    bytes fill one buffer and fold into one streamed H_Vrf
    (``verifier.mac_stream()``; the signature extension has none and
    verifies from :meth:`responses`).
    """

    # Expected-MAC folds are batched to this many buffered response bytes
    # (CMAC chunking-invariance makes the tag independent of the split).
    _MAC_FOLD_CHUNK_BYTES = 1 << 20

    def __init__(
        self,
        verifier: SachaVerifier,
        nonce: bytes,
        batch_frames: int = 1,
        mask_at_prover: bool = False,
    ) -> None:
        self.verifier = verifier
        self.nonce = nonce
        self.mask_at_prover = mask_at_prover
        self.config_commands = verifier.config_commands(nonce)
        self.plan = verifier.readback_plan()
        self.readbacks = readback_schedule(
            verifier, self.plan, batch_frames, mask_at_prover
        )
        self.config_acked = 0
        self.tag: Optional[bytes] = None
        self._frame_bytes = verifier.system.device.frame_bytes
        self._cursor = 0
        self._buffers: List[bytes] = []
        self._mac_stream = None if mask_at_prover else verifier.mac_stream()
        self._folded = 0
        self._unfolded_bytes = 0
        # Per-frame responses as received, while every piece was one.
        self._received: List[ReadbackResponse] = []

    @property
    def stage(self) -> str:
        """``readback``, then ``checksum`` (sweep complete), then ``done``."""
        if self.tag is not None:
            return "done"
        return "readback" if self._cursor < len(self.plan) else "checksum"

    def receive(self, response: object) -> bool:
        """Take one prover response; ``False`` if it was refused."""
        if isinstance(response, ConfigAck):
            self.config_acked = max(self.config_acked, response.frames_applied)
            return True
        if isinstance(response, ReadbackBatchResponse):
            return self._accept(response.base_slot, response.frame_count, response.data)
        if isinstance(response, ReadbackResponse):
            in_sync = len(self._received) == self._cursor
            if not (
                self._at_cursor(response.frame_index)
                and self._accept(self._cursor, 1, response.data)
            ):
                return False
            if in_sync:
                self._received.append(response)
            return True
        if isinstance(response, MaskedReadbackAck):
            if not (self.mask_at_prover and self._at_cursor(response.frame_index)):
                return False
            self._cursor += 1
            return True
        if isinstance(response, MacChecksumResponse) and self.stage == "checksum":
            self.tag = response.tag
            return True
        return False

    def _at_cursor(self, frame_index: int) -> bool:
        return (
            self._cursor < len(self.plan) and self.plan[self._cursor] == frame_index
        )

    def _accept(self, base_slot: int, frame_count: int, data: bytes) -> bool:
        """Append the next contiguous, whole-frame slice of the sweep."""
        if (
            self.mask_at_prover
            or base_slot != self._cursor
            or frame_count < 1
            or self._cursor + frame_count > len(self.plan)
            or len(data) != frame_count * self._frame_bytes
        ):
            return False
        self._buffers.append(data)
        self._cursor += frame_count
        stream = self._mac_stream
        if stream is not None:
            # Fold in coarse chunks: each fold call has fixed setup cost,
            # so folding per ~MiB instead of per fragment keeps the
            # stream incremental at a fraction of the calls.
            self._unfolded_bytes += len(data)
            if self._unfolded_bytes >= self._MAC_FOLD_CHUNK_BYTES:
                self._fold(stream)
        return True

    def _fold(self, stream: AesCmac) -> None:
        stream.update_frames(self._buffers[self._folded :])
        self._folded = len(self._buffers)
        self._unfolded_bytes = 0

    def responses(self) -> List[ReadbackResponse]:
        """The accepted sweep as per-frame responses, in plan order."""
        if self.mask_at_prover or len(self._received) == self._cursor:
            return list(self._received)
        return reassemble_readback(
            self.plan[: self._cursor], b"".join(self._buffers), self._frame_bytes
        )

    def report(self) -> AttestationReport:
        """The verifier's two comparisons over what the run accepted."""
        tag = self.tag or b""
        if self.mask_at_prover:
            return self.verifier.evaluate_masked(self.nonce, self.plan, tag)
        expected_tag = None
        stream = self._mac_stream
        if stream is not None:
            self._fold(stream)
            expected_tag = stream.finalize()
        return self.verifier.evaluate(
            self.nonce, self.plan, self.responses(), tag, expected_tag=expected_tag
        )


def _receive_reply(run: AttestationRun, reply: object, kind: str) -> None:
    """Feed a reply to ``run``.  Memory cannot lose or reorder a frame, so
    a refused reply is the prover's fault."""
    replies = reply if isinstance(reply, list) else [reply]
    for response in replies:
        if not run.receive(response):
            raise ProtocolError(
                f"prover returned {type(response).__name__} to {kind}"
            )


def run_attestation(
    prover: SachaProver,
    verifier: SachaVerifier,
    rng: Optional[DeterministicRng] = None,
    options: Optional[SessionOptions] = None,
) -> SessionResult:
    """Execute one full SACHa attestation."""
    rng = rng or DeterministicRng(0)
    options = options if options is not None else SessionOptions()
    trace = TraceRecorder(enabled=options.record_trace)
    model = ActionTimingModel(verifier.system.device)
    device = verifier.system.device
    elapsed = 0.0
    # Table-3 action costs, computed once.  Steps add them to the sim
    # clock one action at a time, so the float sums are reproducible.
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = map(model.action_ns, ProtocolAction)

    registry = get_registry()
    obs_on = registry.enabled
    clock = lambda: elapsed  # noqa: E731 — spans read the sim clock live
    if obs_on:
        attestations = registry.counter(
            "sacha_attestations_total",
            "Completed attestation runs by verdict",
            labels=("result",),
        )
        frames_configured = registry.counter(
            "sacha_frames_configured_total",
            "Frames written during dynamic configuration phases",
        )
        frames_readback = registry.counter(
            "sacha_frames_readback_total",
            "Configuration frames read back from provers",
        )
        mac_updates = registry.counter(
            "sacha_mac_updates_total",
            "Incremental MAC update steps performed by provers",
        )
        phase_seconds = registry.histogram(
            "sacha_phase_duration_seconds",
            "Simulated duration of each protocol phase",
            labels=("phase",),
        )
        run_seconds = registry.histogram(
            "sacha_attestation_duration_seconds",
            "Simulated end-to-end duration of one attestation run",
        )
    if obs_on and options.span_frames:
        frame_span = lambda idx: span(  # noqa: E731
            "readback", clock=clock, registry=registry, frame=idx
        )
    else:
        frame_span = lambda idx: contextlib.nullcontext()  # noqa: E731

    with span(
        "attestation", clock=clock, registry=registry, device=device.name
    ) as root:
        # -- dynamic configuration phase (Figure 9, top) ---------------------
        nonce = verifier.new_nonce()
        with span("config", clock=clock, registry=registry):
            run = AttestationRun(
                verifier, nonce, options.readback_batch_frames, options.mask_at_prover
            )
            config_ns = 0.0
            for command in run.config_commands:
                start = elapsed
                elapsed += a1
                prover.handle_command(command)
                elapsed += a2
                config_ns += elapsed - start
                trace.record(
                    start, "ICAP_config", "vrf->prv", f"frame {command.frame_index}"
                )

        # The dynamic partition now runs the configured application: a
        # freshly configured design's storage elements start flip-flopping.
        registers = prover.board.fpga.registers
        verifier.system.app_impl.declare_registers(registers)
        if options.scramble_registers:
            registers.scramble(rng.fork("app-activity"))

        # -- full configuration readback (Figure 9, middle) -------------------
        plan = run.plan
        if options.mask_at_prover:
            send_ns = model.masked_readback_send_ns()
            sendback_ns = model.masked_ack_ns()
        else:
            send_ns, sendback_ns = a3, a8
        # A batched answer replaces A8: MTU-sized fragments, each paying
        # its header plus the full preamble/header/FCS/IFG overhead at
        # PHY line rate.
        ns_per_byte = GigabitPhy().ns_per_byte
        fragment_ns = (BATCH_RESPONSE_HEADER_BYTES + FRAME_OVERHEAD_BYTES) * ns_per_byte
        frame_wire_ns = device.frame_bytes * ns_per_byte
        readback_ns = 0.0
        readback_commands = 0
        first = True
        with span("readback", clock=clock, registry=registry, frames=len(plan)):
            for command in run.readbacks:
                frames = (
                    command.frame_indices
                    if isinstance(command, IcapReadbackBatchCommand)
                    else (command.frame_index,)
                )
                start = elapsed
                elapsed += send_ns
                if first:
                    elapsed += a5
                    trace.record(elapsed, "MAC_init", "prv")
                    first = False
                with frame_span(frames[0]):
                    reply = prover.handle_command(command)
                    _receive_reply(run, reply, _READBACK_KINDS[type(command)])
                    for _ in frames:
                        elapsed += a4
                        elapsed += a6
                    if isinstance(reply, list):
                        elapsed += (
                            len(reply) * fragment_ns + len(frames) * frame_wire_ns
                        )
                    else:
                        elapsed += sendback_ns
                readback_ns += elapsed - start
                readback_commands += 1
                trace.record(
                    start,
                    _READBACK_KINDS[type(command)],
                    "vrf->prv",
                    f"frame {frames[0]}"
                    if len(frames) == 1
                    else f"{len(frames)} frames from frame {frames[0]}",
                )

        # -- checksum exchange (Figure 9, bottom) ------------------------------
        with span("checksum", clock=clock, registry=registry):
            start = elapsed
            elapsed += a9
            reply = prover.handle_command(MacChecksumCommand())
            _receive_reply(run, reply, "MAC_checksum")
            elapsed += a7
            elapsed += a10
            checksum_ns = elapsed - start
            trace.record(start, "MAC_checksum", "vrf->prv")
            trace.record(elapsed, "MAC_response", "prv->vrf")

        # -- verdict ----------------------------------------------------------
        counts = ActionCounts(
            config_steps=len(run.config_commands),
            readback_steps=readback_commands,
        )
        network_ns = options.network.overhead_ns(counts)
        report = run.report()
        report.config_steps = len(run.config_commands)
        report.nonce = nonce
        report.timing = TimingBreakdown(
            config_ns=config_ns,
            readback_ns=readback_ns,
            checksum_ns=checksum_ns,
            network_overhead_ns=network_ns,
        )
        report.trace = trace if options.record_trace else None
        if root is not None:
            root.set_attribute("result", "accept" if report.accepted else "reject")
            root.set_attribute("frames", len(plan))

    if obs_on:
        result_label = "accept" if report.accepted else "reject"
        attestations.inc(result=result_label)
        frames_configured.inc(len(run.config_commands))
        frames_readback.inc(len(plan))
        mac_updates.inc(len(plan))
        phase_seconds.observe(config_ns / 1e9, phase="config")
        phase_seconds.observe(readback_ns / 1e9, phase="readback")
        phase_seconds.observe(checksum_ns / 1e9, phase="checksum")
        run_seconds.observe(report.timing.total_ns / 1e9)
        _log.info(
            "attestation_completed",
            device=device.name,
            result=result_label,
            frames=len(plan),
            mismatched=len(report.mismatched_frames),
            total_ns=report.timing.total_ns,
        )
    return SessionResult(
        report=report,
        nonce=nonce,
        plan=plan,
        responses=run.responses(),
        tag=run.tag or b"",
    )


def attest(
    prover: SachaProver,
    verifier: SachaVerifier,
    rng: Optional[DeterministicRng] = None,
    options: Optional[SessionOptions] = None,
) -> AttestationReport:
    """Convenience wrapper returning just the report."""
    return run_attestation(prover, verifier, rng, options).report

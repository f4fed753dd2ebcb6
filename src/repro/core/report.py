"""Attestation outcomes.

The verifier's verdict separates the two checks of the protocol
(Figure 9): the MAC comparison ``H_Prv == H_Vrf`` (origin and transport
integrity) and the masked configuration comparison ``B_Prv == B_Vrf``
(the configuration is the intended one).  Both must pass for the prover
to be attested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.tracing import TraceRecorder
from repro.utils.units import format_time_ns


class Verdict(enum.Enum):
    """The three possible outcomes of one attestation run.

    ``ACCEPT`` and ``REJECT`` are the paper's two definite verdicts.
    ``INCONCLUSIVE`` is the graceful-degradation outcome: the run could
    not be completed (link down, session retries exhausted, a member
    crashing mid-sweep) so the verifier learned *nothing* about the
    prover — which is materially different from a rejection and must
    never be conflated with one.
    """

    ACCEPT = "accept"
    REJECT = "reject"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FailureReason:
    """Structured description of why a run failed to reach a verdict.

    ``stage`` names where the run died (``config`` / ``readback`` /
    ``checksum`` / ``link`` / ``member`` / ``session`` / ``fleet`` /
    ``monitor``); ``kind`` is a machine-matchable class (``link_down``,
    ``drained``, ``exception``, ...); ``detail`` is the human-readable
    remainder.
    """

    stage: str
    kind: str
    detail: str = ""
    attempts: int = 0

    def describe(self) -> str:
        text = f"{self.kind} during {self.stage}"
        if self.attempts:
            text += f" after {self.attempts} attempt(s)"
        if self.detail:
            text += f": {self.detail}"
        return text


@dataclass(frozen=True)
class TimingBreakdown:
    """Where the protocol time went, per the Table 3/4 decomposition."""

    config_ns: float
    readback_ns: float
    checksum_ns: float
    network_overhead_ns: float

    @property
    def theoretical_ns(self) -> float:
        return self.config_ns + self.readback_ns + self.checksum_ns

    @property
    def total_ns(self) -> float:
        return self.theoretical_ns + self.network_overhead_ns

    def summary(self) -> str:
        return (
            f"config {format_time_ns(self.config_ns)}, "
            f"readback {format_time_ns(self.readback_ns)}, "
            f"checksum {format_time_ns(self.checksum_ns)}, "
            f"network {format_time_ns(self.network_overhead_ns)} "
            f"=> total {format_time_ns(self.total_ns)}"
        )


@dataclass
class AttestationReport:
    """Everything the verifier concluded from one protocol run."""

    mac_valid: bool
    config_match: bool
    mismatched_frames: List[int] = field(default_factory=list)
    config_steps: int = 0
    readback_steps: int = 0
    nonce: bytes = b""
    timing: Optional[TimingBreakdown] = None
    trace: Optional[TraceRecorder] = None
    failure_reason: str = ""
    #: Set when the run could not complete: the report carries no
    #: information about the prover's configuration.
    inconclusive: bool = False
    failure: Optional[FailureReason] = None

    @classmethod
    def make_inconclusive(
        cls, failure: FailureReason, nonce: bytes = b""
    ) -> "AttestationReport":
        """A no-verdict report for a run that could not complete."""
        return cls(
            mac_valid=False,
            config_match=False,
            nonce=nonce,
            failure_reason=failure.describe(),
            inconclusive=True,
            failure=failure,
        )

    @property
    def verdict(self) -> Verdict:
        if self.inconclusive:
            return Verdict.INCONCLUSIVE
        return Verdict.ACCEPT if self.accepted else Verdict.REJECT

    @property
    def accepted(self) -> bool:
        """The overall verdict: prover attested."""
        return self.mac_valid and self.config_match and not self.inconclusive

    def explain(self) -> str:
        if self.inconclusive:
            reason = (
                self.failure.describe() if self.failure else self.failure_reason
            ) or "run did not complete"
            lines = [f"INCONCLUSIVE: {reason}"]
            lines.append(
                f"steps: {self.config_steps} config, "
                f"{self.readback_steps} readback"
            )
            if self.timing is not None:
                lines.append("timing: " + self.timing.summary())
            return "\n".join(lines)
        if self.accepted:
            lines = [
                "ATTESTED: MAC valid and configuration matches the golden "
                "reference",
            ]
        else:
            reasons = []
            if not self.mac_valid:
                reasons.append("MAC mismatch (H_Prv != H_Vrf)")
            if not self.config_match:
                count = len(self.mismatched_frames)
                preview = ", ".join(str(f) for f in self.mismatched_frames[:5])
                suffix = ", ..." if count > 5 else ""
                reasons.append(
                    f"configuration mismatch in {count} frame(s) "
                    f"[{preview}{suffix}]"
                )
            if self.failure_reason:
                reasons.append(self.failure_reason)
            lines = ["REJECTED: " + "; ".join(reasons)]
        lines.append(
            f"steps: {self.config_steps} config, {self.readback_steps} readback"
        )
        if self.timing is not None:
            lines.append("timing: " + self.timing.summary())
        return "\n".join(lines)

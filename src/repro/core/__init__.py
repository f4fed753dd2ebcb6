"""SACHa core: prover, verifier, protocol, provisioning, readback orders.

The paper's primary contribution — everything below it
(``repro.fpga``, ``repro.design``, ``repro.net``, ``repro.timing``) is
substrate.
"""

from repro.core.monitor import (
    AttestationMonitor,
    MonitorHistory,
    MonitorSample,
)
from repro.core.net_session import (
    NetworkAttestationSession,
    NetworkRunResult,
    PROVER_MAC,
    VERIFIER_MAC,
)
from repro.core.orders import (
    ExplicitOrder,
    OffsetOrder,
    PermutationOrder,
    RandomOffsetOrder,
    ReadbackOrder,
    RepeatedFramesOrder,
    SequentialOrder,
    check_coverage,
    default_order,
)
from repro.core.protocol import (
    SessionOptions,
    SessionResult,
    attest,
    run_attestation,
)
from repro.core.prover import (
    KeyProvider,
    PufDerivedKey,
    RegisterKey,
    SachaProver,
)
from repro.core.provisioning import (
    KEY_MODE_PUF,
    KEY_MODE_REGISTER,
    ProvisionedDevice,
    VerifierDatabase,
    VerifierRecord,
    provision_device,
)
from repro.core.report import AttestationReport, TimingBreakdown
from repro.core.signature_ext import (
    SignatureVerifier,
    SigningProver,
    upgrade_to_signatures,
)
from repro.core.swarm import SwarmAttestation, SwarmMember, SwarmReport
from repro.core.verifier import SachaVerifier, VerifierPolicy

__all__ = [
    "AttestationMonitor",
    "MonitorHistory",
    "MonitorSample",
    "NetworkAttestationSession",
    "NetworkRunResult",
    "PROVER_MAC",
    "VERIFIER_MAC",
    "ExplicitOrder",
    "OffsetOrder",
    "PermutationOrder",
    "RandomOffsetOrder",
    "ReadbackOrder",
    "RepeatedFramesOrder",
    "SequentialOrder",
    "check_coverage",
    "default_order",
    "SessionOptions",
    "SessionResult",
    "attest",
    "run_attestation",
    "KeyProvider",
    "PufDerivedKey",
    "RegisterKey",
    "SachaProver",
    "KEY_MODE_PUF",
    "KEY_MODE_REGISTER",
    "ProvisionedDevice",
    "VerifierDatabase",
    "VerifierRecord",
    "provision_device",
    "AttestationReport",
    "TimingBreakdown",
    "SignatureVerifier",
    "SigningProver",
    "upgrade_to_signatures",
    "SwarmAttestation",
    "SwarmMember",
    "SwarmReport",
    "SachaVerifier",
    "VerifierPolicy",
]

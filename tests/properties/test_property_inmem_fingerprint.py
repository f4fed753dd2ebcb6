"""In-memory run fingerprints: ``run_attestation`` stays byte-identical.

The in-memory counterpart of ``test_property_session_wire.py``.  Each
shape runs one seeded :func:`run_attestation` on SIM-SMALL with telemetry
on and reduces everything observable about it to a fingerprint:

* the prover's tag, the verdict and the localized mismatching frames;
* the Table-3 :class:`~repro.core.report.TimingBreakdown` legs;
* how many per-frame responses the run hands back;
* SHA-256 hashes of the protocol trace JSONL (when recorded), the
  canonical registry snapshot and the span dump.

The pinned values were captured from ``run_attestation`` as it stood
before its receive path moved onto
:class:`~repro.core.protocol.AttestationRun`, so the table is a
byte-level equivalence proof for that refactor.
"""

import hashlib
import json
from dataclasses import dataclass

import pytest

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.signature_ext import SignatureVerifier, upgrade_to_signatures
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_SMALL
from repro.obs.exporters import registry_snapshot, spans_to_jsonl
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.utils.rng import DeterministicRng

SEED = 150


@dataclass(frozen=True)
class Shape:
    batch: int = 1
    record_trace: bool = False
    mask_at_prover: bool = False
    span_frames: bool = False
    tamper: bool = False
    signature: bool = False


SHAPES = {
    "b1-trace": Shape(record_trace=True),
    "b256": Shape(batch=256),
    "masked": Shape(mask_at_prover=True),
    "tampered-span-frames": Shape(tamper=True, span_frames=True),
    "signature": Shape(signature=True),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fingerprint(shape: Shape) -> dict:
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-inmem", seed=SEED)
    if shape.tamper:
        frame = system.partition.static_frame_list()[1]
        provisioned.board.fpga.memory.flip_bit(frame, 0, 9)
    if shape.signature:
        prover, public_key = upgrade_to_signatures(provisioned, record)
        verifier = SignatureVerifier(
            record.system, public_key, DeterministicRng(SEED + 1)
        )
    else:
        prover = provisioned.prover
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(SEED + 1)
        )
    options = SessionOptions(
        record_trace=shape.record_trace,
        mask_at_prover=shape.mask_at_prover,
        readback_batch_frames=shape.batch,
        span_frames=shape.span_frames,
    )
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        result = run_attestation(prover, verifier, DeterministicRng(SEED + 2), options)
    report = result.report
    timing = report.timing
    trace = report.trace
    snapshot = json.dumps(registry_snapshot(registry), sort_keys=True)
    return {
        "tag": result.tag.hex(),
        "verdict": report.verdict.value,
        "mismatched_frames": list(report.mismatched_frames),
        "timing": (
            timing.config_ns,
            timing.readback_ns,
            timing.checksum_ns,
            timing.network_overhead_ns,
        ),
        "responses": len(result.responses),
        "trace_sha256": _sha256(trace.to_jsonl()) if trace is not None else None,
        "telemetry_sha256": _sha256(snapshot),
        "spans_sha256": _sha256(spans_to_jsonl(registry.spans)),
    }


#: Captured before the receive-path move (see the module docstring).
PINNED = {
    "b1-trace": {
        "tag": "adfdd29a713356d62981b42fe9154dd5",
        "verdict": "accept",
        "mismatched_frames": [],
        "timing": (60672.0, 1195968.0, 952.0, 0.0),
        "responses": 34,
        "trace_sha256": (
            "a28fd55a5d0d64365e4fc254561861eae63443f5b8666c243b2b41912154ea2e"
        ),
        "telemetry_sha256": (
            "beb2a0b7a0bb674ff5180e794e1ddddaffa02f6c47d411b79b47031fd692a2a9"
        ),
        "spans_sha256": (
            "6871aa3ca080ccf9ddf161a04af8d9d8080987a43fa016261fadee9a5d45d137"
        ),
    },
    "b256": {
        "tag": "adfdd29a713356d62981b42fe9154dd5",
        "verdict": "accept",
        "mismatched_frames": [],
        "timing": (60672.0, 735608.0, 952.0, 0.0),
        "responses": 34,
        "trace_sha256": None,
        "telemetry_sha256": (
            "99f839f64c1a571c0beb58945c1d6ba309b9c4838919a64ed75bf9bc98a93366"
        ),
        "spans_sha256": (
            "1a4b3a3eea0ed4de598e767adbeaa7e601c24d65f48612907d794296598d29f9"
        ),
    },
    "masked": {
        "tag": "7524b04d8f4f5d79bde307814e469ce3",
        "verdict": "accept",
        "mismatched_frames": [],
        "timing": (60672.0, 1206032.0, 952.0, 0.0),
        "responses": 0,
        "trace_sha256": None,
        "telemetry_sha256": (
            "082488a3a8048ae5e438a3b29ecc3e8c8f44f781ff4937bf1c1b5e9c2487e791"
        ),
        "spans_sha256": (
            "dc9195ebfc39f1c11fd3b151323929c3089bce308db72fc0747207192644977f"
        ),
    },
    "signature": {
        "tag": (
            "5146ec4d40a96b8c45790423e4b3b53e25dbb86b6d286a1a3b36960a959a7d6a"
            "7fffffffffffffffe487ed5110b4611a62633145c06e0e68948127044533e63a"
            "0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1b"
            "a7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6"
            "f71c35fdad44cfd2d74f9208be258ff324943328f6722d9ee1003e5c50b1df82"
            "cc6d241b0e2ae9cd348b1fd47e9267afc1b2ae91ee51d6cb0e3179ab1042a95d"
            "80c8baa7fdd36631938224a7f2f8ecb6020af87cd98a0374a42589860825e56d"
            "16cf3f4f1f61969505c3a11c9470812a492a2be72a9fc870f85897086d329365"
            "c96ca99574a53a6d541ed1697e38709d0456db162d7f4a2ccc7517771eb16def"
        ),
        "verdict": "accept",
        "mismatched_frames": [],
        "timing": (60672.0, 1195968.0, 952.0, 0.0),
        "responses": 34,
        "trace_sha256": None,
        "telemetry_sha256": (
            "4033cfc4d6759b0c3fd2618dbdd730beb82fc5badc377715c22b3c3698888107"
        ),
        "spans_sha256": (
            "6871aa3ca080ccf9ddf161a04af8d9d8080987a43fa016261fadee9a5d45d137"
        ),
    },
    "tampered-span-frames": {
        "tag": "3782655b6e9d2198d418696c5c82354d",
        "verdict": "reject",
        "mismatched_frames": [1],
        "timing": (60672.0, 1195968.0, 952.0, 0.0),
        "responses": 34,
        "trace_sha256": None,
        "telemetry_sha256": (
            "394d0a58102817b5ecb98afdee081849dc30a571cc81ae2ca3c942b0c1b8c01a"
        ),
        "spans_sha256": (
            "7f3f495d993e564f258cbfe24dc45bea1c7f32500adf2c7194e14d3f12d2edb2"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_inmem_run_matches_pinned_fingerprint(name):
    assert _fingerprint(SHAPES[name]) == PINNED[name]


def test_every_shape_is_pinned():
    assert sorted(PINNED) == sorted(SHAPES)

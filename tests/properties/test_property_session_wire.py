"""Session-level wire fingerprints: the transport shapes stay byte-identical.

Each shape runs one seeded :class:`NetworkAttestationSession` on
SIM-SMALL and reduces everything observable about it to a fingerprint:

* a SHA-256 over every tapped ``(time, direction, payload)`` triple, so an
  extra frame, a reordered burst, a different header or a shifted
  timestamp changes it;
* the simulated session duration and the frames each side sent;
* session attempts and ARQ retransmissions;
* the prover"s tag, the verdict and the localized mismatching frames;
* with telemetry on, a SHA-256 over the canonical registry snapshot (this
  also covers the TraceHello the session sends only then).

The pinned values were captured from the session as it stood before the
lockstep and pipelined drivers were folded into one schedule, so the
table is a byte-level equivalence proof for that refactor.  Raw lossy
batch-1 shapes are absent on purpose: they gained the resequencer,
which changes their wire format.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_SMALL
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile, OutageWindow
from repro.obs.exporters import registry_snapshot
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

SEED = 140

#: The combined-fault profile of ``tests/core/test_resilience.py``.
ACCEPTANCE_PROFILE = FaultProfile(
    loss_probability=0.05,
    corruption_probability=0.02,
    duplication_probability=0.02,
    outages=(OutageWindow(5e6, 55e6),),
)


@dataclass(frozen=True)
class Shape:
    reliable: bool
    batch: int
    window: int = 1
    adaptive: bool = False
    profile: Optional[FaultProfile] = None
    fault_seed: int = SEED
    max_attempts: int = 1
    arq_max_retries: int = 25
    tamper: bool = False
    telemetry: bool = False


SHAPES = {
    "raw-b1-clean": Shape(reliable=False, batch=1),
    "arq-w1-b1": Shape(reliable=True, batch=1, window=1),
    "arq-w8-b1": Shape(reliable=True, batch=1, window=8),
    "arq-w8-b256": Shape(reliable=True, batch=256, window=8),
    "arq-w8-b256-adaptive-lossy": Shape(
        reliable=True,
        batch=256,
        window=8,
        adaptive=True,
        profile=FaultProfile(loss_probability=0.05),
        fault_seed=105,
    ),
    "raw-b256-resequenced": Shape(reliable=False, batch=256),
    "raw-b1-dup-reorder": Shape(
        reliable=False,
        batch=1,
        profile=FaultProfile(
            duplication_probability=0.1,
            reorder_probability=0.1,
            reorder_extra_ns=1e5,
        ),
    ),
    # Session-level retries: the outage exhausts the ARQ retry budget of
    # the first attempts; the last one lands after it (or, with one retry
    # less per frame, never does).
    "arq-w1-b1-acceptance": Shape(
        reliable=True,
        batch=1,
        profile=ACCEPTANCE_PROFILE,
        fault_seed=100,
        max_attempts=3,
        arq_max_retries=4,
    ),
    "arq-w1-b1-acceptance-inconclusive": Shape(
        reliable=True,
        batch=1,
        profile=ACCEPTANCE_PROFILE,
        fault_seed=100,
        max_attempts=3,
        arq_max_retries=3,
    ),
    "raw-b1-tampered": Shape(reliable=False, batch=1, tamper=True),
    "arq-w8-b256-tampered": Shape(
        reliable=True, batch=256, window=8, tamper=True
    ),
    "raw-b1-telemetry": Shape(reliable=False, batch=1, telemetry=True),
    "arq-w1-b1-telemetry": Shape(reliable=True, batch=1, telemetry=True),
    "arq-w8-b256-telemetry": Shape(
        reliable=True, batch=256, window=8, telemetry=True
    ),
}


def _fingerprint(shape: Shape) -> dict:
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-wire", seed=SEED)
    if shape.tamper:
        frame = system.partition.static_frame_list()[1]
        provisioned.board.fpga.memory.flip_bit(frame, 0, 9)
    simulator = Simulator()
    model = None
    if shape.profile is not None:
        model = FaultModel(shape.profile, DeterministicRng(shape.fault_seed).fork("f"))
    channel = Channel(simulator, LatencyModel(base_ns=5_000.0), fault_model=model)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(SEED + 1))
    tuning = (
        ArqTuning(window=shape.window, adaptive=shape.adaptive)
        if shape.reliable
        else None
    )
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(SEED + 2),
        reliable=shape.reliable,
        arq_tuning=tuning,
        max_attempts=shape.max_attempts,
        arq_max_retries=shape.arq_max_retries,
        readback_batch_frames=shape.batch,
    )
    wire = hashlib.sha256()
    channel.add_tap(
        lambda t, d, frame: wire.update(f"{t!r}|{d}|".encode() + frame.payload)
        or None
    )
    registry = MetricsRegistry(enabled=shape.telemetry)
    with use_registry(registry):
        result = session.run()
    report = result.report
    fingerprint = {
        "wire_sha256": wire.hexdigest(),
        "duration_ns": result.duration_ns,
        "frames_sent": (result.frames_sent_by_verifier, result.frames_sent_by_prover),
        "attempts": result.attempts,
        "retransmissions": session.total_retransmissions,
        "tag": session.tag.hex() if session.tag is not None else None,
        "verdict": report.verdict.value,
        "mismatched_frames": list(report.mismatched_frames),
    }
    if shape.telemetry:
        snapshot = json.dumps(registry_snapshot(registry), sort_keys=True)
        fingerprint["telemetry_sha256"] = hashlib.sha256(snapshot.encode()).hexdigest()
    return fingerprint


#: Captured from the two-driver session (see the module docstring).
PINNED = {
    "arq-w1-b1": {
        "wire_sha256": (
            "8ff3b4b3a38da176bf6267249f3c913f24190fb935d5098a571673707832e7c4"
        ),
        "duration_ns": 669296.0,
        "frames_sent": (94, 94),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "arq-w1-b1-acceptance": {
        "wire_sha256": (
            "d44a915069fc469fd602b20d2e6af5afd55f2da12f18a8e90e1c7f86227dfb3a"
        ),
        "duration_ns": 78483657.7525172,
        "frames_sent": (149, 141),
        "attempts": 3,
        "retransmissions": 29,
        "tag": "08f6a65f9e969405a134cc2822473387",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "arq-w1-b1-acceptance-inconclusive": {
        "wire_sha256": (
            "4e65cbcfa8728af710b9b152b898fd3ddd895d57987bb48a0537098ebbe01200"
        ),
        "duration_ns": 70202508.0951441,
        "frames_sent": (48, 38),
        "attempts": 3,
        "retransmissions": 17,
        "tag": None,
        "verdict": "inconclusive",
        "mismatched_frames": [],
    },
    "arq-w1-b1-telemetry": {
        "wire_sha256": (
            "0e4099251313012be054b48b7203722c934d466eb22dd9a2e7799696d563c561"
        ),
        "duration_ns": 680640.0,
        "frames_sent": (95, 95),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
        "telemetry_sha256": (
            "69afd90d4e4bdcddffac7cd22fd54a2251f7570fbd1f4d7e62a43337aef5a86c"
        ),
    },
    "arq-w8-b1": {
        "wire_sha256": (
            "196e2c5baaa848a38d1ea4c184de236ecda9789a3ab260fccd69f1292d0f767d"
        ),
        "duration_ns": 431072.0,
        "frames_sent": (94, 94),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "arq-w8-b256": {
        "wire_sha256": (
            "b5cfdf2edc3f0834102d1c2615c4f6ec1af265ffe1801bcceb0e2071cd43aace"
        ),
        "duration_ns": 19088.0,
        "frames_sent": (6, 4),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "arq-w8-b256-adaptive-lossy": {
        "wire_sha256": (
            "6aff7d221d3a0d4eb16178fc5dab3cce3eadc5e896f2010405f443d18f03267d"
        ),
        "duration_ns": 6186795.243082956,
        "frames_sent": (12, 8),
        "attempts": 1,
        "retransmissions": 6,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "arq-w8-b256-tampered": {
        "wire_sha256": (
            "70424dd55d938da756d29ac6c76957791d9e51ea031737b4bf9757a857fe0977"
        ),
        "duration_ns": 19088.0,
        "frames_sent": (6, 4),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "53dbe39502dd45953fe896ee7e43f9c8",
        "verdict": "reject",
        "mismatched_frames": [1],
    },
    "arq-w8-b256-telemetry": {
        "wire_sha256": (
            "c722feff302c77d69ef9361756a08a3b14e3443625237f2ff50a23de77d68cb3"
        ),
        "duration_ns": 19088.0,
        "frames_sent": (7, 6),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
        "telemetry_sha256": (
            "cad0060c954820d8fb5f6cd8e11a021537f7d7f06a092f597ec3d91b4c03d634"
        ),
    },
    "raw-b1-clean": {
        "wire_sha256": (
            "90f25a04456eb9834c2fd9ccbd1e961f6d2e5870ddda9c0e7a4521f42adedd66"
        ),
        "duration_ns": 397040.0,
        "frames_sent": (59, 35),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "raw-b1-dup-reorder": {
        "wire_sha256": (
            "ca899f6c945b505f89539346e78566577f68658da752696614412ff1ce2248b7"
        ),
        "duration_ns": 1313989.2530985666,
        "frames_sent": (59, 35),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
    "raw-b1-tampered": {
        "wire_sha256": (
            "c4ecd754d57f52f8b69d4359e4780361405dac2f6724734aaa1947afec6a6c6d"
        ),
        "duration_ns": 397040.0,
        "frames_sent": (59, 35),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "53dbe39502dd45953fe896ee7e43f9c8",
        "verdict": "reject",
        "mismatched_frames": [1],
    },
    "raw-b1-telemetry": {
        "wire_sha256": (
            "a4545018f080e79f1e7b12107f3a0902b3998a23718a163700ebe12e2ceff003"
        ),
        "duration_ns": 397040.0,
        "frames_sent": (60, 35),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
        "telemetry_sha256": (
            "3bd69cbb1a812b714d8e04f2a9f7ee06c20ff49e802bd4e52fe71a3ea52023dc"
        ),
    },
    "raw-b256-resequenced": {
        "wire_sha256": (
            "683a32d1f8b7eedd3447c68e5d8e853c6a79a30f2490db969d2264bb012d63a5"
        ),
        "duration_ns": 19072.0,
        "frames_sent": (3, 3),
        "attempts": 1,
        "retransmissions": 0,
        "tag": "89e5704d9da4d2e64739e037ef1332f2",
        "verdict": "accept",
        "mismatched_frames": [],
    },
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_session_wire_matches_pinned_fingerprint(name):
    assert _fingerprint(SHAPES[name]) == PINNED[name]


def test_every_shape_is_pinned():
    assert sorted(PINNED) == sorted(SHAPES)

"""Sweep fingerprints: swarm, fleet and monitor runs stay byte-identical.

The multi-device counterpart of ``test_property_inmem_fingerprint.py``.
Each scenario drives one of the three multi-run drivers — the swarm
sweep (E13), the fleet controller and the periodic monitor (E17) — with
one run that fails mid-way, and reduces everything observable about it
to a fingerprint:

* the SHA-256 of the E13 and E17 rendered tables;
* swarm verdicts, failure reasons and sim-clock sweep times, at one and
  at two workers, plus the registry-snapshot and span-dump hashes;
* fleet store rows (verdict, tag, failure stage/kind, attempts) and the
  sweep snapshot hash, at one and at two workers, over a lossy link;
* the monitor's sample tuples and its counters;
* the structured warning each folded failure logs.

The pinned values were captured before the three drivers moved onto one
failure fold and one sharded sweep dispatch in ``repro.core.swarm``, so
the table is a byte-level equivalence proof for that refactor.
"""

import hashlib
import json
import logging

import pytest

from repro.analysis.experiments import e13_swarm_scaling, e17_monitor_latency
from repro.core.monitor import AttestationMonitor
from repro.core.provisioning import materialize_device, provision_device
from repro.core.swarm import SwarmAttestation, SwarmMember
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import NetworkError
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.fpga.device import SIM_SMALL
from repro.net.faults import FaultProfile
from repro.obs.exporters import registry_snapshot, spans_to_jsonl
from repro.obs.log import KeyValueFormatter
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _snapshot_sha256(snapshot: dict) -> str:
    return _sha256(json.dumps(snapshot, sort_keys=True))


class _Warnings(logging.Handler):
    """Collects the key-value form of every ``repro`` warning."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.setFormatter(KeyValueFormatter())
        self.lines = []

    def emit(self, record):
        self.lines.append(self.format(record))

    def __enter__(self):
        logging.getLogger("repro").addHandler(self)
        return self

    def __exit__(self, *exc_info):
        logging.getLogger("repro").removeHandler(self)


class _DyingProver:
    """Delegating prover whose link dies after ``fail_after`` commands,
    for good or (``permanent=False``) once."""

    def __init__(self, inner, fail_after, permanent=True):
        self._inner = inner
        self._fail_after = fail_after
        self._permanent = permanent
        self._calls = 0
        self._fired = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def handle_command(self, command):
        self._calls += 1
        if self._calls > self._fail_after and (self._permanent or not self._fired):
            self._fired = True
            raise NetworkError("link to device lost mid-run")
        return self._inner.handle_command(command)


def _prover_and_verifier(device_id, seed):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, device_id, seed=seed)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1))
    return provisioned.prover, verifier


# -- E13 / E17 tables ----------------------------------------------------------------

#: SHA-256 of the default-argument rendered tables.
PINNED_TABLES = {
    "E13": "cb284f5fc381d5405ceffb03132396bce1504368529192adaa4e65d830bfb818",
    "E17": "5597652beeee5916ae2b47ce9677b34bef4139e963176b0452c40709ae2889d5",
}


def test_e13_table_is_pinned():
    assert _sha256(e13_swarm_scaling().rendered) == PINNED_TABLES["E13"]


def test_e17_table_is_pinned():
    assert _sha256(e17_monitor_latency().rendered) == PINNED_TABLES["E17"]


# -- swarm ---------------------------------------------------------------------------


def _swarm_fingerprint(workers: int) -> dict:
    members = []
    for index in range(3):
        prover, verifier = _prover_and_verifier(f"swm-{index}", seed=900 + 10 * index)
        if index == 1:
            prover = _DyingProver(prover, fail_after=5)
        members.append(SwarmMember(f"swm-{index}", prover, verifier))
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry), _Warnings() as warnings:
        report = SwarmAttestation(members).run(DeterministicRng(91), max_workers=workers)
    return {
        "verdicts": {
            device_id: result.verdict.value
            for device_id, result in report.results.items()
        },
        "failures": {
            device_id: result.failure.describe()
            for device_id, result in report.results.items()
            if result.failure is not None
        },
        "sequential_ns": report.sequential_ns,
        "parallel_ns": report.parallel_ns,
        "telemetry_sha256": _snapshot_sha256(registry_snapshot(registry)),
        "spans_sha256": _sha256(spans_to_jsonl(registry.spans)),
        "warnings": warnings.lines,
    }


PINNED_SWARM = {
    1: {
        "verdicts": {"swm-0": "accept", "swm-1": "inconclusive", "swm-2": "accept"},
        "failures": {
            "swm-1": "NetworkError during member: link to device lost mid-run"
        },
        "sequential_ns": 2515184.0,
        "parallel_ns": 1257592.0,
        "telemetry_sha256": (
            "e3883ddba7e2a684c72e5ff6dfa9d6285f84b9fc32e6ce2072579220ce94a5e4"
        ),
        "spans_sha256": (
            "5ac91c01c744a77e7a5c2d4becee42b0479011778bbb2f7e6952450b89b5f88e"
        ),
        "warnings": [
            "warning repro.core.swarm swarm_member_failed device_id=swm-1 "
            "error=link to device lost mid-run"
        ],
    },
    2: {
        "verdicts": {"swm-0": "accept", "swm-1": "inconclusive", "swm-2": "accept"},
        "failures": {
            "swm-1": "NetworkError during member: link to device lost mid-run"
        },
        "sequential_ns": 2515184.0,
        "parallel_ns": 1257592.0,
        "telemetry_sha256": (
            "e3883ddba7e2a684c72e5ff6dfa9d6285f84b9fc32e6ce2072579220ce94a5e4"
        ),
        "spans_sha256": (
            "4c5581b1dd2b9fa7249755b03a2c9aedb4ef10a9da126f4222def2aace5537ad"
        ),
        "warnings": [
            "warning repro.core.swarm swarm_member_failed device_id=swm-1 "
            "error=link to device lost mid-run"
        ],
    },
}


@pytest.mark.parametrize("workers", [1, 2])
def test_swarm_sweep_is_pinned(workers):
    assert _swarm_fingerprint(workers) == PINNED_SWARM[workers]


# -- fleet ---------------------------------------------------------------------------


def _enroll_fleet(store):
    """Eight SIM-SMALL devices: one tampered, one whose enrolled key is
    wrong, one whose part does not exist (its materialization raises)."""
    for index in range(8):
        device_id = f"flt-{index}"
        seed = 600 + index
        part = "SIM-NOSUCH" if index == 5 else "SIM-SMALL"
        _, record = materialize_device("SIM-SMALL", device_id, seed=seed)
        key = record.mac_key
        if index == 3:
            _, other = materialize_device("SIM-SMALL", "flt-other", seed=seed + 50)
            key = other.mac_key
        store.enroll(
            DeviceRecord(
                device_id=device_id,
                part=part,
                seed=seed,
                key_mode="puf",
                key=key,
                tampered=index == 6,
            )
        )


def _fleet_fingerprint(tmp_path, workers: int) -> dict:
    with FleetStore(str(tmp_path / f"fleet-{workers}.db")) as store:
        _enroll_fleet(store)
        controller = FleetController(
            store,
            fault_profile=FaultProfile(loss_probability=0.05),
            profile_text="loss=0.05",
        )
        with _Warnings() as warnings:
            result = controller.attest(seed=61, workers=workers)
        rows = sorted(store.history(), key=lambda row: row.device_id)
        return {
            "rows": [
                (
                    row.device_id,
                    row.verdict,
                    row.tag_hex,
                    row.failure_stage,
                    row.failure_kind,
                    row.attempts,
                    row.duration_ns,
                )
                for row in rows
            ],
            "exit_code": result.exit_code,
            "snapshot_sha256": _snapshot_sha256(result.snapshot),
            "stored_snapshot_sha256": _snapshot_sha256(store.latest_snapshot()),
            "warnings": warnings.lines,
        }


_FLEET_ROWS = [
    ("flt-0", "accept", "3d5f65261e879d1ee8f0c20e44b746da", "", "", 1, 19088.0),
    ("flt-1", "accept", "df62c34165b1b0400080805b88fb81dc", "", "", 1, 19088.0),
    ("flt-2", "accept", "569019f34f8ecade21c5283610fd9827", "", "", 1, 19088.0),
    ("flt-3", "inconclusive", "", "fleet", "key_mismatch", 1, 0.0),
    ("flt-4", "accept", "83cee09d153512f50ca853850cf784a4", "", "", 1, 19088.0),
    ("flt-5", "inconclusive", "", "fleet", "FrameAddressError", 1, 0.0),
    (
        "flt-6", "reject", "21e1a16bb65b0ad062d08cfac05af209", "", "", 1,
        4218419.0661089495,
    ),
    ("flt-7", "accept", "ab96f49959c49516b117be9264e9938a", "", "", 1, 19088.0),
]
_FLEET_WARNINGS = [
    "warning repro.fleet.controller fleet_device_failed device_id=flt-5 "
    "error=unknown part 'SIM-NOSUCH'; known parts: SIM-MEDIUM, SIM-SMALL, "
    "XC6VLX240T",
    "warning repro.core.verifier attestation_rejected mac_valid=True "
    "config_match=False mismatched_frames=1 reason=1 frame(s) mismatched",
]
PINNED_FLEET = {
    workers: {
        "rows": _FLEET_ROWS,
        "exit_code": 2,
        "snapshot_sha256": snapshot,
        "stored_snapshot_sha256": snapshot,
        "warnings": _FLEET_WARNINGS,
    }
    for workers, snapshot in (
        (1, "2b1c26a55c248a55d91c9d34445ab1b00a8e96688a8ff514a3b9c64b0a7128d5"),
        (2, "bd808ac1a6fd2e113663b1526d5776d571c53f4a4b432e8a20b225c5e1c0bda7"),
    )
}


@pytest.mark.parametrize("workers", [1, 2])
def test_fleet_sweep_is_pinned(tmp_path, workers):
    assert _fleet_fingerprint(tmp_path, workers) == PINNED_FLEET[workers]


# -- monitor -------------------------------------------------------------------------


def _monitor_fingerprint() -> dict:
    prover, verifier = _prover_and_verifier("mon-fp", seed=700)
    simulator = Simulator()
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry), _Warnings() as warnings:
        monitor = AttestationMonitor(
            simulator,
            _DyingProver(prover, fail_after=3, permanent=False),
            verifier,
            period_ns=120e9,
            rng=DeterministicRng(701),
        )
        monitor.start(runs=3)
        simulator.run()
    snapshot = registry_snapshot(registry)
    return {
        "samples": [
            (
                sample.started_ns,
                sample.finished_ns,
                sample.accepted,
                sample.mismatched_frames,
                sample.verdict,
                sample.failure_detail,
            )
            for sample in monitor.history.samples
        ],
        "counters": {
            name: [sample["value"] for sample in family["samples"]]
            for name, family in snapshot.items()
            if name.startswith("sacha_monitor_")
        },
        "telemetry_sha256": _snapshot_sha256(snapshot),
        "warnings": warnings.lines,
    }


PINNED_MONITOR = {
    "samples": [
        (0.0, 0.0, False, (), "inconclusive", "NetworkError: link to device lost mid-run"),
        (120000000000.0, 120001257592.0, True, (), "accept", ""),
        (240000000000.0, 240001257592.0, True, (), "accept", ""),
    ],
    "counters": {
        "sacha_monitor_inconclusive_total": [1.0],
        "sacha_monitor_runs_total": [3.0],
    },
    "telemetry_sha256": (
        "89f0e68467f17d99824c37b4666a87744b1da09f1b0e3920c5bcdbf150ed7efa"
    ),
    "warnings": [
        "warning repro.core.monitor monitor_run_failed run=1 "
        "error=link to device lost mid-run"
    ],
}


def test_monitor_history_is_pinned():
    assert _monitor_fingerprint() == PINNED_MONITOR

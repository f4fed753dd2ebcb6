"""Integration tests: the protocol as real traffic on the simulated wire."""

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.protocol import AttestationRun
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import NetworkError, ProtocolError
from repro.fpga.device import SIM_SMALL
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.ethernet import EthernetFrame
from repro.net.messages import (
    ConfigAck,
    MacChecksumResponse,
    ReadbackBatchResponse,
    ReadbackResponse,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


def _session(latency_ns=1_000.0, seed=50, tamper=None):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-net", seed=seed)
    if tamper is not None:
        tamper(provisioned, system)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=latency_ns))
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1))
    # Pin the raw *lockstep* shape: these tests assert legacy wire
    # specifics (per-frame counts, headerless SACHa payloads on the tap).
    # The raw default (batch > 1) now pipelines through the resequencer.
    session = NetworkAttestationSession(
        simulator, channel, provisioned.prover, verifier, DeterministicRng(seed + 2),
        readback_batch_frames=1,
    )
    return session, channel


class TestHonestNetworkRun:
    def test_accepted_over_the_wire(self):
        session, _ = _session()
        result = session.run()
        assert result.report.accepted

    def test_message_counts(self):
        session, _ = _session()
        result = session.run()
        total_frames = SIM_SMALL.total_frames
        dynamic = session._verifier.system.partition.dynamic_frame_count
        # verifier: configs + readbacks + checksum command
        assert result.frames_sent_by_verifier == dynamic + total_frames + 1
        # prover: one response per readback + the final tag
        assert result.frames_sent_by_prover == total_frames + 1

    def test_duration_grows_with_latency(self):
        fast, _ = _session(latency_ns=100.0)
        slow, _ = _session(latency_ns=100_000.0)
        assert slow.run().duration_ns > fast.run().duration_ns

    def test_session_cannot_run_twice(self):
        session, _ = _session()
        session.run()
        with pytest.raises(ProtocolError):
            session.run()


class TestReliableSession:
    def test_attestation_survives_frame_loss(self):
        """With the ARQ layer, a 10 %-lossy channel still completes and
        accepts; without it the run would deadlock."""
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-lossy", seed=88)
        simulator = Simulator()
        rng = DeterministicRng(89)
        channel = Channel(
            simulator,
            LatencyModel(base_ns=5_000.0),
            loss_probability=0.10,
            rng=rng,
        )
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(90))
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(91),
            reliable=True,
        )
        result = session.run()
        assert result.report.accepted
        assert channel.frames_dropped > 0
        assert session._verifier_port.retransmissions > 0

    def test_lossless_reliable_mode_adds_acks_only(self):
        session, _ = _session()
        baseline = session.run()

        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-rel", seed=50)
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(51))
        # Pin the lockstep shape (window=1, batch=1) so the comparison
        # isolates transport overhead; the pipelined default would send
        # *fewer* frames than the raw baseline by batching commands.
        reliable = NetworkAttestationSession(
            simulator, channel, provisioned.prover, verifier,
            DeterministicRng(52), reliable=True,
            arq_tuning=ArqTuning(window=1), readback_batch_frames=1,
        ).run()
        assert reliable.report.accepted == baseline.report.accepted is True
        # Reliable mode roughly doubles frame counts (one ACK per DATA).
        assert reliable.frames_sent_by_verifier > baseline.frames_sent_by_verifier


class TestNetworkAdversaries:
    def test_static_tamper_detected_over_the_wire(self):
        def tamper(provisioned, system):
            frame = system.partition.static_frame_list()[1]
            provisioned.board.fpga.memory.flip_bit(frame, 0, 9)

        session, _ = _session(tamper=tamper)
        result = session.run()
        assert not result.report.accepted

    def test_mitm_frame_rewrite_detected(self):
        """A tap that rewrites one readback response corrupts the MAC
        stream — the verifier rejects."""
        session, channel = _session()
        rewritten = [0]

        def mitm(time_ns, direction, frame):
            if direction == "prv->vrf" and not rewritten[0]:
                payload = bytearray(frame.payload)
                if payload and payload[0] == 0x81 and len(payload) > 10:
                    payload[8] ^= 0xFF
                    rewritten[0] = 1
                    return EthernetFrame(
                        frame.destination,
                        frame.source,
                        frame.ethertype,
                        bytes(payload),
                    )
            return None

        channel.add_tap(mitm)
        result = session.run()
        assert rewritten[0] == 1
        assert not result.report.accepted

    def test_eavesdropper_learns_no_key_material(self):
        """Everything on the wire is configuration data and the MAC; the
        16-byte key never appears in any frame."""
        session, channel = _session()
        observed = []
        channel.add_tap(lambda t, d, f: observed.append(f.payload) or None)
        session.run()
        key = session._prover._key_provider.mac_key()
        assert all(key not in payload for payload in observed)


def _fresh_run():
    """An AttestationRun on SIM-SMALL, at the start of its sweep."""
    system = build_sacha_system(SIM_SMALL)
    _, record = provision_device(system, "prv-run", seed=90)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(91))
    return AttestationRun(verifier, verifier.new_nonce())


def _frame_bytes(run):
    return run.verifier.system.device.frame_bytes


def _run_state(run):
    return (run.stage, run.tag, run.config_acked, len(run.responses()))


def _reliable_session(
    window, batch, seed=50, latency_ns=1_000.0, fault_profile=None,
    reliable=True, max_attempts=1,
):
    from repro.net.faults import FaultModel, FaultProfile  # noqa: F401

    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-pipe", seed=seed)
    simulator = Simulator()
    model = None
    if fault_profile is not None:
        model = FaultModel(fault_profile, DeterministicRng(seed + 9).fork("f"))
    channel = Channel(
        simulator, LatencyModel(base_ns=latency_ns), fault_model=model
    )
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 1)
    )
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(seed + 2),
        reliable=reliable,
        max_attempts=max_attempts,
        arq_tuning=ArqTuning(window=window),
        readback_batch_frames=batch,
    )
    return session, channel


class TestPipelinedTransport:
    def test_tags_identical_across_transport_shapes(self):
        """The transport shape is invisible to the protocol crypto: any
        (window, batch) combination produces byte-identical MAC tags and
        nonces for the same seeds."""
        results = {}
        for shape in ((1, 1), (8, 256), (4, 64), (32, 1024), (1, 256), (8, 1)):
            session, _ = _reliable_session(*shape)
            result = session.run()
            assert result.report.accepted, f"shape {shape} rejected"
            results[shape] = (session.tag, result.report.nonce)
        tags = {tag for tag, _ in results.values()}
        nonces = {nonce for _, nonce in results.values()}
        assert len(tags) == 1
        assert len(nonces) == 1

    def test_pipelined_moves_far_fewer_frames(self):
        lockstep, _ = _reliable_session(1, 1)
        pipelined, _ = _reliable_session(8, 256)
        slow = lockstep.run()
        fast = pipelined.run()
        assert slow.report.accepted and fast.report.accepted
        assert (
            fast.frames_sent_by_verifier < slow.frames_sent_by_verifier / 4
        )
        assert fast.frames_sent_by_prover < slow.frames_sent_by_prover / 4

    def test_raw_channel_pipelines_through_resequencer(self):
        """Pipelining needs in-order delivery, not reliability: on a raw
        channel the session interposes the resequencer and keeps the
        batched streaming transport instead of falling back to lockstep."""
        from repro.net.resequencer import ResequencerLink

        session, _ = _reliable_session(8, 256, reliable=False)
        assert session._resequenced
        result = session.run()
        assert result.report.accepted
        assert isinstance(session._verifier_port, ResequencerLink)
        total_frames = SIM_SMALL.total_frames
        dynamic = session._verifier.system.partition.dynamic_frame_count
        # Far fewer frames than the lockstep loop's one-per-frame counts.
        assert result.frames_sent_by_verifier < (dynamic + total_frames + 1) / 4

    def test_raw_lockstep_on_clean_channel_stays_headerless(self):
        """A raw lockstep session without dup/reorder faults keeps the
        original wire format: SACHa payloads, no resequencer header."""
        session, channel = _reliable_session(1, 1, reliable=False)
        opcodes = []
        channel.add_tap(
            lambda t, d, frame: opcodes.append(frame.payload[0]) or None
        )
        assert not session._resequenced
        assert session.run().report.accepted
        # Every tapped payload starts with a SACHa opcode byte, not a
        # resequencer sequence header.
        assert set(opcodes) <= {0x01, 0x02, 0x03, 0x81, 0x82}

    # The receive-path rules live in AttestationRun, which the session
    # feeds every decoded response; these drive a run directly.

    def test_out_of_plan_fragment_is_ignored(self):
        """A fragment that is not the next contiguous plan slice cannot
        touch the buffer or the MAC stream."""
        run = _fresh_run()
        rogue = ReadbackBatchResponse(
            base_slot=5, frame_count=1, data=bytes(_frame_bytes(run))
        )
        assert not run.receive(rogue)
        assert _run_state(run) == ("readback", None, 0, 0)

    def test_premature_checksum_response_is_ignored(self):
        """A MAC tag arriving before the sweep completes must not be
        trusted: a missing fragment fails towards inconclusive, never
        towards a verdict over partial data."""
        run = _fresh_run()
        assert not run.receive(MacChecksumResponse(tag=bytes(16)))
        assert run.tag is None
        assert run.stage == "readback"

    def test_partial_frame_fragment_is_ignored(self):
        """A fragment whose data does not hold ``frame_count`` whole
        frames would misalign the sweep; it never enters it."""
        run = _fresh_run()
        short = ReadbackBatchResponse(
            base_slot=0, frame_count=2, data=bytes(_frame_bytes(run))
        )
        assert not run.receive(short)
        assert run.responses() == []

    def test_short_per_frame_response_is_ignored(self):
        """A per-frame response is a one-frame fragment: data that is not
        exactly one frame long never enters the sweep."""
        run = _fresh_run()
        short = ReadbackResponse(
            frame_index=run.plan[0], data=bytes(_frame_bytes(run) - 1)
        )
        assert not run.receive(short)
        assert run.responses() == []
        assert run.stage == "readback"

    def test_lockstep_unexpected_kind_is_counted(self):
        """A masked-readback ack means nothing to the session: the
        attribute and the exported counter both record it."""
        from repro.net.messages import MaskedReadbackAck
        from repro.obs.metrics import MetricsRegistry, use_registry

        session, _ = _session()
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session._on_verifier_delivery(
                EthernetFrame(
                    destination=session.verifier_endpoint.mac,
                    source=session.prover_endpoint.mac,
                    ethertype=0x88B5,
                    payload=MaskedReadbackAck(frame_index=3).encode(),
                )
            )
        counter = registry.get("sacha_session_unexpected_frames_total")
        assert session.unexpected_frames == 1
        assert counter.value(side="verifier") == session.unexpected_frames


class TestFaultCompatibility:
    """Duplication/reorder faults on a raw channel would desynchronize
    the incremental MAC into a false reject — the session interposes
    the resequencing buffer so delivery to the protocol layer stays
    in-order and exactly-once without requiring the full ARQ."""

    def _channel_with(self, profile):
        from repro.net.faults import FaultModel

        simulator = Simulator()
        model = FaultModel(profile, DeterministicRng(5).fork("f"))
        channel = Channel(
            simulator, LatencyModel(base_ns=1_000.0), fault_model=model
        )
        return simulator, channel

    def _build(self, simulator, channel, reliable, batch=None):
        from repro.core.provisioning import provision_device

        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-fc", seed=61)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(62)
        )
        return NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(63),
            reliable=reliable,
            readback_batch_frames=batch,
        )

    def test_duplication_on_raw_channel_resequenced(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(duplication_probability=0.1)
        )
        session = self._build(simulator, channel, reliable=False)
        assert session._resequenced
        assert session.run().report.accepted

    def test_reorder_on_raw_channel_resequenced(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(reorder_probability=0.1, reorder_extra_ns=1e5)
        )
        session = self._build(simulator, channel, reliable=False)
        assert session._resequenced
        assert session.run().report.accepted

    def test_same_faults_allowed_over_arq(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(
                duplication_probability=0.1,
                reorder_probability=0.1,
                reorder_extra_ns=1e5,
            )
        )
        session = self._build(simulator, channel, reliable=True)
        assert session.run().report.accepted

    def test_loss_alone_allowed_raw(self):
        """Loss fails towards inconclusive, never a wrong verdict, so it
        stays legal on the raw transport."""
        from repro.core.report import Verdict
        from repro.net.faults import FaultProfile

        for batch in (1, 256):
            simulator, channel = self._channel_with(
                FaultProfile(loss_probability=0.01)
            )
            session = self._build(simulator, channel, reliable=False, batch=batch)
            assert session._resequenced
            assert session.run().report.verdict is not Verdict.REJECT

    def test_lossy_raw_lockstep_never_rejects_honest(self):
        """A lost ``ICAP_config`` on a raw batch-1 channel must not go
        unnoticed: the misconfigured frame would read back as a false
        reject, and a retry could re-declare the application's
        registers.  The resequencer turns every loss into a gap that
        fails the attempt toward inconclusive."""
        from repro.core.report import Verdict
        from repro.net.faults import FaultModel, FaultProfile

        system = build_sacha_system(SIM_SMALL)
        verdicts = set()
        for seed in range(60):
            provisioned, record = provision_device(system, f"prv-{seed}", seed=seed)
            simulator = Simulator()
            rng = DeterministicRng(seed + 3)
            model = FaultModel(
                FaultProfile(loss_probability=0.02), rng.fork("faults")
            )
            channel = Channel(
                simulator, LatencyModel(base_ns=5_000.0), fault_model=model
            )
            verifier = SachaVerifier(
                record.system, record.mac_key, DeterministicRng(seed + 1)
            )
            session = NetworkAttestationSession(
                simulator, channel, provisioned.prover, verifier,
                rng.fork("session"), readback_batch_frames=1, max_attempts=3,
            )
            verdicts.add(session.run().report.verdict)
        assert Verdict.REJECT not in verdicts
        assert Verdict.ACCEPT in verdicts

    def test_own_channel_loss_resequences_raw(self):
        """A channel built with its own loss probability counts as lossy
        too, even without a fault model."""
        simulator = Simulator()
        channel = Channel(
            simulator,
            LatencyModel(base_ns=1_000.0),
            loss_probability=0.01,
            rng=DeterministicRng(6),
        )
        session = self._build(simulator, channel, reliable=False, batch=1)
        assert session._resequenced


class TestWindowPrecedence:
    """`arq_tuning` is the single source of the ARQ window; without one
    the perf config supplies the window and the AIMD switch."""

    def _build(self, **kwargs):
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-wp", seed=71)
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(72)
        )
        return NetworkAttestationSession(
            simulator, channel, provisioned.prover, verifier,
            DeterministicRng(73), reliable=True, **kwargs,
        )

    def test_tuning_alone_sets_window_and_adaptivity(self):
        tuning = ArqTuning(window=16, adaptive=True)
        session = self._build(arq_tuning=tuning)
        assert session._arq_tuning is tuning

    def test_config_supplies_the_default_tuning(self):
        from repro.perf import configured

        with configured(arq_window=3, arq_adaptive=False):
            session = self._build()
        assert session._arq_tuning == ArqTuning(window=3, adaptive=False)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(NetworkError, match="window"):
            self._build(arq_tuning=ArqTuning(window=0))


class TestCumulativeConfigAcks:
    """The pipelined transport streams config batches without per-frame
    responses; the prover answers each batch with a cumulative ConfigAck
    so a run whose configuration never landed fails safe instead of
    timing out in later phases or producing an unexplained reject."""

    @staticmethod
    def _spy_acks(monkeypatch, session, drop=False):
        """Record (or swallow) every ConfigAck the prover produces."""
        prover = session._prover
        handle = prover.handle_command
        acks = []

        def spy(command):
            result = handle(command)
            if isinstance(result, ConfigAck):
                acks.append(result.frames_applied)
                if drop:
                    return None
            return result

        monkeypatch.setattr(prover, "handle_command", spy)
        return acks

    def test_pipelined_run_acks_every_config_frame(self, monkeypatch):
        session, _ = _reliable_session(8, 256)
        acks = self._spy_acks(monkeypatch, session)
        report = session.run().report
        assert report.accepted
        assert report.config_steps > 0
        assert acks == sorted(acks)
        assert acks[-1] == report.config_steps

    def test_lockstep_sends_no_config_acks(self, monkeypatch):
        session, _ = _reliable_session(1, 1)
        acks = self._spy_acks(monkeypatch, session)
        assert session.run().report.accepted
        assert acks == []

    def test_missing_acks_fail_toward_inconclusive(self, monkeypatch):
        from repro.core.report import Verdict

        session, _ = _reliable_session(8, 256)
        self._spy_acks(monkeypatch, session, drop=True)
        result = session.run()
        assert result.report.verdict is Verdict.INCONCLUSIVE
        assert "config_unacked" in result.report.failure_reason

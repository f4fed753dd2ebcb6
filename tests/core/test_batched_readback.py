"""Tests for batched readback (``ICAP_readback_batch``) in the in-memory run."""

import pytest

from repro.core.orders import PermutationOrder, SequentialOrder
from repro.core.protocol import SessionOptions, readback_schedule, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.errors import ProtocolError
from repro.fpga.device import SIM_MEDIUM
from repro.net.messages import IcapReadbackBatchCommand
from repro.utils.rng import DeterministicRng


@pytest.fixture
def stack(medium_system):
    provisioned, record = provision_device(medium_system, "prv-batch", seed=6500)
    verifier = SachaVerifier(
        record.system,
        record.mac_key,
        DeterministicRng(6501),
        order=SequentialOrder(),
    )
    return provisioned, verifier


class TestBatchedRuns:
    @pytest.mark.parametrize("batch", [2, 16, 64])
    def test_honest_run_accepted(self, stack, batch):
        provisioned, verifier = stack
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(batch),
            SessionOptions(readback_batch_frames=batch),
        )
        assert result.report.accepted
        assert len(result.responses) == SIM_MEDIUM.total_frames

    def test_same_tag_as_unbatched_for_same_nonce(self, medium_system):
        """Batching changes transport, not the MAC input stream."""
        provisioned, record = provision_device(medium_system, "prv-tag", seed=6700)

        def fresh_verifier():
            return SachaVerifier(
                record.system,
                record.mac_key,
                DeterministicRng(6701),
                order=SequentialOrder(),
            )

        plain = run_attestation(
            provisioned.prover, fresh_verifier(), DeterministicRng(1)
        )
        batched = run_attestation(
            provisioned.prover,
            fresh_verifier(),
            DeterministicRng(1),
            SessionOptions(readback_batch_frames=32),
        )
        # Identical verifier state => same nonce => same stream => same tag.
        assert plain.nonce == batched.nonce
        assert plain.tag == batched.tag

    def test_tamper_detected_and_localized(self, stack):
        provisioned, verifier = stack
        frame = verifier.system.partition.static_frame_list()[2]
        provisioned.board.fpga.memory.flip_bit(frame, 1, 5)
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(2),
            SessionOptions(readback_batch_frames=16),
        )
        assert not result.report.accepted
        assert result.report.mismatched_frames == [frame]

    def test_batching_cuts_networked_duration(self, stack):
        from repro.timing.network import LAB_NETWORK

        provisioned, verifier = stack
        plain = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(3),
            SessionOptions(network=LAB_NETWORK),
        )
        batched = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(4),
            SessionOptions(network=LAB_NETWORK, readback_batch_frames=64),
        )
        assert batched.report.timing.total_ns < plain.report.timing.total_ns / 2

    def test_permutation_order_stays_batched(self, medium_system):
        """A non-contiguous plan batches like a sweep: the batch command
        carries arbitrary indices, so batches do not collapse to ones."""
        provisioned, record = provision_device(medium_system, "prv-perm", seed=6600)
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(6601),
            order=PermutationOrder(DeterministicRng(6602)),
        )
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(5),
            SessionOptions(readback_batch_frames=32, record_trace=True),
        )
        assert result.report.accepted
        assert result.report.trace.counts_by_kind()["ICAP_readback_batch"] == (
            -(-SIM_MEDIUM.total_frames // 32)
        )

    def test_batch_capped_at_one_mtu_payload(self, stack):
        _, verifier = stack
        schedule = readback_schedule(verifier, list(range(1000)), batch_frames=1000)
        assert [len(command.frame_indices) for command in schedule] == [
            371,
            371,
            258,
        ]

    @pytest.mark.parametrize("batch", [0, -3])
    def test_nonpositive_batch_rejected(self, stack, batch):
        provisioned, verifier = stack
        with pytest.raises(ProtocolError, match="batch must be >= 1"):
            run_attestation(
                provisioned.prover,
                verifier,
                DeterministicRng(7),
                SessionOptions(readback_batch_frames=batch),
            )

    def test_incompatible_with_prover_side_mask(self, stack):
        provisioned, verifier = stack
        with pytest.raises(ProtocolError, match="incompatible"):
            run_attestation(
                provisioned.prover,
                verifier,
                DeterministicRng(6),
                SessionOptions(mask_at_prover=True, readback_batch_frames=4),
            )

    def test_fragment_at_wrong_base_slot_rejected(self, stack, monkeypatch):
        """The in-memory transport cannot reorder a fragment, so one that
        names the wrong plan slot is a protocol violation, not data."""
        provisioned, verifier = stack
        prover = provisioned.prover
        handle_batch = prover.handle_readback_batch
        monkeypatch.setattr(
            prover,
            "handle_readback_batch",
            lambda base_slot, frame_indices: handle_batch(base_slot + 1, frame_indices),
        )
        with pytest.raises(
            ProtocolError, match="ReadbackBatchResponse to ICAP_readback_batch"
        ):
            run_attestation(
                prover,
                verifier,
                DeterministicRng(8),
                SessionOptions(readback_batch_frames=16),
            )


class TestProverRangeHandling:
    @staticmethod
    def _batch_equals_singles(prover, plan):
        fragments = prover.handle_command(IcapReadbackBatchCommand(0, tuple(plan)))
        prover.abort_run()
        singles = b"".join(prover.handle_readback(i) for i in plan)
        prover.abort_run()
        return b"".join(fragment.data for fragment in fragments) == singles

    def test_range_equals_individual_readbacks(self, stack):
        provisioned, _ = stack
        assert self._batch_equals_singles(provisioned.prover, [0, 1, 2])

    def test_permutation_equals_individual_readbacks(self, stack):
        provisioned, _ = stack
        assert self._batch_equals_singles(provisioned.prover, [9, 2, 3, 4, 0, 17])

    def test_bad_count_rejected(self, stack):
        provisioned, _ = stack
        with pytest.raises(ProtocolError):
            provisioned.prover.handle_readback_range(0, 0)

"""Property-based tests for the FPGA substrate."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import build_sacha_system
from repro.errors import ReproError
from repro.fpga.bitstream import (
    Bitstream,
    BitstreamLoader,
    build_full_bitstream,
    build_partial_bitstream,
)
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import Icap
from repro.fpga.mask import MaskFile
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.utils.rng import DeterministicRng

FRAME_BYTES = SIM_SMALL.frame_bytes
TOTAL = SIM_SMALL.total_frames

frame_data = st.binary(min_size=FRAME_BYTES, max_size=FRAME_BYTES)
frame_indices = st.integers(min_value=0, max_value=TOTAL - 1)
register_bits = st.builds(
    RegisterBit,
    frame_index=frame_indices,
    word_index=st.integers(0, SIM_SMALL.words_per_frame - 1),
    bit_index=st.integers(0, 31),
)


class TestConfigMemoryProperties:
    @given(writes=st.lists(st.tuples(frame_indices, frame_data), max_size=20))
    @settings(max_examples=40)
    def test_last_write_wins(self, writes):
        memory = ConfigurationMemory(SIM_SMALL)
        last = {}
        for index, data in writes:
            memory.write_frame(index, data)
            last[index] = data
        for index, data in last.items():
            assert memory.read_frame(index) == data

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_snapshot_roundtrip(self, seed):
        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(seed))
        restored = ConfigurationMemory(SIM_SMALL)
        restored.load_snapshot(memory.snapshot())
        assert restored == memory

    @given(index=frame_indices, word=st.integers(0, SIM_SMALL.words_per_frame - 1),
           bit=st.integers(0, 31))
    @settings(max_examples=40)
    def test_double_flip_is_identity(self, index, word, bit):
        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(1))
        before = memory.snapshot()
        memory.flip_bit(index, word, bit)
        memory.flip_bit(index, word, bit)
        assert memory.snapshot() == before


class TestBitstreamProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        targets=st.sets(frame_indices, min_size=1, max_size=TOTAL),
    )
    @settings(max_examples=25, deadline=None)
    def test_partial_bitstream_writes_exactly_target_frames(self, seed, targets):
        source = ConfigurationMemory(SIM_SMALL)
        source.randomize(DeterministicRng(seed))
        bitstream = build_partial_bitstream(source, targets, "prop")
        icap = Icap(ConfigurationMemory(SIM_SMALL))
        report = BitstreamLoader(icap).load(bitstream)
        assert sorted(report.frames_written) == sorted(targets)
        for index in range(TOTAL):
            expected = (
                source.read_frame(index) if index in targets else bytes(FRAME_BYTES)
            )
            assert icap.memory.read_frame(index) == expected


@functools.lru_cache(maxsize=None)
def _bitstream_blobs():
    """SIM-SMALL's static (boot) bitstream and a full random-memory one."""
    static = build_sacha_system(SIM_SMALL).static_bitstream().to_bytes()
    memory = ConfigurationMemory(SIM_SMALL)
    memory.randomize(DeterministicRng(3))
    return static, build_full_bitstream(memory, "mutated").to_bytes()


class TestBitstreamMutationProperties:
    """A bitstream damaged in a few bits is rejected with a typed error
    (or still loads, CRC-checked), never with a crash: the parser and
    loader are the prover's first line against crafted configuration
    input."""

    @given(
        which=st.sampled_from((0, 1)),
        flips=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_only_typed_errors_escape(self, which, flips):
        data = bytearray(_bitstream_blobs()[which])
        for flip in flips:
            position = flip % (len(data) * 8)
            data[position // 8] ^= 1 << (position % 8)
        try:
            bitstream = Bitstream.from_bytes(bytes(data))
            report = BitstreamLoader(Icap(ConfigurationMemory(SIM_SMALL))).load(
                bitstream
            )
        except ReproError:
            return
        assert report.crc_checks >= 1


class TestMaskProperties:
    @given(
        positions=st.sets(register_bits, max_size=30),
        data=frame_data,
        index=frame_indices,
    )
    @settings(max_examples=40)
    def test_masking_is_idempotent(self, positions, data, index):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)
        once = mask.apply_to_frame(index, data)
        assert mask.apply_to_frame(index, once) == once

    @given(positions=st.sets(register_bits, min_size=1, max_size=30), seed=st.integers(0, 999))
    @settings(max_examples=30)
    def test_mask_absorbs_any_register_state(self, positions, seed):
        """For every register state, masked readback equals masked config
        — the invariant the verifier's comparison stands on."""
        registers = LiveRegisterFile(SIM_SMALL)
        registers.declare(positions)
        registers.scramble(DeterministicRng(seed))
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)

        memory = ConfigurationMemory(SIM_SMALL)
        memory.randomize(DeterministicRng(seed + 1))
        for index in range(TOTAL):
            config = memory.read_frame(index)
            readback = registers.overlay_frame(index, config)
            assert mask.apply_to_frame(index, readback) == mask.apply_to_frame(
                index, config
            )

    @given(positions=st.sets(register_bits, max_size=30))
    @settings(max_examples=30)
    def test_masked_bit_count_equals_positions(self, positions):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(positions)
        assert mask.masked_bit_count() == len(positions)

"""Unit tests for the three CRC variants."""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.crc import Crc16Ccitt, Crc32, XilinxBitstreamCrc, crc32


class TestCrc32:
    def test_matches_zlib(self):
        for message in (b"", b"123456789", b"hello world" * 50):
            assert crc32(message) == zlib.crc32(message)

    def test_check_value(self):
        # The classic CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_incremental_equals_oneshot(self):
        crc = Crc32()
        crc.update(b"hello ").update(b"world")
        assert crc.digest() == crc32(b"hello world")

    def test_digest_bytes_little_endian(self):
        value = crc32(b"abc")
        assert Crc32().update(b"abc").digest_bytes() == value.to_bytes(4, "little")

    def test_sensitive_to_single_bit(self):
        assert crc32(b"\x00\x00") != crc32(b"\x00\x01")


class TestCrc16Ccitt:
    def test_check_value(self):
        # CRC-16/CCITT-FALSE check value for "123456789".
        assert Crc16Ccitt().update(b"123456789").digest() == 0x29B1

    def test_empty_is_init_value(self):
        assert Crc16Ccitt().digest() == 0xFFFF

    def test_incremental(self):
        split = Crc16Ccitt().update(b"12345").update(b"6789").digest()
        assert split == Crc16Ccitt().update(b"123456789").digest()


class TestXilinxBitstreamCrc:
    def test_covers_register_address(self):
        a = XilinxBitstreamCrc()
        b = XilinxBitstreamCrc()
        a.feed(2, 0xDEADBEEF)
        b.feed(3, 0xDEADBEEF)
        assert a.digest() != b.digest()

    def test_check_resets(self):
        crc = XilinxBitstreamCrc()
        crc.feed(1, 0x1234)
        expected = crc.digest()
        assert crc.check(expected)
        assert crc.digest() == 0

    def test_check_failure_also_resets(self):
        crc = XilinxBitstreamCrc()
        crc.feed(1, 0x1234)
        assert not crc.check(0xBAD)
        assert crc.digest() == 0

    def test_feed_words(self):
        a = XilinxBitstreamCrc()
        a.feed_words(2, [1, 2, 3])
        b = XilinxBitstreamCrc()
        for word in (1, 2, 3):
            b.feed(2, word)
        assert a.digest() == b.digest()

    def test_register_range(self):
        with pytest.raises(ValueError):
            XilinxBitstreamCrc().feed(32, 0)
        with pytest.raises(ValueError):
            XilinxBitstreamCrc().feed_words(32, [0])


def _scalar_crc(state, register, words):
    """The per-record oracle: :meth:`XilinxBitstreamCrc.feed` per word."""
    crc = XilinxBitstreamCrc()
    crc._state = state
    for word in words:
        crc.feed(register, word)
    return crc.digest()


def _block_crc(state, register, words):
    crc = XilinxBitstreamCrc()
    crc._state = state
    crc.feed_words(register, words)
    return crc.digest()


class TestBlockCrcAgainstScalar:
    """``feed_words`` folds a payload as one XOR tree; ``feed`` is the
    per-record byte loop it must equal."""

    @pytest.mark.parametrize(
        "length", [0, 1, 2, 3, 7, 31, 33, 63, 64, 65, 255, 256, 257, 1023, 1025]
    )
    @pytest.mark.parametrize("register", [0, 2, 31])
    def test_lengths(self, length, register):
        rng = random.Random(length * 32 + register)
        words = [rng.getrandbits(32) for _ in range(length)]
        state = rng.getrandbits(32)
        assert _block_crc(state, register, words) == _scalar_crc(
            state, register, words
        )

    def test_full_device_payload(self):
        # As many words as the FDRI bursts of one XC6VLX240T board load.
        rng = random.Random(169128)
        words = [rng.getrandbits(32) for _ in range(169128)]
        assert _block_crc(0xC0FFEE, 2, words) == _scalar_crc(0xC0FFEE, 2, words)

    def test_uint32_array_equals_list(self):
        words = [0xFFFFFFFF, 0, 0x12345678, 0x80000000, 1]
        assert _block_crc(7, 2, np.array(words, dtype=">u4")) == _block_crc(
            7, 2, words
        )

    def test_empty_payload_keeps_state(self):
        assert _block_crc(0xDEADBEEF, 5, []) == 0xDEADBEEF

    @settings(max_examples=60, deadline=None)
    @given(
        state=st.integers(min_value=0, max_value=0xFFFFFFFF),
        register=st.integers(min_value=0, max_value=31),
        words=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=300),
        cut=st.integers(min_value=0, max_value=300),
    )
    def test_random_payloads_and_splits(self, state, register, words, cut):
        expected = _scalar_crc(state, register, words)
        assert _block_crc(state, register, words) == expected
        crc = XilinxBitstreamCrc()
        crc._state = state
        crc.feed_words(register, words[:cut])
        crc.feed_words(register, words[cut:])
        assert crc.digest() == expected

"""SHA-256 tests against FIPS vectors, the standard library and the
from-scratch FIPS 180-4 oracle (``tests/crypto/sha256_oracle.py``)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import Sha256, sha256
from tests.crypto.sha256_oracle import OracleSha256, oracle_sha256

#: FIPS 180-4 / NIST example messages and their digests.
FIPS_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


class TestKnownVectors:
    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(message).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )


class TestAgainstHashlib:
    @pytest.mark.parametrize(
        "length", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000]
    )
    def test_padding_boundaries(self, length):
        message = bytes(i % 256 for i in range(length))
        assert sha256(message) == hashlib.sha256(message).digest()


class TestIncremental:
    def test_chunked_equals_oneshot(self):
        message = b"0123456789" * 100
        hasher = Sha256()
        for start in range(0, len(message), 37):
            hasher.update(message[start : start + 37])
        assert hasher.digest() == sha256(message)

    def test_digest_is_nondestructive(self):
        hasher = Sha256().update(b"part one")
        first = hasher.digest()
        assert hasher.digest() == first
        hasher.update(b" part two")
        assert hasher.digest() == sha256(b"part one part two")

    def test_hexdigest(self):
        assert Sha256().update(b"abc").hexdigest() == sha256(b"abc").hex()


class TestAgainstOracle:
    """The hashlib wrapper against the from-scratch compression function."""

    @pytest.mark.parametrize("message,expected", FIPS_VECTORS)
    def test_oracle_known_answers(self, message, expected):
        assert oracle_sha256(message).hex() == expected
        assert OracleSha256().update(message).hexdigest() == expected

    def test_every_length_through_two_blocks(self):
        # 0-200 covers every padding case: 55/56 (length field fits or
        # spills), 63/64 (block boundary), 119/120 and three full blocks.
        for length in range(201):
            message = bytes((7 * i + length) % 256 for i in range(length))
            expected = oracle_sha256(message)
            assert sha256(message) == expected, length
            assert Sha256().update(message).digest() == expected, length

    @settings(max_examples=60, deadline=None)
    @given(
        message=st.binary(max_size=300),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
    )
    def test_incremental_splits(self, message, cuts):
        bounds = sorted({0, len(message), *(c for c in cuts if c <= len(message))})
        hasher = Sha256()
        oracle = OracleSha256()
        for start, end in zip(bounds, bounds[1:]):
            hasher.update(message[start:end])
            oracle.update(message[start:end])
            assert hasher.digest() == oracle.digest()
        assert hasher.digest() == oracle_sha256(message)

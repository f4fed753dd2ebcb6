"""AES tests against the FIPS-197 vectors plus structural checks.

The known-answer vectors run against both cipher backends — the
``reference`` oracle and the runtime ``native`` platform AES — and both
must produce the FIPS-197 ciphertexts bit for bit.
"""

import pytest

from repro.crypto.aes import BLOCK_SIZE, SBOX, Aes
from repro.perf.backends import get_cipher

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

BACKENDS = ("reference", "native")

#: (key hex, expected ciphertext hex) — FIPS-197 appendix C.
FIPS197_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestFips197Vectors:
    @pytest.mark.parametrize("key_hex,expected", FIPS197_VECTORS)
    def test_reference_class(self, key_hex, expected):
        aes = Aes(bytes.fromhex(key_hex))
        assert aes.encrypt_block(PLAINTEXT).hex() == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key_hex,expected", FIPS197_VECTORS)
    def test_every_backend(self, backend, key_hex, expected):
        cipher = get_cipher(bytes.fromhex(key_hex), backend)
        assert cipher.encrypt_block(PLAINTEXT).hex() == expected

    def test_rounds_by_key_size(self):
        assert Aes(bytes(16)).rounds == 10
        assert Aes(bytes(24)).rounds == 12
        assert Aes(bytes(32)).rounds == 14


class TestSbox:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_known_sbox_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED


class TestInputValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            Aes(bytes(15))

    def test_bad_block_length(self):
        aes = Aes(bytes(16))
        with pytest.raises(ValueError):
            aes.encrypt_block(bytes(BLOCK_SIZE - 1))


class TestDiffusion:
    def test_single_bit_flip_changes_half_the_output(self):
        aes = Aes(bytes(16))
        base = aes.encrypt_block(bytes(16))
        flipped = aes.encrypt_block(b"\x01" + bytes(15))
        differing = sum(
            (a ^ b).bit_count() for a, b in zip(base, flipped)
        )
        assert 30 <= differing <= 98  # ~64 expected for a good cipher

    def test_key_avalanche(self):
        base = Aes(bytes(16)).encrypt_block(bytes(16))
        other = Aes(b"\x01" + bytes(15)).encrypt_block(bytes(16))
        assert base != other

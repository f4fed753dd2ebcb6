"""AES block cipher, implemented from scratch.

The SACHa StatPart contains a low-area AES core feeding the CMAC unit
(Section 6.2 of the paper uses 128-bit AES).  This is a table-driven
software model of that core: four T-tables fold SubBytes, ShiftRows and
MixColumns into one lookup layer per round, which keeps the 28,488-frame
readback MAC tractable in pure Python.

Only encryption is modelled: CMAC and the PRF never decrypt.
"""

from __future__ import annotations

from typing import List

BLOCK_SIZE = 16

# --------------------------------------------------------------------------
# S-box construction (from first principles: inversion in GF(2^8) + affine)
# --------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Build the multiplicative inverse table via exp/log over generator 3.
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for exponent in range(255):
        exp[exponent] = value
        log[value] = exponent
        value = _gf_mul(value, 3)
    for exponent in range(255, 510):
        exp[exponent] = exp[exponent - 255]

    sbox = [0] * 256
    for byte in range(256):
        inv = 0 if byte == 0 else exp[255 - log[byte]]
        transformed = 0x63
        for shift in (0, 1, 2, 3, 4):
            transformed ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[byte] = transformed & 0xFF
    return sbox


SBOX = _build_sbox()


def _build_tables() -> List[List[int]]:
    """Encryption tables Te0..Te3."""
    te = [[0] * 256 for _ in range(4)]
    for byte in range(256):
        s = SBOX[byte]
        word = (
            (_gf_mul(s, 2) << 24)
            | (s << 16)
            | (s << 8)
            | _gf_mul(s, 3)
        )
        for column in range(4):
            te[column][byte] = ((word >> (8 * column)) | (word << (32 - 8 * column))) & 0xFFFFFFFF
    return te


_TE0, _TE1, _TE2, _TE3 = _build_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _sub_word(word: int) -> int:
    return (
        (SBOX[(word >> 24) & 0xFF] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


def _rot_word(word: int) -> int:
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


def expand_round_keys(key: bytes) -> List[int]:
    """The AES key schedule as ``4 * (rounds + 1)`` big-endian words."""
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
    nk = len(key) // 4
    rounds = nk + 6
    total = 4 * (rounds + 1)
    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, total):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp)) ^ (_RCON[i // nk - 1] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return words


class Aes:
    """AES-128/192/256 with precomputed round keys.

    The object is immutable after construction; ``encrypt_block`` is safe
    to call concurrently from the discrete-event simulator's callbacks.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self._key_words = len(key) // 4
        self._rounds = self._key_words + 6
        self._round_keys = expand_round_keys(key)

    @property
    def rounds(self) -> int:
        return self._rounds

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        keys = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ keys[0]
        s1 = int.from_bytes(block[4:8], "big") ^ keys[1]
        s2 = int.from_bytes(block[8:12], "big") ^ keys[2]
        s3 = int.from_bytes(block[12:16], "big") ^ keys[3]

        offset = 4
        for _ in range(self._rounds - 1):
            t0 = (
                _TE0[s0 >> 24]
                ^ _TE1[(s1 >> 16) & 0xFF]
                ^ _TE2[(s2 >> 8) & 0xFF]
                ^ _TE3[s3 & 0xFF]
                ^ keys[offset]
            )
            t1 = (
                _TE0[s1 >> 24]
                ^ _TE1[(s2 >> 16) & 0xFF]
                ^ _TE2[(s3 >> 8) & 0xFF]
                ^ _TE3[s0 & 0xFF]
                ^ keys[offset + 1]
            )
            t2 = (
                _TE0[s2 >> 24]
                ^ _TE1[(s3 >> 16) & 0xFF]
                ^ _TE2[(s0 >> 8) & 0xFF]
                ^ _TE3[s1 & 0xFF]
                ^ keys[offset + 2]
            )
            t3 = (
                _TE0[s3 >> 24]
                ^ _TE1[(s0 >> 16) & 0xFF]
                ^ _TE2[(s1 >> 8) & 0xFF]
                ^ _TE3[s2 & 0xFF]
                ^ keys[offset + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            offset += 4

        sbox = SBOX
        out0 = (
            (sbox[s0 >> 24] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ keys[offset]
        out1 = (
            (sbox[s1 >> 24] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ keys[offset + 1]
        out2 = (
            (sbox[s2 >> 24] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ keys[offset + 2]
        out3 = (
            (sbox[s3 >> 24] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ keys[offset + 3]
        return (
            out0.to_bytes(4, "big")
            + out1.to_bytes(4, "big")
            + out2.to_bytes(4, "big")
            + out3.to_bytes(4, "big")
        )


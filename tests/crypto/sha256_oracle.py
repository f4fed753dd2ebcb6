"""From-scratch SHA-256: the oracle ``repro.crypto.sha256`` is held to.

The straightforward FIPS 180-4 compression function in pure Python.
Tests compare the runtime ``hashlib`` wrapper against it, the way the
``reference`` AES is the oracle for the ``native`` cipher.
"""

from __future__ import annotations

import struct
from typing import List

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_INITIAL_STATE = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_MASK = 0xFFFFFFFF


def _rotr(value: int, amount: int) -> int:
    return ((value >> amount) | (value << (32 - amount))) & _MASK


class OracleSha256:
    """Incremental SHA-256, one pure-Python compression per 64-byte block."""

    DIGEST_SIZE = 32
    BLOCK_SIZE = 64

    def __init__(self) -> None:
        self._state = list(_INITIAL_STATE)
        self._buffer = b""
        self._length = 0

    def update(self, data: bytes) -> "OracleSha256":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= self.BLOCK_SIZE:
            self._compress(self._buffer[: self.BLOCK_SIZE])
            self._buffer = self._buffer[self.BLOCK_SIZE :]
        return self

    def _compress(self, block: bytes) -> None:
        w: List[int] = list(struct.unpack(">16I", block))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

        a, b, c, d, e, f, g, h = self._state
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & _MASK, c, b, a, (temp1 + temp2) & _MASK,
            )

        state = self._state
        for index, value in enumerate((a, b, c, d, e, f, g, h)):
            state[index] = (state[index] + value) & _MASK

    def digest(self) -> bytes:
        clone = OracleSha256()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        clone._length = self._length
        padding = (
            b"\x80"
            + bytes((55 - self._length) % 64)
            + struct.pack(">Q", self._length * 8)
        )
        clone.update(padding)
        assert not clone._buffer, "padding must end on a block boundary"
        return b"".join(word.to_bytes(4, "big") for word in clone._state)

    def hexdigest(self) -> str:
        return self.digest().hex()


def oracle_sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest."""
    return OracleSha256().update(data).digest()

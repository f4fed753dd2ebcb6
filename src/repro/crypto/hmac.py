"""HMAC-SHA256 (RFC 2104), built on :mod:`repro.crypto.sha256`.

SACHa itself uses AES-CMAC; HMAC is provided for the software baselines
(SWATT-style checksums, Perito–Tsudik MAC variant) and as a second MAC
option in the prover, mirroring the paper's note that the checksum
algorithm is a protocol parameter.
"""

from __future__ import annotations

from repro.crypto.sha256 import Sha256, sha256

_BLOCK = 64
_IPAD = 0x36
_OPAD = 0x5C


class HmacSha256:
    """Incremental HMAC-SHA256."""

    DIGEST_SIZE = 32

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK:
            key = sha256(key)
        key = key + bytes(_BLOCK - len(key))
        self._outer_key = bytes(byte ^ _OPAD for byte in key)
        self._inner = Sha256().update(bytes(byte ^ _IPAD for byte in key))

    def update(self, data: bytes) -> "HmacSha256":
        self._inner.update(data)
        return self

    def finalize(self) -> bytes:
        return sha256(self._outer_key + self._inner.digest())


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """One-shot HMAC-SHA256."""
    return HmacSha256(key).update(message).finalize()

"""SHA-256 on the platform hash (``hashlib``).

Used by the PUF fuzzy extractor (key derivation from the corrected
response), the placer and bitstream generator's seeded streams, the KDF,
HMAC and the Perito–Tsudik baseline's checksum option.  The digest is the
FIPS 180-4 SHA-256; the from-scratch compression function in
``tests/crypto/sha256_oracle.py`` is the known-answer and property
oracle these wrappers are held to.
"""

from __future__ import annotations

import hashlib


class Sha256:
    """Incremental SHA-256."""

    DIGEST_SIZE = 32
    BLOCK_SIZE = 64

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, data: bytes) -> "Sha256":
        self._hash.update(data)
        return self

    def digest(self) -> bytes:
        """The digest of everything absorbed so far; the hash stays open."""
        return self._hash.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest."""
    return hashlib.sha256(data).digest()

"""The AES-CMAC block cipher: one runtime backend and its test oracle.

The incremental CMAC chain is ``state = E_K(state XOR block)`` for every
16-byte block, followed by one subkey-treated final block.  Everything a
cipher must provide is therefore two operations:

* ``encrypt_block`` — one raw AES encryption (subkey derivation and the
  final block);
* ``fold`` — absorb a whole buffer of complete blocks into the chain.

Two implementations exist, byte-identical (known-answer and property
tests enforce it):

``native``
    The runtime cipher every :class:`repro.crypto.cmac.AesCmac` uses:
    platform AES (OpenSSL through ``cryptography``) with the CBC
    identity — CBC-encrypting the buffer with IV = state yields the
    chain state as the last ciphertext block.

``reference``
    The seed's from-scratch :class:`repro.crypto.aes.Aes`, one
    ``encrypt_block`` call per block.  Dependency free and the ground
    truth: the test oracle the KAT and equivalence suites compare
    ``native`` against.  Nothing selects it at runtime.
"""

from __future__ import annotations

from typing import Optional, Union

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.aes import BLOCK_SIZE, Aes
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.utils.bitops import xor_bytes

BACKEND_REFERENCE = "reference"
BACKEND_NATIVE = "native"

BytesLike = Union[bytes, bytearray, memoryview]


# (registry, generation, counter) for the fold counter: folds run once
# per MAC'd frame, so the registry's locked lookup is cached away.
_FOLD_COUNTER = None


def _count_fold(backend: str, blocks: int) -> None:
    """Perf counter: blocks absorbed per backend (no-op when obs is off)."""
    global _FOLD_COUNTER
    registry = get_registry()
    if not registry.enabled:
        return
    cached = _FOLD_COUNTER
    if (
        cached is None
        or cached[0] is not registry
        or cached[1] != registry.generation
        or cached[2] != backend
    ):
        counter = registry.counter(
            "sacha_mac_blocks_folded_total",
            "AES-CMAC blocks folded into chain state, by backend",
            labels=("backend",),
        )
        cached = (
            registry,
            registry.generation,
            backend,
            counter.series(backend=backend),
        )
        _FOLD_COUNTER = cached
    cached[3].inc(blocks)


class ReferenceCipher:
    """The seed implementation: one object-churning call per block."""

    name = BACKEND_REFERENCE

    def __init__(self, key: bytes) -> None:
        self._aes = Aes(key)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def fold(self, state: bytes, buffer: BytesLike) -> bytes:
        data = bytes(buffer)
        encrypt = self._aes.encrypt_block
        for offset in range(0, len(data), BLOCK_SIZE):
            state = encrypt(xor_bytes(state, data[offset : offset + BLOCK_SIZE]))
        _count_fold(self.name, len(data) // BLOCK_SIZE)
        return state


class NativeCipher:
    """Platform AES (OpenSSL through ``cryptography``): CBC-identity fold."""

    name = BACKEND_NATIVE

    def __init__(self, key: bytes) -> None:
        self._algorithm = algorithms.AES(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        encryptor = Cipher(self._algorithm, modes.ECB()).encryptor()
        return encryptor.update(block) + encryptor.finalize()

    def fold(self, state: bytes, buffer: BytesLike) -> bytes:
        length = len(buffer)
        if length % BLOCK_SIZE:
            raise ValueError(f"fold needs whole blocks, got {length} bytes")
        if not length:
            return state
        # CBC with IV = state computes c_i = E(c_{i-1} XOR m_i): exactly
        # the CMAC chain, so the final ciphertext block IS the new state.
        encryptor = Cipher(self._algorithm, modes.CBC(bytes(state))).encryptor()
        ciphertext = encryptor.update(bytes(buffer))
        _count_fold(self.name, length // BLOCK_SIZE)
        return ciphertext[-BLOCK_SIZE:]


CipherLike = Union[ReferenceCipher, NativeCipher]


def get_cipher(key: bytes, backend: Optional[str] = None) -> CipherLike:
    """The chain cipher for ``key``: ``native`` unless a test names the
    ``reference`` oracle."""
    if backend is None or backend == BACKEND_NATIVE:
        return NativeCipher(key)
    if backend == BACKEND_REFERENCE:
        return ReferenceCipher(key)
    raise ReproError(
        f"unknown AES backend {backend!r}; "
        f"choose {BACKEND_NATIVE} or {BACKEND_REFERENCE}"
    )

"""The AES-CMAC block cipher: one runtime backend and its test oracle.

The incremental CMAC chain is ``state = E_K(state XOR block)`` for every
16-byte block, followed by one subkey-treated final block.  Everything a
cipher must provide is therefore two operations:

* ``encrypt_block`` — one raw AES encryption (subkey derivation);
* ``chain`` — a fresh chain at the zero state, returned as a ``fold``
  function: ``fold(buffer)`` absorbs a buffer of complete blocks and
  returns the new chain state.  Each :class:`repro.crypto.cmac.AesCmac`
  makes one chain and pushes every block through it, the
  subkey-treated final block included (its chain state is the tag).

Two implementations exist, byte-identical (known-answer and property
tests enforce it):

``native``
    The runtime cipher every :class:`repro.crypto.cmac.AesCmac` uses:
    platform AES (OpenSSL through ``cryptography``) with the CBC
    identity — CBC with IV = 0 computes ``c_i = E(c_{i-1} XOR m_i)``, so
    the last ciphertext block is the chain state.  One CBC encryptor
    serves the whole MAC: a full-device MAC builds two OpenSSL contexts
    (the ECB subkey block and the chain), not one per frame.

``reference``
    The seed's from-scratch :class:`repro.crypto.aes.Aes`, one
    ``encrypt_block`` call per block, its chain state closed over.
    Dependency free and the ground truth: the test oracle the KAT and
    equivalence suites compare ``native`` against.  Nothing selects it
    at runtime.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.aes import BLOCK_SIZE, Aes
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.utils.bitops import xor_bytes

BACKEND_REFERENCE = "reference"
BACKEND_NATIVE = "native"

BytesLike = Union[bytes, bytearray, memoryview]

#: A CMAC chain: absorb whole blocks, return the chain state.
Fold = Callable[[BytesLike], bytes]


# (registry, generation, counter) for the fold counter: folds run once
# per MAC'd frame, so the registry's locked lookup is cached away.
_FOLD_COUNTER = None


def count_folded_blocks(backend: str, blocks: int) -> None:
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


def _check_whole_blocks(length: int) -> None:
    if length % BLOCK_SIZE:
        raise ValueError(f"fold needs whole blocks, got {length} bytes")


class ReferenceCipher:
    """The seed implementation: one object-churning call per block."""

    name = BACKEND_REFERENCE

    def __init__(self, key: bytes) -> None:
        self._aes = Aes(key)

    def encrypt_block(self, block: bytes) -> bytes:
        return self._aes.encrypt_block(block)

    def chain(self) -> Fold:
        encrypt = self._aes.encrypt_block
        state = bytes(BLOCK_SIZE)

        def fold(buffer: BytesLike) -> bytes:
            nonlocal state
            data = bytes(buffer)
            _check_whole_blocks(len(data))
            for offset in range(0, len(data), BLOCK_SIZE):
                state = encrypt(xor_bytes(state, data[offset : offset + BLOCK_SIZE]))
            return state

        return fold


class NativeCipher:
    """Platform AES (OpenSSL through ``cryptography``): one CBC chain."""

    name = BACKEND_NATIVE

    def __init__(self, key: bytes) -> None:
        self._algorithm = algorithms.AES(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        encryptor = Cipher(self._algorithm, modes.ECB()).encryptor()
        return encryptor.update(block) + encryptor.finalize()

    def chain(self) -> Fold:
        # The encryptor carries the last ciphertext block between
        # updates, so consecutive updates continue one CBC stream.
        update = Cipher(self._algorithm, modes.CBC(bytes(BLOCK_SIZE))).encryptor().update
        state = bytes(BLOCK_SIZE)

        def fold(buffer: BytesLike) -> bytes:
            nonlocal state
            _check_whole_blocks(len(buffer))
            if len(buffer):
                state = update(buffer)[-BLOCK_SIZE:]
            return state

        return fold


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

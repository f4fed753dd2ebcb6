"""Cryptographic primitives for the SACHa reproduction.

Software models of the hardware cores in the StatPart (AES, AES-CMAC) and
the auxiliary algorithms the baselines and the PUF pipeline need (SHA-256,
HMAC, AES-CTR PRF, KDF).  The two hot primitives run natively: the
AES-CMAC chain on the platform AES (OpenSSL through ``cryptography``)
and SHA-256 on ``hashlib``.  The from-scratch AES stays here: it is the
``reference`` oracle of the CMAC chain and runs the baselines' AES-CTR
PRF.  The from-scratch SHA-256 is the test oracle in ``tests/crypto``.
"""

from repro.crypto.aes import BLOCK_SIZE, Aes
from repro.crypto.cmac import AesCmac, aes_cmac
from repro.crypto.hmac import HmacSha256, hmac_sha256
from repro.crypto.kdf import derive_key, derive_mac_key
from repro.crypto.prf import AesCtrKeystream, prf_bytes
from repro.crypto.sha256 import Sha256, sha256

__all__ = [
    "BLOCK_SIZE",
    "Aes",
    "AesCmac",
    "aes_cmac",
    "HmacSha256",
    "hmac_sha256",
    "derive_key",
    "derive_mac_key",
    "AesCtrKeystream",
    "prf_bytes",
    "Sha256",
    "sha256",
]

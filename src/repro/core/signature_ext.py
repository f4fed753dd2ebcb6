"""The signature extension of Section 8.

"Another possible extension is to add a signature mechanism to the
system when it is not possible to exchange a secret key between the
prover and the verifier before deployment."

Instead of AES-CMAC under a pre-shared key, the prover hashes the
readback stream incrementally and signs the digest with a Schnorr key
derived from its PUF secret.  Only the *public* key leaves the device —
it can be published or certified, so verifier and prover need no shared
secret, and any third party can verify an attestation transcript.

The protocol shape is unchanged: the same three commands, the same
Init/Update/Finalize structure (the signature replaces the MAC tag in
the ``MAC_checksum`` response, at 288 instead of 16 bytes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrPublicKey,
    SchnorrSignature,
    keypair_from_seed,
    sign,
    verify,
)
from repro.crypto.sha256 import Sha256
from repro.core.orders import ReadbackOrder
from repro.core.prover import ChecksumEngine, KeyProvider, SachaProver
from repro.core.verifier import SachaVerifier, VerifierPolicy
from repro.design.sacha_design import SachaSystemDesign
from repro.errors import ProvisioningError
from repro.fpga.board import Board
from repro.net.messages import ReadbackResponse
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.core.provisioning import ProvisionedDevice, VerifierRecord

SIGNATURE_DOMAIN = b"sacha/signature-ext/v1"


class SigningEngine(ChecksumEngine):
    """Incremental digest, signed on finalize."""

    def __init__(self, keypair: SchnorrKeyPair) -> None:
        self._keypair = keypair
        self._digest = Sha256().update(SIGNATURE_DOMAIN)

    def update(self, data: bytes) -> None:
        self._digest.update(data)

    def finalize(self) -> bytes:
        return sign(self._keypair, self._digest.digest()).encode()


class SigningProver(SachaProver):
    """A prover whose checksum engine signs instead of MACing.

    ``key_provider`` supplies the PUF-derived device secret that seeds
    the signing keypair — exactly the role it plays for the MAC key, so
    the private key never exists outside the silicon either.
    """

    def __init__(
        self,
        board: Board,
        key_provider: KeyProvider,
        device_id: str = "prv-sig",
    ) -> None:
        super().__init__(board, key_provider, device_id=device_id)

    def _keypair(self) -> SchnorrKeyPair:
        return keypair_from_seed(self._key_provider.mac_key())

    def public_key(self) -> SchnorrPublicKey:
        """The verification key — safe to publish at provisioning time."""
        return self._keypair().public

    def _new_checksum(self) -> ChecksumEngine:
        return SigningEngine(self._keypair())


class SignatureVerifier(SachaVerifier):
    """Verifies a Schnorr signature over the readback digest.

    Holds only the prover's *public* key; the base key parameter is a
    placeholder (the MAC path is never exercised).
    """

    def __init__(
        self,
        system: SachaSystemDesign,
        public_key: SchnorrPublicKey,
        rng: DeterministicRng,
        order: Optional[ReadbackOrder] = None,
        policy: Optional[VerifierPolicy] = None,
    ) -> None:
        super().__init__(system, bytes(16), rng, order=order, policy=policy)
        self._public_key = public_key

    def mac_stream(self) -> None:
        """Signatures cannot be pre-folded into an expected tag: the
        check verifies the prover's signature over the digest instead of
        recomputing a shared-key MAC, so the attestation run falls back
        to the full :meth:`_check_authenticity` pass."""
        return None

    def _check_authenticity(
        self,
        responses: Sequence[ReadbackResponse],
        tag: bytes,
        expected_tag: Optional[bytes] = None,
    ) -> bool:
        digest = Sha256().update(SIGNATURE_DOMAIN)
        for response in responses:
            digest.update(response.data)
        try:
            signature = SchnorrSignature.decode(tag)
        except ValueError:
            return False
        return verify(self._public_key, digest.digest(), signature)


def upgrade_to_signatures(
    provisioned: ProvisionedDevice, record: VerifierRecord
) -> Tuple[SigningProver, SchnorrPublicKey]:
    """Convert a provisioned (device, record) pair to signature mode.

    Returns ``(SigningProver, SchnorrPublicKey)``; the verifier should
    be built with :class:`SignatureVerifier` and the public key.  The
    verifier record's MAC key becomes unnecessary — deployment no longer
    needs a confidential provisioning channel for key material.
    """
    if provisioned.key_provider is None:
        raise ProvisioningError("device has no key material to derive from")
    prover = SigningProver(
        provisioned.board,
        provisioned.key_provider,
        device_id=provisioned.device_id,
    )
    return prover, prover.public_key()

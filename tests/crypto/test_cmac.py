"""AES-CMAC tests against the RFC 4493 vectors and incremental semantics.

The NIST SP 800-38B / RFC 4493 known answers run against both MAC
backends — the reference model (the oracle) and the runtime
platform-AES native fold.
"""

import pytest

from repro.crypto.cmac import AesCmac, aes_cmac

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

BACKENDS = ("reference", "native")

#: (message length, expected tag hex) — RFC 4493 section 4.
RFC4493_VECTORS = [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
]


@pytest.mark.parametrize("backend", BACKENDS)
class TestRfc4493Vectors:
    @pytest.mark.parametrize("length,expected", RFC4493_VECTORS)
    def test_known_answer(self, backend, length, expected):
        assert aes_cmac(RFC_KEY, RFC_MSG[:length], backend=backend).hex() == expected

    @pytest.mark.parametrize("length,expected", RFC4493_VECTORS)
    def test_known_answer_via_update_frames(self, backend, length, expected):
        mac = AesCmac(RFC_KEY, backend=backend)
        mac.update_frames([RFC_MSG[:length]])
        assert mac.finalize().hex() == expected

    def test_backend_name_reported(self, backend):
        assert AesCmac(RFC_KEY, backend=backend).backend == backend


class TestIncremental:
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 17, 324])
    def test_chunked_equals_oneshot(self, chunk_size):
        mac = AesCmac(RFC_KEY)
        for start in range(0, len(RFC_MSG), chunk_size):
            mac.update(RFC_MSG[start : start + chunk_size])
        assert mac.finalize() == aes_cmac(RFC_KEY, RFC_MSG)

    def test_frame_sized_updates_match_paper_usage(self):
        """The prover updates once per 324-byte frame; same tag as one-shot."""
        frames = [bytes([i]) * 324 for i in range(5)]
        mac = AesCmac(RFC_KEY)
        for frame in frames:
            mac.update(frame)
        assert mac.finalize() == aes_cmac(RFC_KEY, b"".join(frames))

    def test_update_after_finalize_raises(self):
        mac = AesCmac(RFC_KEY)
        mac.update(b"x").finalize()
        with pytest.raises(ValueError):
            mac.update(b"more")

    def test_double_finalize_raises(self):
        mac = AesCmac(RFC_KEY)
        mac.finalize()
        with pytest.raises(ValueError):
            mac.finalize()


class TestSecurityProperties:
    def test_key_separation(self):
        assert aes_cmac(bytes(16), b"msg") != aes_cmac(b"\x01" + bytes(15), b"msg")

    def test_message_sensitivity(self):
        assert aes_cmac(RFC_KEY, b"msg0") != aes_cmac(RFC_KEY, b"msg1")

    def test_order_sensitivity(self):
        """Reordering frames changes the MAC — the basis of the
        readback-order freshness argument (Section 7.2)."""
        frame_a, frame_b = b"A" * 324, b"B" * 324
        assert aes_cmac(RFC_KEY, frame_a + frame_b) != aes_cmac(
            RFC_KEY, frame_b + frame_a
        )

    def test_length_extension_blocked_by_padding(self):
        assert aes_cmac(RFC_KEY, b"ab") != aes_cmac(RFC_KEY, b"ab\x80")

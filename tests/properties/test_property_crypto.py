"""Property-based tests (hypothesis) for the crypto primitives."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import Aes
from repro.crypto.cmac import AesCmac, aes_cmac
from repro.crypto.prf import AesCtrKeystream
from repro.crypto.sha256 import sha256

keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
messages = st.binary(min_size=0, max_size=600)


class TestAesProperties:
    @given(key=keys, block=blocks, other=blocks)
    @settings(max_examples=30)
    def test_encryption_is_a_permutation(self, key, block, other):
        # Injectivity: distinct blocks under one key never collide.
        aes = Aes(key)
        same = aes.encrypt_block(block) == aes.encrypt_block(other)
        assert same == (block == other)


class TestCmacProperties:
    @given(key=keys, message=messages, split=st.integers(min_value=0, max_value=600))
    @settings(max_examples=60)
    def test_any_split_equals_oneshot(self, key, message, split):
        split = min(split, len(message))
        mac = AesCmac(key)
        mac.update(message[:split])
        mac.update(message[split:])
        assert mac.finalize() == aes_cmac(key, message)

    @given(key=keys, message=messages)
    @settings(max_examples=40)
    def test_tag_is_16_bytes(self, key, message):
        assert len(aes_cmac(key, message)) == 16

    @given(key=keys, a=messages, b=messages)
    @settings(max_examples=40)
    def test_distinct_messages_distinct_tags(self, key, a, b):
        if a != b:
            assert aes_cmac(key, a) != aes_cmac(key, b)

    @given(message=messages)
    @settings(max_examples=30)
    def test_distinct_keys_distinct_tags(self, message):
        assert aes_cmac(bytes(16), message) != aes_cmac(
            b"\x01" + bytes(15), message
        )


class TestSha256Properties:
    @given(message=st.binary(min_size=0, max_size=300))
    @settings(max_examples=60)
    def test_matches_hashlib(self, message):
        assert sha256(message) == hashlib.sha256(message).digest()


class TestKeystreamProperties:
    @given(
        key=keys,
        chunks=st.lists(st.integers(min_value=0, max_value=50), max_size=8),
    )
    @settings(max_examples=40)
    def test_chunking_never_changes_the_stream(self, key, chunks):
        total = sum(chunks)
        whole = AesCtrKeystream(key).read(total)
        stream = AesCtrKeystream(key)
        pieces = b"".join(stream.read(count) for count in chunks)
        assert pieces == whole

"""Property tests: the runtime AES computes the same MACs as the oracle.

The ``native`` cipher is only admissible because it is byte-identical
to the ``reference`` model.  Hypothesis drives random keys, random
frame streams (including empty and non-frame-aligned chunks), and
random chunk splits through both backends and both update styles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cmac import AesCmac, aes_cmac
from repro.perf.backends import get_cipher

BACKENDS = ("reference", "native")

keys = st.binary(min_size=16, max_size=16)
frame_streams = st.lists(st.binary(min_size=0, max_size=700), max_size=8)


@settings(max_examples=50, deadline=None)
@given(key=keys, frames=frame_streams)
def test_backends_agree_on_frame_streams(key, frames):
    """Incremental MACs over the same stream agree across backends."""
    tags = set()
    for backend in BACKENDS:
        mac = AesCmac(key, backend=backend)
        for frame in frames:
            mac.update(frame)
        tags.add(mac.finalize())
    assert len(tags) == 1


@settings(max_examples=50, deadline=None)
@given(key=keys, frames=frame_streams)
def test_bulk_equals_incremental_per_backend(key, frames):
    """update_frames is byte-identical to per-frame update everywhere."""
    message = b"".join(frames)
    for backend in BACKENDS:
        bulk = AesCmac(key, backend=backend)
        bulk.update_frames(frames)
        assert bulk.finalize() == aes_cmac(key, message, backend=backend)


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_block_encryption_agrees(key, block):
    """Raw block encryption agrees for all AES key sizes."""
    outputs = {
        get_cipher(key, backend).encrypt_block(block) for backend in BACKENDS
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_fold_equals_block_chain(backend):
    """fold() is exactly the CBC-MAC chain of encrypt_block steps."""
    key = bytes(range(16))
    cipher = get_cipher(key, backend)
    buffer = bytes(range(250)) + bytes(70)  # 20 blocks, frame-sized
    state = bytes(16)
    folded = cipher.fold(bytes(16), buffer)
    for offset in range(0, len(buffer), 16):
        block = buffer[offset : offset + 16]
        state = cipher.encrypt_block(bytes(a ^ b for a, b in zip(state, block)))
    assert folded == state

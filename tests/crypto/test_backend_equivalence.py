"""Property tests: the runtime AES computes the same MACs as the oracle.

The ``native`` cipher is only admissible because it is byte-identical
to the ``reference`` model.  Hypothesis drives random keys, random
frame streams (including empty and non-frame-aligned chunks), random
chunk splits and random interleavings of ``update`` and
``update_frames`` through both backends' single per-MAC chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cmac import AesCmac, aes_cmac
from repro.obs.metrics import MetricsRegistry, set_registry
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
    """A chain's folds are exactly the CBC-MAC chain of encrypt_block
    steps, carried across calls (including an empty one)."""
    key = bytes(range(16))
    cipher = get_cipher(key, backend)
    buffer = bytes(range(250)) + bytes(70)  # 20 blocks, frame-sized
    fold = cipher.chain()
    for piece in (buffer[:64], b"", memoryview(buffer)[64:]):
        folded = fold(piece)
    state = bytes(16)
    for offset in range(0, len(buffer), 16):
        block = buffer[offset : offset + 16]
        state = cipher.encrypt_block(bytes(a ^ b for a, b in zip(state, block)))
    assert folded == state
    with pytest.raises(ValueError):
        fold(bytes(15))


#: One MAC session: each step is ``("update", chunk)`` or
#: ``("frames", [chunk, ...])``.
mac_steps = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.binary(max_size=70)),
        st.tuples(
            st.just("frames"), st.lists(st.binary(max_size=70), max_size=4)
        ),
    ),
    max_size=10,
)


def _run_steps(mac, steps):
    for kind, data in steps:
        if kind == "update":
            mac.update(data)
        else:
            mac.update_frames(data)
    return mac


def _absorbed(steps):
    return b"".join(
        data if kind == "update" else b"".join(data) for kind, data in steps
    )


@settings(max_examples=60, deadline=None)
@given(key=keys, steps=mac_steps)
def test_interleaved_updates_match_reference(key, steps):
    """One native chain under any mix of update/update_frames and any
    chunk split gives the reference tag of the concatenation."""
    message = _absorbed(steps)
    tag = _run_steps(AesCmac(key), steps).finalize()
    assert tag == aes_cmac(key, message, backend="reference")
    assert tag == _run_steps(AesCmac(key, backend="reference"), steps).finalize()


@settings(max_examples=30, deadline=None)
@given(key=keys, steps=mac_steps)
def test_folded_block_count_excludes_final_block(key, steps):
    """``sacha_mac_blocks_folded_total`` counts the absorbed blocks: every
    block but the subkey-treated last one, which finalize pushes through
    the same chain uncounted."""
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        mac = _run_steps(AesCmac(key), steps)
        mac.finalize()
        with pytest.raises(ValueError):
            mac.update(b"more")
    finally:
        set_registry(previous)
    length = len(_absorbed(steps))
    absorbed = max(0, (length - 1) // 16)
    counter = registry.counter(
        "sacha_mac_blocks_folded_total",
        "AES-CMAC blocks folded into chain state, by backend",
        labels=("backend",),
    )
    assert counter.value(backend="native") == absorbed

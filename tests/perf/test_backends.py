"""The cipher seam, AesCmac's absorb step, obs counters."""

import pytest

from repro.crypto.cmac import AesCmac
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.perf import set_config
from repro.perf.backends import get_cipher

KEY = bytes(range(16))

#: The runtime cipher and the oracle it is held to.
BACKENDS = ("reference", "native")


@pytest.fixture(autouse=True)
def _reset_config():
    yield
    set_config(None)


class TestCipherSeam:
    def test_native_despite_stale_backend_env(self, monkeypatch):
        # REPRO_AES_BACKEND once selected the cipher; the knob is gone,
        # and an environment that still sets it changes nothing.
        monkeypatch.setenv("REPRO_AES_BACKEND", "table")
        set_config(None)
        assert get_cipher(KEY).name == "native"
        assert AesCmac(KEY).backend == "native"

    @pytest.mark.parametrize("name", ["table", "auto", "quantum"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ReproError):
            get_cipher(KEY, name)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cipher_reports_its_name(self, backend):
        assert get_cipher(KEY, backend).name == backend


class TestFoldFrames:
    """AesCmac's one absorb step, through ``update_frames``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tail_is_never_empty_after_data(self, backend):
        mac = AesCmac(KEY, backend=backend).update_frames([b"\xaa" * 32])
        # The final block must stay buffered for subkey treatment.
        assert mac._buffer == b"\xaa" * 16
        assert mac._state != bytes(16)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equivalent_to_incremental(self, backend):
        frames = [bytes([i]) * 324 for i in range(4)]
        bulk = AesCmac(KEY, backend=backend).update_frames(frames)
        step = AesCmac(KEY, backend=backend)
        for frame in frames:
            step.update(frame)
        assert bulk.finalize() == step.finalize()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_short_input_stays_buffered(self, backend):
        mac = AesCmac(KEY, backend=backend).update(b"ab").update_frames([b"cd"])
        assert mac._state == bytes(16)
        assert mac._buffer == b"abcd"


class TestObservability:
    def test_fold_counts_blocks_by_backend(self):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            for backend in BACKENDS:
                # 64 bytes: three blocks absorbed, the last one kept for
                # finalize, which does not count it.
                AesCmac(KEY, backend=backend).update(bytes(64)).finalize()
        finally:
            set_registry(previous)
        counter = registry.counter(
            "sacha_mac_blocks_folded_total",
            "AES-CMAC blocks folded, by cipher backend",
            labels=("backend",),
        )
        assert counter.value(backend="native") == 3
        assert counter.value(backend="reference") == 3

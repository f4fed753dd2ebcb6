"""ReproConfig: validation, environment parsing, process-global scope."""

import pytest

from repro.errors import ReproError
from repro.perf import ReproConfig, configured, get_config, set_config
from repro.perf.config import _FALSY, _TRUTHY


@pytest.fixture(autouse=True)
def _reset_config():
    yield
    set_config(None)


class TestValidation:
    def test_defaults(self):
        config = ReproConfig()
        assert config.swarm_workers == 0
        assert config.arq_adaptive is True

    def test_unknown_backend_rejected(self):
        # The AES cipher is not configurable: every backend field is
        # unknown to the config.
        with pytest.raises(TypeError):
            ReproConfig(aes_backend="native")

    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError):
            ReproConfig(swarm_workers=-1)

    def test_with_overrides(self):
        config = ReproConfig().with_overrides(swarm_workers=3)
        assert config.swarm_workers == 3
        assert config.arq_window == 8


class TestEnvironment:
    # REPRO_AES_BACKEND once picked the AES backend; the knob is gone,
    # and an environment that still sets it gets the same configuration.
    def test_stale_backend_env_ignored(self, monkeypatch):
        baseline = ReproConfig.from_env()
        monkeypatch.setenv("REPRO_AES_BACKEND", "table")
        assert ReproConfig.from_env() == baseline

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWARM_WORKERS", "4")
        assert ReproConfig.from_env().swarm_workers == 4

    def test_bad_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWARM_WORKERS", "many")
        with pytest.raises(ReproError):
            ReproConfig.from_env()

    # REPRO_FRAME_FASTPATH once switched the vectorized frame paths off;
    # the switch is gone, and an environment that still sets it gets the
    # same configuration as one that does not.
    @pytest.mark.parametrize("token", sorted(_TRUTHY))
    def test_fastpath_truthy(self, monkeypatch, token):
        baseline = ReproConfig.from_env()
        monkeypatch.setenv("REPRO_FRAME_FASTPATH", token)
        assert ReproConfig.from_env() == baseline

    @pytest.mark.parametrize("token", sorted(_FALSY))
    def test_fastpath_falsy(self, monkeypatch, token):
        baseline = ReproConfig.from_env()
        monkeypatch.setenv("REPRO_FRAME_FASTPATH", token)
        assert ReproConfig.from_env() == baseline

    def test_fastpath_garbage_ignored(self, monkeypatch):
        baseline = ReproConfig.from_env()
        monkeypatch.setenv("REPRO_FRAME_FASTPATH", "maybe")
        assert ReproConfig.from_env() == baseline

    def test_arq_adaptive_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "0")
        assert ReproConfig.from_env().arq_adaptive is False
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "yes")
        assert ReproConfig.from_env().arq_adaptive is True

    def test_arq_adaptive_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARQ_ADAPTIVE", "sometimes")
        with pytest.raises(ReproError):
            ReproConfig.from_env()


class TestProcessGlobal:
    def test_set_and_get(self):
        set_config(ReproConfig(swarm_workers=3))
        assert get_config().swarm_workers == 3

    def test_configured_scopes_override(self):
        set_config(ReproConfig(arq_window=4))
        with configured(arq_window=1, swarm_workers=2):
            assert get_config().arq_window == 1
            assert get_config().swarm_workers == 2
        assert get_config().arq_window == 4
        assert get_config().swarm_workers == 0

    def test_configured_restores_on_error(self):
        set_config(ReproConfig())
        with pytest.raises(RuntimeError):
            with configured(swarm_workers=2):
                raise RuntimeError("boom")
        assert get_config().swarm_workers == 0

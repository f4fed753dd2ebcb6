"""Performance layer: the runtime AES-CMAC cipher and process config.

The SACHa hot path streams all 28,488 frames of a full device through an
incremental AES-CMAC twice (prover H_Prv and verifier H_Vrf) and then
mask-compares the readback against the golden bitstream.  ``repro.perf``
holds what makes that loop fast and tunable:

* :mod:`repro.perf.backends` — the ``native`` cipher (platform AES) every
  MAC runs on, and the from-scratch ``reference`` oracle the known-answer
  and property tests hold it to;
* :class:`ReproConfig` — swarm parallelism, ARQ window, readback batching
  and the artifact cache, from code or ``REPRO_*`` environment variables.

``benchmarks/bench_gate.py`` is the regression gate CI runs over the hot
path.
"""

from repro.perf.backends import (
    BACKEND_NATIVE,
    BACKEND_REFERENCE,
    get_cipher,
)
from repro.perf.config import (
    ReproConfig,
    configured,
    get_config,
    set_config,
)

__all__ = [
    "BACKEND_NATIVE",
    "BACKEND_REFERENCE",
    "ReproConfig",
    "configured",
    "get_cipher",
    "get_config",
    "set_config",
]

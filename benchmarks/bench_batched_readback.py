"""E18 — extension: batching both protocol phases.

The E7 ablation shows config batching floors at the 28,488 readback
round trips; the batched-readback command (``ICAP_readback_batch``, the
wire family the networked session streams) removes those too.  The sweep
projects the paper-scale duration collapsing from 28.5 s to ~1 s (the
bound where every frame crosses the ICAP and the wire exactly once),
and the functional benchmark verifies detection and frame localization
survive batching.
"""

import pytest

from repro.analysis.experiments import e18_full_batching
from repro.core.orders import SequentialOrder
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM
from repro.timing.network import LAB_NETWORK
from repro.utils.rng import DeterministicRng


def test_full_batching_projection(benchmark):
    result = benchmark(e18_full_batching)
    print("\n" + result.rendered)
    rows = {row.batch_frames: row for row in result.rows}
    assert rows[1].duration_s == pytest.approx(28.5, abs=0.1)
    # Large batches approach the floor within 10 %.
    assert rows[1024].duration_s < result.theoretical_floor_s * 1.10
    # Batching wins more than an order of magnitude.
    assert rows[1024].duration_s < rows[1].duration_s / 20


def test_batched_run_functional(benchmark):
    """A real batched run: accepted when honest, localized when not."""
    system = build_sacha_system(SIM_MEDIUM)
    provisioned, record = provision_device(system, "bench-batch", seed=9300)
    verifier = SachaVerifier(
        record.system,
        record.mac_key,
        DeterministicRng(9301),
        order=SequentialOrder(),
    )
    options = SessionOptions(network=LAB_NETWORK, readback_batch_frames=32)
    counter = [0]

    def one_run():
        counter[0] += 1
        return run_attestation(
            provisioned.prover, verifier, DeterministicRng(counter[0]), options
        )

    result = benchmark.pedantic(one_run, rounds=3, iterations=1)
    assert result.report.accepted

    plain = run_attestation(
        provisioned.prover,
        verifier,
        DeterministicRng(99),
        SessionOptions(network=LAB_NETWORK),
    )
    assert result.report.timing.total_ns < plain.report.timing.total_ns / 2

"""Properties of the verifier engine's receive path (AttestationRun).

One reference run on SIM-SMALL supplies the prover's per-frame readback
data and tag.  Each example replays that sweep into a fresh run with the
same nonce and plan, split into arbitrary contiguous fragments, and
interleaves the responses a faulty transport could deliver instead:

* any split gives the per-frame tag and verdict;
* a duplicate, a reordered (early) or a short fragment, and a checksum
  before the sweep is complete, are each refused with the run's state
  unchanged.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import AttestationRun, SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_SMALL
from repro.net.messages import (
    MacChecksumResponse,
    ReadbackBatchResponse,
    ReadbackResponse,
)
from repro.utils.rng import DeterministicRng

SEED = 160
FAULTS = ("duplicate", "reorder", "short", "early_checksum")


@lru_cache(maxsize=None)
def _reference():
    """(record, per-frame data in plan order, tag, report) of one run."""
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-run", seed=SEED)
    result = run_attestation(
        provisioned.prover,
        _verifier(record),
        DeterministicRng(SEED + 2),
        SessionOptions(readback_batch_frames=1),
    )
    data = tuple(bytes(response.data) for response in result.responses)
    return record, data, result.tag, result.report


def _verifier(record):
    return SachaVerifier(record.system, record.mac_key, DeterministicRng(SEED + 1))


def _fresh_run():
    record, _, _, _ = _reference()
    verifier = _verifier(record)
    return AttestationRun(verifier, verifier.new_nonce())


def _state(run):
    return (run.stage, run.tag, run.config_acked, len(run.responses()))


@st.composite
def deliveries(draw):
    """A contiguous split of the plan plus faults injected before pieces."""
    _, data, _, _ = _reference()
    total = len(data)
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=total - 1))
    bounds = [0, *sorted(cuts), total]
    pieces = list(zip(bounds, bounds[1:]))
    per_frame = draw(
        st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces))
    )
    faults = draw(
        st.lists(
            st.tuples(st.integers(0, len(pieces) - 1), st.sampled_from(FAULTS)),
            max_size=6,
        )
    )
    return pieces, per_frame, faults


def _fragment(run, data, start, end, per_frame):
    if per_frame and end - start == 1:
        return ReadbackResponse(frame_index=run.plan[start], data=data[start])
    return ReadbackBatchResponse(
        base_slot=start, frame_count=end - start, data=b"".join(data[start:end])
    )


def _faulty(run, data, pieces, index, fault):
    """The response a faulty transport delivers before piece ``index``."""
    start, end = pieces[index]
    if fault == "duplicate" and index > 0:
        before_start, before_end = pieces[index - 1]
        return _fragment(run, data, before_start, before_end, False)
    if fault == "reorder" and index + 1 < len(pieces):
        after_start, after_end = pieces[index + 1]
        return _fragment(run, data, after_start, after_end, False)
    if fault == "short":
        return ReadbackBatchResponse(
            base_slot=start,
            frame_count=end - start,
            data=b"".join(data[start:end])[:-1],
        )
    # An early checksum, also where a fault has no neighbour to copy.
    return MacChecksumResponse(tag=bytes(16))


@settings(max_examples=60, deadline=None)
@given(deliveries())
def test_any_split_gives_the_per_frame_verdict(delivery):
    pieces, per_frame, faults = delivery
    _, data, tag, reference = _reference()
    run = _fresh_run()
    for index, (start, end) in enumerate(pieces):
        for _, fault in (f for f in faults if f[0] == index):
            before = _state(run)
            assert not run.receive(_faulty(run, data, pieces, index, fault))
            assert _state(run) == before
        assert run.receive(_fragment(run, data, start, end, per_frame[index]))
    assert run.stage == "checksum"
    assert run.receive(MacChecksumResponse(tag=tag))
    assert not run.receive(MacChecksumResponse(tag=tag))
    assert run.tag == tag
    report = run.report()
    assert report.verdict is reference.verdict
    assert report.mac_valid and report.config_match
    assert report.mismatched_frames == reference.mismatched_frames
    assert [bytes(response.data) for response in run.responses()] == list(data)

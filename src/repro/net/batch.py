"""MTU-aware batch packing for the pipelined attestation hot path.

The stop-and-wait protocol moves one Python message object per frame:
28,488 readback commands, 28,488 responses and one ACK for each on a
XC6VLX240T.  This module sizes and builds the batched equivalents —
each carrying as many frames as fit one Ethernet payload after the ARQ
layer's 9-byte framing — so the wire path is bounded by throughput, not
by per-message overhead.

Capacity math is explicit and testable: every helper takes the channel
MTU (``repro.net.ethernet.MAX_PAYLOAD`` by default) and subtracts the
ARQ and message headers, so changing either layer cannot silently
produce over-MTU frames.  Index vectors travel as packed big-endian
``>u4`` arrays (built by numpy, no per-index Python loop).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import WireFormatError
from repro.net.arq import ARQ_OVERHEAD_BYTES
from repro.net.ethernet import MAX_PAYLOAD
from repro.net.messages import (
    IcapConfigBatchCommand,
    IcapConfigCommand,
    IcapReadbackBatchCommand,
    ReadbackBatchResponse,
    ReadbackResponse,
)

#: opcode(1) + base_slot(4) + count(2)
READBACK_BATCH_HEADER_BYTES = 7
#: opcode(1) + count(2) ... + length(4); the per-frame cost adds 4 index bytes.
CONFIG_BATCH_HEADER_BYTES = 7
#: opcode(1) + base_slot(4) + count(2) + length(4)
BATCH_RESPONSE_HEADER_BYTES = 11


def arq_payload_capacity(max_payload: int = MAX_PAYLOAD) -> int:
    """Usable message bytes per Ethernet payload under the ARQ framing."""
    capacity = max_payload - ARQ_OVERHEAD_BYTES
    if capacity <= BATCH_RESPONSE_HEADER_BYTES:
        raise WireFormatError(
            f"MTU {max_payload} leaves no room for batch messages under "
            f"the {ARQ_OVERHEAD_BYTES}-byte ARQ framing"
        )
    return capacity


def max_readback_indices(max_payload: int = MAX_PAYLOAD) -> int:
    """Frame indices per ``IcapReadbackBatchCommand`` payload."""
    return (arq_payload_capacity(max_payload) - READBACK_BATCH_HEADER_BYTES) // 4


def frames_per_response_fragment(
    frame_bytes: int, max_payload: int = MAX_PAYLOAD
) -> int:
    """Frames per ``ReadbackBatchResponse`` fragment (at least 1)."""
    if frame_bytes <= 0:
        raise WireFormatError(f"frame size must be positive, got {frame_bytes}")
    capacity = arq_payload_capacity(max_payload) - BATCH_RESPONSE_HEADER_BYTES
    return max(1, capacity // frame_bytes)


def frames_per_config_batch(frame_bytes: int, max_payload: int = MAX_PAYLOAD) -> int:
    """Frames per ``IcapConfigBatchCommand`` (index + content per frame)."""
    if frame_bytes <= 0:
        raise WireFormatError(f"frame size must be positive, got {frame_bytes}")
    capacity = arq_payload_capacity(max_payload) - CONFIG_BATCH_HEADER_BYTES
    return max(1, capacity // (frame_bytes + 4))


def pack_readback_plan(
    plan: Sequence[int],
    batch_frames: int,
    max_payload: int = MAX_PAYLOAD,
) -> List[IcapReadbackBatchCommand]:
    """Split a readback plan into batch commands of ``batch_frames`` each.

    The requested batch size is clamped to what one payload can carry;
    ``base_slot`` tracks the plan position so the verifier can reassemble
    responses in plan order without echoed indices.
    """
    if batch_frames < 1:
        raise WireFormatError(f"batch size must be >= 1, got {batch_frames}")
    per_command = min(batch_frames, max_readback_indices(max_payload), 0xFFFF)
    indices = np.asarray(plan, dtype=np.int64)
    commands: List[IcapReadbackBatchCommand] = []
    for start in range(0, len(indices), per_command):
        chunk = indices[start : start + per_command]
        commands.append(
            IcapReadbackBatchCommand(
                base_slot=start,
                frame_indices=tuple(int(i) for i in chunk),
            )
        )
    return commands


def pack_config_commands(
    commands: Sequence[IcapConfigCommand],
    max_payload: int = MAX_PAYLOAD,
) -> List[IcapConfigBatchCommand]:
    """Coalesce per-frame config commands into MTU-sized batches.

    Frame order is preserved exactly — configuration is order-sensitive
    (the nonce frames follow the application frames).  All frames of one
    batch must be equally sized, which holds for any single device.
    """
    if not commands:
        return []
    frame_bytes = len(commands[0].data)
    for command in commands:
        if len(command.data) != frame_bytes:
            raise WireFormatError(
                f"config batch needs equal-sized frames: "
                f"{len(command.data)} != {frame_bytes}"
            )
    per_batch = min(frames_per_config_batch(frame_bytes, max_payload), 0xFFFF)
    batches: List[IcapConfigBatchCommand] = []
    for start in range(0, len(commands), per_batch):
        chunk = commands[start : start + per_batch]
        batches.append(
            IcapConfigBatchCommand(
                frame_indices=tuple(c.frame_index for c in chunk),
                data=b"".join(c.data for c in chunk),
            )
        )
    return batches


def fragment_readback_data(
    base_slot: int,
    data: bytes,
    frame_bytes: int,
    max_payload: int = MAX_PAYLOAD,
) -> List[ReadbackBatchResponse]:
    """Split one batch's readback buffer into MTU-sized response fragments.

    ``data`` is a zero-copy view candidate — fragments slice it without
    re-joining.  Fragment ``base_slot`` values continue the plan-position
    numbering of the command they answer.
    """
    if frame_bytes <= 0 or len(data) % frame_bytes:
        raise WireFormatError(
            f"readback buffer of {len(data)} bytes does not split into "
            f"{frame_bytes}-byte frames"
        )
    total_frames = len(data) // frame_bytes
    per_fragment = frames_per_response_fragment(frame_bytes, max_payload)
    view = memoryview(data)
    fragments: List[ReadbackBatchResponse] = []
    for start in range(0, total_frames, per_fragment):
        count = min(per_fragment, total_frames - start)
        fragments.append(
            ReadbackBatchResponse(
                base_slot=base_slot + start,
                frame_count=count,
                data=bytes(
                    view[start * frame_bytes : (start + count) * frame_bytes]
                ),
            )
        )
    return fragments


def reassemble_readback(
    frame_indices: Sequence[int], data: bytes, frame_bytes: int
) -> List[ReadbackResponse]:
    """Per-frame responses over one batch's joined fragment buffer.

    The inverse of :func:`fragment_readback_data`: each response's
    ``data`` is a zero-copy ``memoryview`` slice of ``data``, matched to
    ``frame_indices`` by position — the verifier only reads the bytes.
    """
    if len(data) != len(frame_indices) * frame_bytes:
        raise WireFormatError(
            f"readback buffer of {len(data)} bytes does not hold "
            f"{len(frame_indices)} frames of {frame_bytes} bytes"
        )
    view = memoryview(data)
    return [
        ReadbackResponse(
            frame_index=frame_index,
            data=view[slot * frame_bytes : (slot + 1) * frame_bytes],
        )
        for slot, frame_index in enumerate(frame_indices)
    ]


def contiguous_runs(indices: Sequence[int]) -> List[range]:
    """Maximal runs of consecutive frame indices, vectorized.

    The default readback plan is an offset sweep — one or two contiguous
    runs per batch — so the prover can serve a batch with a handful of
    bulk ICAP range reads instead of per-frame gathers.
    """
    if not len(indices):
        return []
    array = np.asarray(indices, dtype=np.int64)
    breaks = np.nonzero(np.diff(array) != 1)[0] + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(array)]))
    return [
        range(int(array[s]), int(array[s]) + int(e - s))
        for s, e in zip(starts, ends)
    ]

"""Adversarial prover variants.

The honest :class:`~repro.core.prover.SachaProver` does exactly what the
static partition hardware does.  These subclasses model what a prover
under adversary control can deviate on — and, crucially, what it cannot:
the bounded memory model limits how much configuration data a cheating
prover can stash, and the MAC key never leaves the legitimate device.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.core.prover import KeyProvider, SachaProver
from repro.errors import AttackError
from repro.fpga.board import Board
from repro.fpga.bram import BramInventory


class SkippingProver(SachaProver):
    """Refuses configuration writes to chosen frames.

    This is malware trying to survive the memory-filling update by not
    letting the verifier's frames overwrite it — the FPGA analogue of
    the Perito–Tsudik resident malware.
    """

    def __init__(
        self,
        board: Board,
        key_provider: KeyProvider,
        protected_frames: Iterable[int],
        device_id: str = "prv-skipping",
    ) -> None:
        super().__init__(board, key_provider, device_id=device_id)
        self.protected_frames: Set[int] = set(protected_frames)
        self.skipped_writes = 0

    def handle_config(self, frame_index: int, data: bytes) -> None:
        if frame_index in self.protected_frames:
            self.skipped_writes += 1
            return
        super().handle_config(frame_index, data)


class HoardingProver(SachaProver):
    """Tries to answer readbacks from a hoard of expected frame data.

    The adversary knows what the verifier expects (the golden content is
    not secret) and would like to answer readbacks with it while the
    fabric runs something else.  The hoard lives in on-chip BRAM, so its
    capacity is bounded by :meth:`BramInventory.frames_storable` — on the
    real part that is ~5,900 of 28,488 frames, nowhere near enough, and
    every frame answered from the fabric's *actual* (malicious)
    configuration gives the tamper away.
    """

    def __init__(
        self,
        board: Board,
        key_provider: KeyProvider,
        device_id: str = "prv-hoarding",
    ) -> None:
        super().__init__(board, key_provider, device_id=device_id)
        self._capacity_frames = BramInventory(board.fpga.device).frames_storable()
        self._hoard: Dict[int, bytes] = {}
        self.hoard_hits = 0
        self.hoard_misses = 0

    @property
    def hoard_capacity_frames(self) -> int:
        return self._capacity_frames

    def stash(self, frame_index: int, data: bytes) -> bool:
        """Store expected content for one frame; False when BRAM is full."""
        if len(data) != self.board.fpga.device.frame_bytes:
            raise AttackError(
                f"hoard entry must be {self.board.fpga.device.frame_bytes} bytes"
            )
        if frame_index in self._hoard:
            self._hoard[frame_index] = data
            return True
        if len(self._hoard) >= self._capacity_frames:
            return False
        self._hoard[frame_index] = data
        return True

    def handle_readback(self, frame_index: int) -> bytes:
        if frame_index in self._hoard:
            # Feed the hoarded (expected) data into the MAC instead of the
            # true readback.
            data = self._hoard[frame_index]
            self._fold(data, 1)
            self.hoard_hits += 1
            return data
        self.hoard_misses += 1
        return super().handle_readback(frame_index)


class WrongKeyProver(SachaProver):
    """An impersonator: right structure, wrong key.

    Models both a cloned board (different PUF ⇒ different key) and a
    foreign device trying to stand in for the prover.
    """


class EchoingProver(SachaProver):
    """Answers readbacks for frame X with data for frame Y.

    Used to check the verifier's frame-echo policy: a prover cannot remap
    which frame it claims to be returning.
    """

    def __init__(
        self,
        board: Board,
        key_provider: KeyProvider,
        remap: Optional[Dict[int, int]] = None,
        device_id: str = "prv-echoing",
    ) -> None:
        super().__init__(board, key_provider, device_id=device_id)
        self._remap = dict(remap or {})

    def handle_readback(self, frame_index: int) -> bytes:
        return super().handle_readback(self._remap.get(frame_index, frame_index))

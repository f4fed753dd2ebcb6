"""CRC implementations used by the network and bitstream substrates.

Three variants are needed:

* ``Crc32`` — IEEE 802.3 CRC-32, the Ethernet frame check sequence;
* ``Crc16Ccitt`` — CRC-16/CCITT-FALSE, used by the JTAG reference port;
* ``XilinxBitstreamCrc`` — the 32-bit CRC Xilinx configuration logic keeps
  over (register address, data word) pairs during bitstream loading.  The
  real polynomial is undocumented for most families; we use the standard
  CRC-32C (Castagnoli) polynomial over the 37-bit (address ‖ word) records,
  which preserves the structure of the check: it covers both payload and
  target register of every packet write.
"""

from __future__ import annotations

import functools
import zlib
from typing import List, Sequence, Tuple, Union

import numpy as np


def _make_table(poly: int, width: int) -> List[int]:
    """Build a byte-at-a-time lookup table for a reflected CRC."""
    mask = (1 << width) - 1
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc & mask)
    return table


class Crc32:
    """IEEE 802.3 CRC-32 (reflected, init ``0xFFFFFFFF``, final XOR).

    Backed by :func:`zlib.crc32`, which implements exactly this CRC
    (same polynomial, init and final XOR), so the digest is bit-identical
    to the byte-at-a-time table loop it replaced — but runs in C.  The
    ARQ layer computes two CRCs per wire frame, which made the Python
    loop the single hottest function of a networked attestation.
    """

    def __init__(self) -> None:
        self._digest = 0

    def update(self, data: bytes) -> "Crc32":
        self._digest = zlib.crc32(data, self._digest)
        return self

    def digest(self) -> int:
        return self._digest

    def digest_bytes(self) -> bytes:
        """FCS as transmitted on the wire (little-endian)."""
        return self.digest().to_bytes(4, "little")


def crc32(data: bytes) -> int:
    """One-shot IEEE CRC-32 of ``data``."""
    return Crc32().update(data).digest()


class Crc16Ccitt:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, not reflected)."""

    def __init__(self) -> None:
        self._state = 0xFFFF

    def update(self, data: bytes) -> "Crc16Ccitt":
        state = self._state
        for byte in data:
            state ^= byte << 8
            for _ in range(8):
                if state & 0x8000:
                    state = ((state << 1) ^ 0x1021) & 0xFFFF
                else:
                    state = (state << 1) & 0xFFFF
        self._state = state
        return self

    def digest(self) -> int:
        return self._state


_CRC32C_TABLE = _make_table(0x82F63B78, 32)  # CRC-32C (Castagnoli), reflected
_CRC32C_NP_TABLE = np.array(_CRC32C_TABLE, dtype=np.uint32)
_CRC32C_NP_TABLE.flags.writeable = False

#: Bytes per (word, register) record: the big-endian word, then the address.
_RECORD_BYTES = 5

#: Words to fold: a list of ints or a ``uint32`` array.
Words = Union[Sequence[int], np.ndarray]

#: A linear map on 32-bit CRC states, as four byte-indexed lookup tables.
_LinearTables = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _apply(tables: _LinearTables, states: np.ndarray) -> np.ndarray:
    """Apply a linear state map to every element of ``states``."""
    t0, t1, t2, t3 = tables
    return (
        t0[states & 0xFF]
        ^ t1[(states >> 8) & 0xFF]
        ^ t2[(states >> 16) & 0xFF]
        ^ t3[states >> 24]
    )


@functools.lru_cache(maxsize=None)
def _advance_tables(level: int) -> _LinearTables:
    """Tables for "feed 5 * 2**level zero bytes" (``2**level`` records).

    The CRC has init 0 and no final XOR, so feeding zero bytes is a
    linear map on the state: it is fixed by the images of the 32 basis
    states, and level ``k + 1`` is level ``k`` applied twice.  One entry
    per level: ``n`` records need ``ceil(log2 n)`` levels, and a packet
    carries at most ``2**27`` words (the type-2 count field).
    """
    if level == 0:
        columns = np.uint32(1) << np.arange(32, dtype=np.uint32)
        for _ in range(_RECORD_BYTES):
            columns = (columns >> 8) ^ _CRC32C_NP_TABLE[columns & 0xFF]
    else:
        previous = _advance_tables(level - 1)
        basis_bytes = np.uint32(1) << np.arange(8, dtype=np.uint32)
        columns = _apply(
            previous, np.concatenate([table[basis_bytes] for table in previous])
        )
    values = np.arange(256, dtype=np.uint32)
    tables = []
    for byte in range(4):
        table = np.zeros(256, dtype=np.uint32)
        for bit in range(8):
            table ^= columns[8 * byte + bit] * ((values >> bit) & 1)
        table.flags.writeable = False
        tables.append(table)
    return (tables[0], tables[1], tables[2], tables[3])


class XilinxBitstreamCrc:
    """Configuration-logic CRC over (register, word) records.

    Every word written through a configuration packet is folded into the
    CRC together with the 5-bit address of the register it targets, the
    same coverage the silicon implements.  Writing the expected value to
    the CRC register checks and resets the accumulator.

    :meth:`feed` folds one record byte by byte; :meth:`feed_words` folds
    a whole packet payload at once with the same result, exploiting that
    the CRC is linear (init 0, no final XOR): the state after records
    ``r_1 .. r_n`` is ``advance_n(prior) XOR crc(r_1 .. r_n)``, and the
    second term is a balanced XOR tree of per-record CRCs.
    """

    _TABLE = _CRC32C_TABLE

    def __init__(self) -> None:
        self._state = 0

    def reset(self) -> None:
        self._state = 0

    def feed(self, register: int, word: int) -> None:
        """Fold one 32-bit ``word`` written to config ``register`` (5 bit)."""
        _check_register(register)
        record = word.to_bytes(4, "big") + bytes([register])
        state = self._state
        table = self._TABLE
        for byte in record:
            state = (state >> 8) ^ table[(state ^ byte) & 0xFF]
        self._state = state

    def feed_words(self, register: int, words: Words) -> None:
        """Fold every word of ``words`` (a list or a ``uint32`` array),
        each written to ``register`` — equal to :meth:`feed` per word."""
        _check_register(register)
        data = np.asarray(words, dtype=np.uint32)
        count = data.size
        if not count:
            return
        table = _CRC32C_NP_TABLE
        # One CRC per record from state 0, all records at once.
        leaves = table[data >> 24]
        for byte in ((data >> 16) & 0xFF, (data >> 8) & 0xFF, data & 0xFF):
            leaves = (leaves >> 8) ^ table[(leaves ^ byte) & 0xFF]
        leaves = (leaves >> 8) ^ table[(leaves ^ register) & 0xFF]
        # Front-pad with zero leaves (a zero term adds nothing to the XOR)
        # to a power of two, then combine neighbours: the left one
        # advanced past the right one's records, XOR the right one.
        width = 1 << (count - 1).bit_length()
        if width != count:
            leaves = np.concatenate((np.zeros(width - count, np.uint32), leaves))
        level = 0
        while leaves.size > 1:
            leaves = _apply(_advance_tables(level), leaves[0::2]) ^ leaves[1::2]
            level += 1
        # Advance the prior state past ``count`` records, one level per
        # set bit of the count.
        state = np.array([self._state], dtype=np.uint32)
        level = 0
        while count:
            if count & 1:
                state = _apply(_advance_tables(level), state)
            count >>= 1
            level += 1
        self._state = int(state[0] ^ leaves[0])

    def digest(self) -> int:
        return self._state

    def check(self, expected: int) -> bool:
        """Compare against ``expected`` and reset, as the CRC register does."""
        ok = self._state == expected
        self.reset()
        return ok


def _check_register(register: int) -> None:
    if not 0 <= register < 32:
        raise ValueError(f"register address {register} does not fit in 5 bits")

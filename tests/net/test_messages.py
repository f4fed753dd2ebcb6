"""Unit tests for the SACHa wire format."""

import pytest

from repro.errors import WireFormatError
from repro.net.messages import (
    ConfigAck,
    IcapConfigCommand,
    IcapReadbackCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    ReadbackResponse,
    decode_command,
    decode_response,
)


class TestCommandRoundtrip:
    def test_icap_config(self):
        command = IcapConfigCommand(frame_index=12345, data=b"\xde\xad" * 162)
        decoded = decode_command(command.encode())
        assert decoded == command

    def test_icap_readback(self):
        command = IcapReadbackCommand(frame_index=28_487)
        assert decode_command(command.encode()) == command

    def test_mac_checksum(self):
        assert decode_command(MacChecksumCommand().encode()) == MacChecksumCommand()

    def test_padding_tolerated(self):
        """Ethernet pads short payloads; decoding must ignore the tail."""
        wire = MacChecksumCommand().encode() + bytes(45)
        assert decode_command(wire) == MacChecksumCommand()
        wire = IcapReadbackCommand(7).encode() + bytes(41)
        assert decode_command(wire) == IcapReadbackCommand(7)

    def test_empty_frame_data_allowed(self):
        command = IcapConfigCommand(frame_index=0, data=b"")
        assert decode_command(command.encode()) == command


class TestResponseRoundtrip:
    def test_readback_response(self):
        response = ReadbackResponse(frame_index=99, data=bytes(324))
        assert decode_response(response.encode()) == response

    def test_mac_response(self):
        response = MacChecksumResponse(tag=bytes(range(16)))
        assert decode_response(response.encode()) == response

    def test_config_ack(self):
        decoded = decode_response(ConfigAck(5).encode())
        assert decoded == ConfigAck(5)
        assert decoded.frames_applied == 5

    def test_config_ack_is_cumulative_count(self):
        # The field is a running total, not a frame index: large totals
        # up to the 32-bit wire width must survive the round trip.
        high_water = ConfigAck(frames_applied=0xFFFFFFFF)
        assert decode_response(high_water.encode()) == high_water

    def test_config_ack_range_validated(self):
        with pytest.raises(WireFormatError):
            ConfigAck(-1).encode()
        with pytest.raises(WireFormatError):
            ConfigAck(0x1_0000_0000).encode()


class TestMalformedInput:
    def test_empty_command(self):
        with pytest.raises(WireFormatError):
            decode_command(b"")

    def test_unknown_opcode(self):
        # 0x05 / 0x84 were the retired ranged-readback pair.
        for data in (b"\x7f", b"\x05\x00\x00\x00\x00\x00\x01"):
            with pytest.raises(WireFormatError):
                decode_command(data)
        for data in (b"\x01", b"\x84\x00\x00\x00\x00\x00\x00\x00\x00"):
            with pytest.raises(WireFormatError):
                decode_response(data)

    def test_truncated_config(self):
        full = IcapConfigCommand(1, b"abcd").encode()
        with pytest.raises(WireFormatError):
            decode_command(full[:3])
        with pytest.raises(WireFormatError):
            decode_command(full[:7])  # length prefix promises more data

    def test_truncated_readback_command(self):
        with pytest.raises(WireFormatError):
            decode_command(IcapReadbackCommand(1).encode()[:2])

    def test_frame_index_range(self):
        with pytest.raises(WireFormatError):
            IcapConfigCommand(-1, b"").encode()
        with pytest.raises(WireFormatError):
            IcapReadbackCommand(1 << 32).encode()

    def test_oversized_blob(self):
        with pytest.raises(WireFormatError):
            IcapConfigCommand(0, bytes(70_000)).encode()


class TestBlobDiagnostics:
    """Codec errors must name the message they belong to: a truncated
    blob deep in a batched exchange is undebuggable as a bare offset."""

    def test_oversized_blob_names_opcode(self):
        with pytest.raises(WireFormatError, match="ICAP_config"):
            IcapConfigCommand(0, bytes(70_000)).encode()
        with pytest.raises(WireFormatError, match="MacChecksumResponse"):
            MacChecksumResponse(tag=bytes(70_000)).encode()

    def test_truncated_blob_names_opcode(self):
        full = IcapConfigCommand(1, b"abcd").encode()
        with pytest.raises(WireFormatError, match="ICAP_config"):
            decode_command(full[:7])
        response = ReadbackResponse(frame_index=3, data=bytes(64)).encode()
        with pytest.raises(WireFormatError, match="ReadbackResponse"):
            decode_response(response[:10])

    def test_negative_offset_rejected(self):
        from repro.net.messages import OPCODE_ICAP_CONFIG, _decode_blob

        with pytest.raises(WireFormatError, match="negative"):
            _decode_blob(b"\x00\x01x", -1, OPCODE_ICAP_CONFIG)

    def test_offset_beyond_message_rejected(self):
        from repro.net.messages import OPCODE_ICAP_CONFIG, _decode_blob

        with pytest.raises(WireFormatError, match="beyond"):
            _decode_blob(b"\x00\x01x", 99, OPCODE_ICAP_CONFIG)

    def test_blob_at_exact_cap_round_trips(self):
        command = IcapConfigCommand(0, bytes(0xFFFF))
        assert decode_command(command.encode()) == command

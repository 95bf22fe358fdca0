"""Unit tests for packets."""

import pytest

from repro.fabric.packet import FLIT_BYTES, HEADER_BYTES, Packet, PacketKind


def make_packet(**overrides):
    defaults = dict(src=0, dst=1, kind=PacketKind.CRMA_READ, payload_bytes=32)
    defaults.update(overrides)
    return Packet(**defaults)


def test_wire_bytes_include_header():
    packet = make_packet(payload_bytes=32)
    assert packet.wire_bytes == 32 + HEADER_BYTES


def test_flit_count_rounds_up():
    packet = make_packet(payload_bytes=1)
    expected = -(-(1 + HEADER_BYTES) // FLIT_BYTES)
    assert packet.flit_count == expected
    assert make_packet(payload_bytes=0).flit_count >= 1


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        make_packet(payload_bytes=-1)


def test_packet_ids_are_unique():
    ids = {make_packet().packet_id for _ in range(100)}
    assert len(ids) == 100


def test_control_packet_classification():
    assert make_packet(kind=PacketKind.CREDIT_UPDATE).is_control()
    assert make_packet(kind=PacketKind.QPAIR_ACK).is_control()
    assert not make_packet(kind=PacketKind.CRMA_READ).is_control()
    assert not make_packet(kind=PacketKind.RDMA_CHUNK).is_control()

"""MRT binary writer (RFC 6396).

The synthetic collector platforms (:mod:`repro.collectors`) serialise
their update streams and RIB snapshots through this writer, producing
files that :mod:`repro.mrt.reader` — or any standard MRT tool — can
parse back.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable

from repro.bgp.message import _encode_prefix_nlri, encode_path_attributes, encode_update
from repro.bgp.prefix import AddressFamily
from repro.exceptions import MrtError
from repro.mrt.constants import (
    AFI_IPV4,
    AFI_IPV6,
    Bgp4mpSubtype,
    MrtType,
    TableDumpV2Subtype,
)
from repro.mrt.entries import Bgp4mpMessage, MrtRecord, PeerIndexTable, RibPrefixRecord


_COMMON_HEADER = struct.Struct("!IHHI")
#: BGP4MP_MESSAGE_AS4 peer header (peer AS, local AS, interface index,
#: address family), alone and followed by the two IPv4 addresses.
_BGP4MP_HEADER_AS4 = struct.Struct("!IIHH")
_BGP4MP_HEADER_AS4_IPV4 = struct.Struct("!IIHHII")

#: Plain-int record codes: one BGP4MP record is encoded per distinct
#: observation, and an enum member costs several times what an int does.
_BGP4MP = int(MrtType.BGP4MP)
_MESSAGE_AS4 = int(Bgp4mpSubtype.MESSAGE_AS4)


def _encode_header(timestamp: int, mrt_type: int, subtype: int, payload: bytes) -> bytes:
    """Encode the 12-byte MRT common header followed by the payload."""
    if len(payload) > 0xFFFFFFFF:
        raise MrtError("MRT payload too large")
    return _COMMON_HEADER.pack(timestamp & 0xFFFFFFFF, mrt_type, subtype, len(payload)) + payload


def encode_record(record: MrtRecord) -> bytes:
    """Encode a raw :class:`MrtRecord` (header + payload)."""
    return _encode_header(record.timestamp, record.mrt_type, record.subtype, record.payload)


def encode_bgp4mp_message(message: Bgp4mpMessage) -> bytes:
    """Encode a BGP4MP_MESSAGE_AS4 record carrying one BGP UPDATE.

    An ASN outside the 4-byte AS field raises :class:`MrtError`; it is
    never wrapped into another AS's number.
    """
    timestamp, peer_asn, local_asn, peer_ip, local_ip, interface_index, address_family, update = (
        message
    )
    for role, asn in (("peer", peer_asn), ("local", local_asn)):
        if not 0 <= asn <= 0xFFFFFFFF:
            raise MrtError(f"{role} ASN {asn} does not fit the 4-byte AS field of a BGP4MP record")
    family = AddressFamily.IPV4 if address_family == AFI_IPV4 else AddressFamily.IPV6
    bgp_bytes = encode_update(update, family)
    if address_family == AFI_IPV4:
        header = _BGP4MP_HEADER_AS4_IPV4.pack(
            peer_asn,
            local_asn,
            interface_index & 0xFFFF,
            AFI_IPV4,
            peer_ip & 0xFFFFFFFF,
            local_ip & 0xFFFFFFFF,
        )
    elif address_family == AFI_IPV6:
        header = b"".join(
            (
                _BGP4MP_HEADER_AS4.pack(peer_asn, local_asn, interface_index & 0xFFFF, AFI_IPV6),
                peer_ip.to_bytes(16, "big"),
                local_ip.to_bytes(16, "big"),
            )
        )
    else:
        raise MrtError(f"unsupported address family {address_family}")
    return _encode_header(timestamp, _BGP4MP, _MESSAGE_AS4, header + bgp_bytes)


def encode_peer_index_table(table: PeerIndexTable, timestamp: int = 0) -> bytes:
    """Encode a TABLE_DUMP_V2 PEER_INDEX_TABLE record."""
    view_bytes = table.view_name.encode("utf-8")
    payload = struct.pack("!IH", table.collector_bgp_id & 0xFFFFFFFF, len(view_bytes))
    payload += view_bytes
    payload += struct.pack("!H", len(table.peers))
    for peer in table.peers:
        # Peer type: bit 0 = IPv6 address, bit 1 = 4-byte ASN (always set here).
        peer_type = 0x02 | (0x01 if peer.ipv6 else 0x00)
        payload += struct.pack("!BI", peer_type, peer.bgp_id & 0xFFFFFFFF)
        ip_bytes = 16 if peer.ipv6 else 4
        payload += peer.peer_ip.to_bytes(ip_bytes, "big")
        payload += struct.pack("!I", peer.peer_asn & 0xFFFFFFFF)
    return _encode_header(
        timestamp, int(MrtType.TABLE_DUMP_V2), int(TableDumpV2Subtype.PEER_INDEX_TABLE), payload
    )


def encode_rib_prefix_record(record: RibPrefixRecord, timestamp: int = 0) -> bytes:
    """Encode a TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record."""
    subtype = (
        TableDumpV2Subtype.RIB_IPV4_UNICAST
        if record.prefix.is_ipv4
        else TableDumpV2Subtype.RIB_IPV6_UNICAST
    )
    payload = struct.pack("!I", record.sequence & 0xFFFFFFFF)
    payload += _encode_prefix_nlri(record.prefix)
    payload += struct.pack("!H", len(record.entries))
    for entry in record.entries:
        attr_blob = encode_path_attributes(entry.attributes, entry.unknown_attributes)
        payload += struct.pack(
            "!HIH", entry.peer_index & 0xFFFF, entry.originated_time & 0xFFFFFFFF, len(attr_blob)
        )
        payload += attr_blob
    return _encode_header(timestamp, int(MrtType.TABLE_DUMP_V2), int(subtype), payload)


class MrtWriter:
    """Streaming writer of MRT records to a binary file object."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self.records_written = 0

    def write_raw(self, record: MrtRecord) -> None:
        """Write a raw record."""
        self._stream.write(encode_record(record))
        self.records_written += 1

    def write_message(self, message: Bgp4mpMessage) -> None:
        """Write a BGP4MP_MESSAGE_AS4 record."""
        self._stream.write(encode_bgp4mp_message(message))
        self.records_written += 1

    def write_peer_index_table(self, table: PeerIndexTable, timestamp: int = 0) -> None:
        """Write a PEER_INDEX_TABLE record."""
        self._stream.write(encode_peer_index_table(table, timestamp))
        self.records_written += 1

    def write_rib_record(self, record: RibPrefixRecord, timestamp: int = 0) -> None:
        """Write a RIB prefix record."""
        self._stream.write(encode_rib_prefix_record(record, timestamp))
        self.records_written += 1


def write_records(path: str | Path, messages: Iterable[Bgp4mpMessage]) -> int:
    """Write BGP4MP messages to ``path``; return the number of records written."""
    path = Path(path)
    with path.open("wb") as stream:
        writer = MrtWriter(stream)
        for message in messages:
            writer.write_message(message)
        return writer.records_written

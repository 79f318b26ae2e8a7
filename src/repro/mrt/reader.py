"""MRT binary reader (RFC 6396).

Decodes the record types written by :mod:`repro.mrt.writer`:
BGP4MP_MESSAGE / BGP4MP_MESSAGE_AS4 update records and TABLE_DUMP_V2
PEER_INDEX_TABLE / RIB records.  Unknown record types are surfaced as
raw :class:`MrtRecord` objects rather than being dropped.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.bgp.message import _decode_prefix_nlri, decode_path_attributes, decode_update
from repro.bgp.prefix import AddressFamily
from repro.exceptions import MrtError, MrtTruncatedError
from repro.mrt.constants import (
    AFI_IPV4,
    AFI_IPV6,
    MRT_HEADER_LENGTH,
    Bgp4mpSubtype,
    MrtType,
    TableDumpV2Subtype,
)
from repro.mrt.entries import (
    Bgp4mpMessage,
    MrtRecord,
    PeerEntry,
    PeerIndexTable,
    RibEntry,
    RibPrefixRecord,
)


_COMMON_HEADER = struct.Struct("!IHHI")
_U32 = struct.Struct("!I")
#: BGP4MP peer header: peer AS, local AS, interface index, address family.
_BGP4MP_HEADER = struct.Struct("!HHHH")
_BGP4MP_HEADER_AS4 = struct.Struct("!IIHH")

#: Plain-int record codes and address-family tables: these run once per
#: record read, and an enum member costs several times what an int does.
_BGP4MP_ET = int(MrtType.BGP4MP_ET)
_AS4_SUBTYPES = frozenset((int(Bgp4mpSubtype.MESSAGE_AS4), int(Bgp4mpSubtype.STATE_CHANGE_AS4)))
_PEER_INDEX_TABLE = int(TableDumpV2Subtype.PEER_INDEX_TABLE)
_RIB_IPV4_UNICAST = int(TableDumpV2Subtype.RIB_IPV4_UNICAST)
_RIB_UNICAST = frozenset((_RIB_IPV4_UNICAST, int(TableDumpV2Subtype.RIB_IPV6_UNICAST)))
#: BGP4MP address family -> (address bytes, prefix family).
_BGP4MP_FAMILIES = {AFI_IPV4: (4, AddressFamily.IPV4), AFI_IPV6: (16, AddressFamily.IPV6)}


def iter_raw_records(data: bytes) -> Iterator[MrtRecord]:
    """Yield raw MRT records from a byte buffer.

    Thin wrapper over :func:`iter_stream_records` so the record framing
    (header layout, BGP4MP_ET microseconds, truncation errors) lives in
    exactly one place.
    """
    yield from iter_stream_records(io.BytesIO(data))


def _read_exact(stream: BinaryIO, count: int, what: str, at: int, record_start: int) -> bytes:
    """Read exactly ``count`` bytes from stream offset ``at`` or raise a truncation error."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise MrtTruncatedError(
                f"truncated {what} at byte offset {at + count - remaining} "
                f"(record starts at {record_start})"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def iter_stream_records(stream: BinaryIO) -> Iterator[MrtRecord]:
    """Yield raw MRT records from an open binary stream, one record at a time.

    Unlike :func:`iter_raw_records` this never materialises the whole
    archive: only the current record's header and payload are held in
    memory, which is what lets multi-gigabyte update dumps replay
    through :class:`MrtReader` without slurping.

    A stream that ends inside a record raises :class:`MrtTruncatedError`
    naming the byte offset where the data ran out and the offset of the
    record it belongs to, both counted from where the stream stood when
    iteration began.
    """
    read = stream.read
    unpack_header = _COMMON_HEADER.unpack
    record_start = 0
    while True:
        header = read(MRT_HEADER_LENGTH)
        if len(header) != MRT_HEADER_LENGTH:
            if not header:
                return
            # A short read at EOF can still be a partial header.
            header += _read_exact(
                stream,
                MRT_HEADER_LENGTH - len(header),
                "MRT common header",
                record_start + len(header),
                record_start,
            )
        timestamp, mrt_type, subtype, length = unpack_header(header)
        offset = record_start + MRT_HEADER_LENGTH
        microseconds = 0
        payload_length = length
        if mrt_type == _BGP4MP_ET:
            if payload_length < 4:
                raise MrtError("BGP4MP_ET record too short for the microsecond field")
            (microseconds,) = _U32.unpack(
                _read_exact(stream, 4, "BGP4MP_ET microsecond field", offset, record_start)
            )
            offset += 4
            payload_length -= 4
        payload = read(payload_length)
        if len(payload) != payload_length:
            payload += _read_exact(
                stream,
                payload_length - len(payload),
                "MRT record payload",
                offset + len(payload),
                record_start,
            )
        yield MrtRecord(timestamp, mrt_type, subtype, payload, microseconds)
        record_start = offset + payload_length


def decode_bgp4mp_message(record: MrtRecord) -> Bgp4mpMessage:
    """Decode a BGP4MP MESSAGE / MESSAGE_AS4 record into a :class:`Bgp4mpMessage`."""
    if not record.is_bgp4mp:
        raise MrtError(f"record type {record.mrt_type} is not BGP4MP")
    as4 = record.subtype in _AS4_SUBTYPES
    payload = record.payload
    header = _BGP4MP_HEADER_AS4 if as4 else _BGP4MP_HEADER
    if len(payload) < header.size:
        raise MrtError("BGP4MP payload too short")
    peer_asn, local_asn, interface_index, address_family = header.unpack_from(payload)
    offset = header.size
    address = _BGP4MP_FAMILIES.get(address_family)
    if address is None:
        raise MrtError(f"unsupported BGP4MP address family {address_family}")
    ip_bytes, family = address
    if offset + ip_bytes * 2 > len(payload):
        raise MrtError("truncated BGP4MP addresses")
    peer_ip = int.from_bytes(payload[offset:offset + ip_bytes], "big")
    offset += ip_bytes
    local_ip = int.from_bytes(payload[offset:offset + ip_bytes], "big")
    offset += ip_bytes
    update = decode_update(payload[offset:], family, as4)
    return Bgp4mpMessage(
        record.timestamp,
        peer_asn,
        local_asn,
        peer_ip,
        local_ip,
        interface_index,
        address_family,
        update,
    )


def decode_peer_index_table(record: MrtRecord) -> PeerIndexTable:
    """Decode a TABLE_DUMP_V2 PEER_INDEX_TABLE record."""
    payload = record.payload
    if len(payload) < 6:
        raise MrtError("PEER_INDEX_TABLE payload too short")
    collector_bgp_id, view_length = struct.unpack("!IH", payload[:6])
    offset = 6
    if offset + view_length > len(payload):
        raise MrtError("truncated PEER_INDEX_TABLE view name")
    view_name = payload[offset:offset + view_length].decode("utf-8", errors="replace")
    offset += view_length
    if offset + 2 > len(payload):
        raise MrtError("truncated PEER_INDEX_TABLE peer count")
    (peer_count,) = struct.unpack("!H", payload[offset:offset + 2])
    offset += 2
    peers: list[PeerEntry] = []
    for _ in range(peer_count):
        if offset + 5 > len(payload):
            raise MrtError("truncated PEER_INDEX_TABLE peer entry")
        peer_type, bgp_id = struct.unpack("!BI", payload[offset:offset + 5])
        offset += 5
        ipv6 = bool(peer_type & 0x01)
        as4 = bool(peer_type & 0x02)
        ip_bytes = 16 if ipv6 else 4
        asn_bytes = 4 if as4 else 2
        if offset + ip_bytes + asn_bytes > len(payload):
            raise MrtError("truncated PEER_INDEX_TABLE peer address/ASN")
        peer_ip = int.from_bytes(payload[offset:offset + ip_bytes], "big")
        offset += ip_bytes
        peer_asn = int.from_bytes(payload[offset:offset + asn_bytes], "big")
        offset += asn_bytes
        peers.append(PeerEntry(bgp_id=bgp_id, peer_ip=peer_ip, peer_asn=peer_asn, ipv6=ipv6))
    return PeerIndexTable(collector_bgp_id=collector_bgp_id, view_name=view_name, peers=tuple(peers))


def decode_rib_prefix_record(record: MrtRecord) -> RibPrefixRecord:
    """Decode a TABLE_DUMP_V2 RIB_IPV4_UNICAST or RIB_IPV6_UNICAST record."""
    payload = record.payload
    family = (
        AddressFamily.IPV4
        if record.subtype == _RIB_IPV4_UNICAST
        else AddressFamily.IPV6
    )
    if len(payload) < 4:
        raise MrtError("RIB record payload too short")
    (sequence,) = struct.unpack("!I", payload[:4])
    prefix, offset = _decode_prefix_nlri(payload, 4, family)
    if offset + 2 > len(payload):
        raise MrtError("truncated RIB entry count")
    (entry_count,) = struct.unpack("!H", payload[offset:offset + 2])
    offset += 2
    entries: list[RibEntry] = []
    for _ in range(entry_count):
        if offset + 8 > len(payload):
            raise MrtError("truncated RIB entry header")
        peer_index, originated_time, attr_len = struct.unpack("!HIH", payload[offset:offset + 8])
        offset += 8
        if offset + attr_len > len(payload):
            raise MrtError("truncated RIB entry attributes")
        attributes, unknown = decode_path_attributes(payload[offset:offset + attr_len])
        offset += attr_len
        entries.append(RibEntry(peer_index, originated_time, attributes, tuple(unknown)))
    return RibPrefixRecord(sequence=sequence, prefix=prefix, entries=tuple(entries))


def _decode_record(record: MrtRecord):
    """Dispatch one raw record to its specialised decoder (or pass it through)."""
    if record.is_bgp4mp_message:
        return decode_bgp4mp_message(record)
    if record.is_table_dump_v2:
        if record.subtype == _PEER_INDEX_TABLE:
            return decode_peer_index_table(record)
        if record.subtype in _RIB_UNICAST:
            return decode_rib_prefix_record(record)
    return record


class MrtReader:
    """Iterator over decoded records of an MRT byte stream.

    Yields :class:`Bgp4mpMessage`, :class:`PeerIndexTable`,
    :class:`RibPrefixRecord`, or raw :class:`MrtRecord` objects for
    record types the reader does not specialise.

    A reader is backed either by an in-memory buffer (``MrtReader(data)``)
    or by a file (:meth:`from_file`), which is decoded **record at a
    time** — each iteration pass re-opens the file and streams it, so
    arbitrarily large archives never have to fit in memory.
    """

    def __init__(self, data: bytes | None = None, *, path: str | Path | None = None):
        if (data is None) == (path is None):
            raise MrtError("MrtReader needs exactly one of a byte buffer or a path")
        self._data = data
        self._path = Path(path) if path is not None else None

    @classmethod
    def from_file(cls, path: str | Path) -> "MrtReader":
        """Return a streaming reader over ``path`` (no whole-file slurp)."""
        return cls(path=path)

    def _raw_records(self) -> Iterator[MrtRecord]:
        if self._path is not None:
            with self._path.open("rb") as stream:
                yield from iter_stream_records(stream)
        else:
            assert self._data is not None
            yield from iter_raw_records(self._data)

    def __iter__(self):
        for record in self._raw_records():
            yield _decode_record(record)

    def messages(self) -> Iterator[Bgp4mpMessage]:
        """Yield only the BGP4MP update messages."""
        for item in self:
            if isinstance(item, Bgp4mpMessage):
                yield item


def read_records(path: str | Path) -> list:
    """Read and decode every record in an MRT file."""
    return list(MrtReader.from_file(path))


def read_stream(stream: BinaryIO) -> list:
    """Read and decode every record from an open binary stream (single pass)."""
    return [_decode_record(record) for record in iter_stream_records(stream)]

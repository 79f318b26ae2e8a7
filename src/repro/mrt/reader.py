"""MRT binary reader (RFC 6396).

:func:`iter_stream_records` frames the records of an MRT stream, one at
a time; :func:`decode_bgp4mp_message` decodes a BGP4MP MESSAGE /
MESSAGE_AS4 record, the update records :mod:`repro.mrt.writer` writes
and the public collectors publish.  Records of other types stay raw
:class:`MrtRecord` objects for the caller to skip.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

from repro.bgp.message import decode_update
from repro.bgp.prefix import AddressFamily
from repro.exceptions import MrtError, MrtTruncatedError
from repro.mrt.constants import AFI_IPV4, AFI_IPV6, MRT_HEADER_LENGTH, Bgp4mpSubtype, MrtType
from repro.mrt.entries import Bgp4mpMessage, MrtRecord


_COMMON_HEADER = struct.Struct("!IHHI")
_U32 = struct.Struct("!I")
#: BGP4MP peer header: peer AS, local AS, interface index, address family.
_BGP4MP_HEADER = struct.Struct("!HHHH")
_BGP4MP_HEADER_AS4 = struct.Struct("!IIHH")

#: Plain-int record codes and address-family tables: these run once per
#: record read, and an enum member costs several times what an int does.
_BGP4MP_ET = int(MrtType.BGP4MP_ET)
_AS4_SUBTYPES = frozenset((int(Bgp4mpSubtype.MESSAGE_AS4), int(Bgp4mpSubtype.STATE_CHANGE_AS4)))
#: BGP4MP address family -> (address bytes, prefix family).
_BGP4MP_FAMILIES = {AFI_IPV4: (4, AddressFamily.IPV4), AFI_IPV6: (16, AddressFamily.IPV6)}


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

    Only the current record's header and payload are read; the stream
    is never read whole.

    A stream that ends inside a record raises :class:`MrtTruncatedError`
    naming the byte offset where the data ran out and the offset of the
    record it belongs to, both counted from where the stream stood when
    iteration began.  A BGP4MP_ET microsecond field of a whole second or
    more raises :class:`MrtError`: the writer never writes one, so
    writing the archive back would not give the bytes read.

    The round-trip contract (read, then write back with
    :meth:`~repro.collectors.observation.ObservationArchive.write_mrt`):
    an archive the writer wrote comes back byte for byte; any other
    archive this reader accepts comes back as the same rows, though not
    always in the same framing.  A BGP4MP_ET record whose microsecond
    field is 0, which RFC 6396 allows, is read as a whole second and
    written back as the plain BGP4MP record, 4 bytes shorter.
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
            if microseconds >= 1_000_000:
                raise MrtError(
                    f"BGP4MP_ET microsecond field {microseconds} is outside 0..999999 "
                    f"(record starts at {record_start})"
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
        record.microseconds,
    )

"""MRT binary writer (RFC 6396).

:func:`encode_bgp4mp_message` encodes one BGP4MP (or, with a microsecond
field, BGP4MP_ET) MESSAGE_AS4 record;
:meth:`~repro.collectors.observation.ObservationArchive.write_mrt`
writes the synthetic collector platforms' update streams through it,
as files that :mod:`repro.mrt.reader` — or any standard MRT tool — can
parse back.
"""

from __future__ import annotations

import struct

from repro.bgp.message import encode_update
from repro.bgp.prefix import AddressFamily
from repro.exceptions import MrtError
from repro.mrt.constants import AFI_IPV4, AFI_IPV6, Bgp4mpSubtype, MrtType
from repro.mrt.entries import Bgp4mpMessage


_COMMON_HEADER = struct.Struct("!IHHI")
_U32 = struct.Struct("!I")
#: BGP4MP_MESSAGE_AS4 peer header (peer AS, local AS, interface index,
#: address family), alone and followed by the two IPv4 addresses.
_BGP4MP_HEADER_AS4 = struct.Struct("!IIHH")
_BGP4MP_HEADER_AS4_IPV4 = struct.Struct("!IIHHII")

#: Plain-int record codes: one BGP4MP record is encoded per distinct
#: observation, and an enum member costs several times what an int does.
_BGP4MP = int(MrtType.BGP4MP)
_BGP4MP_ET = int(MrtType.BGP4MP_ET)
_MESSAGE_AS4 = int(Bgp4mpSubtype.MESSAGE_AS4)


def _encode_header(timestamp: int, mrt_type: int, subtype: int, payload: bytes) -> bytes:
    """Encode the 12-byte MRT common header followed by the payload.

    A timestamp outside the 32-bit field raises :class:`MrtError`; it is
    never wrapped into another second.
    """
    if not 0 <= timestamp <= 0xFFFFFFFF:
        raise MrtError(f"timestamp {timestamp} does not fit the 32-bit MRT header")
    if len(payload) > 0xFFFFFFFF:
        raise MrtError("MRT payload too large")
    return _COMMON_HEADER.pack(timestamp, mrt_type, subtype, len(payload)) + payload


def encode_bgp4mp_message(message: Bgp4mpMessage) -> bytes:
    """Encode a BGP4MP_MESSAGE_AS4 record carrying one BGP UPDATE.

    A message with microseconds becomes a BGP4MP_ET record.  An ASN
    outside the 4-byte AS field raises :class:`MrtError`; it is never
    wrapped into another AS's number.
    """
    (
        timestamp,
        peer_asn,
        local_asn,
        peer_ip,
        local_ip,
        interface_index,
        address_family,
        update,
        microseconds,
    ) = message
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
    if microseconds:
        if not 0 < microseconds < 1_000_000:
            raise MrtError(f"microsecond field {microseconds} is outside 0..999999")
        # The microsecond field follows the common header and counts in
        # its length (RFC 6396 section 3).
        return _encode_header(
            timestamp, _BGP4MP_ET, _MESSAGE_AS4, _U32.pack(microseconds) + header + bgp_bytes
        )
    return _encode_header(timestamp, _BGP4MP, _MESSAGE_AS4, header + bgp_bytes)

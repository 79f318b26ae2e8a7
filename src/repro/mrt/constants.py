"""MRT record type and subtype constants (RFC 6396)."""

from __future__ import annotations

from enum import IntEnum


class MrtType(IntEnum):
    """Top-level MRT record types used by BGP archives."""

    TABLE_DUMP = 12
    TABLE_DUMP_V2 = 13
    BGP4MP = 16
    BGP4MP_ET = 17


class Bgp4mpSubtype(IntEnum):
    """BGP4MP subtypes (we use the 4-byte-ASN message forms)."""

    STATE_CHANGE = 0
    MESSAGE = 1
    MESSAGE_AS4 = 4
    STATE_CHANGE_AS4 = 5


#: MRT common header is 12 bytes: timestamp, type, subtype, length.
MRT_HEADER_LENGTH = 12

#: Address family identifiers used inside BGP4MP records.
AFI_IPV4 = 1
AFI_IPV6 = 2

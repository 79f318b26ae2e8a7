"""BGP data model: communities, AS paths, prefixes, attributes, messages, RIBs."""

from repro.bgp.community import (
    Community,
    LargeCommunity,
    CommunitySet,
    WellKnownCommunity,
    BLACKHOLE,
    NO_EXPORT,
    NO_ADVERTISE,
    NO_EXPORT_SUBCONFED,
    NO_PEER,
    is_private_asn,
)
from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType
from repro.bgp.prefix import Prefix, AddressFamily
from repro.bgp.attributes import Origin, PathAttributes
from repro.bgp.route import Announcement, RouteEntry, Withdrawal
from repro.bgp.message import (
    BgpUpdate,
    decode_path_attributes,
    decode_update,
    encode_path_attributes,
    encode_update,
)
from repro.bgp.rib import AdjRibIn, LocRib

__all__ = [
    "Community",
    "LargeCommunity",
    "CommunitySet",
    "WellKnownCommunity",
    "BLACKHOLE",
    "NO_EXPORT",
    "NO_ADVERTISE",
    "NO_EXPORT_SUBCONFED",
    "NO_PEER",
    "is_private_asn",
    "ASPath",
    "ASPathSegment",
    "SegmentType",
    "Prefix",
    "AddressFamily",
    "Origin",
    "PathAttributes",
    "Announcement",
    "RouteEntry",
    "Withdrawal",
    "BgpUpdate",
    "encode_update",
    "decode_update",
    "encode_path_attributes",
    "decode_path_attributes",
    "AdjRibIn",
    "LocRib",
]

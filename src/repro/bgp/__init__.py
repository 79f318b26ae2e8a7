"""BGP data model: communities, AS paths, prefixes, attributes, messages, RIBs."""

from repro.bgp.community import (
    Community,
    CommunitySet,
    WellKnownCommunity,
    BLACKHOLE,
    NO_EXPORT,
    NO_ADVERTISE,
    NO_EXPORT_SUBCONFED,
    NO_PEER,
    is_private_asn,
)
from repro.bgp.aspath import ASPath
from repro.bgp.prefix import Prefix, AddressFamily
from repro.bgp.attributes import PathAttributes
from repro.bgp.route import Announcement, RouteEntry
from repro.bgp.message import (
    BgpUpdate,
    decode_update,
    encode_path_attributes,
    encode_update,
)
from repro.bgp.rib import AdjRibIn, LocRib

__all__ = [
    "Community",
    "CommunitySet",
    "WellKnownCommunity",
    "BLACKHOLE",
    "NO_EXPORT",
    "NO_ADVERTISE",
    "NO_EXPORT_SUBCONFED",
    "NO_PEER",
    "is_private_asn",
    "ASPath",
    "Prefix",
    "AddressFamily",
    "PathAttributes",
    "Announcement",
    "RouteEntry",
    "BgpUpdate",
    "encode_update",
    "decode_update",
    "encode_path_attributes",
    "AdjRibIn",
    "LocRib",
]

"""BGP UPDATE message wire encoding and decoding (RFC 4271 + RFC 1997).

The MRT writer embeds full BGP UPDATE messages inside BGP4MP records,
and the MRT reader decodes them back; this module implements that wire
format.  Two attributes are typed: AS_PATH and COMMUNITIES.  The
writer adds the two other mandatory ones as constants, ORIGIN as IGP
and NEXT_HOP as 0.0.0.0; the reader checks their form and drops them.
LOCAL_PREF is not written: RFC 4271 section 5.1.5 keeps it off external
sessions, and a collector's session is one.  The reader checks every
other attribute's header and length too, LOCAL_PREF, MED and RFC 8092
LARGE_COMMUNITIES against their fixed sizes, then skips it: no output
reads it (the paper analyses traditional communities only).  An
AS_PATH is written as AS_SEQUENCE segments; an AS_SET read from the
wire joins the flat path with its members in wire order.

What RFC 4271 section 6.3 calls malformed is a :class:`MessageError`
naming the attribute: an attribute that appears twice, flags that
conflict with its type (a known attribute's optional and transitive
bits, or an unrecognised attribute that is not optional), and an
UPDATE that announces NLRI without ORIGIN, AS_PATH or NEXT_HOP.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.bgp.aspath import NO_PATH, ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import NO_COMMUNITIES, CommunitySet
from repro.bgp.prefix import AddressFamily, Prefix
from repro.exceptions import MessageError

#: BGP message header marker: 16 bytes of 0xFF.
BGP_MARKER = b"\xff" * 16
BGP_HEADER_LENGTH = 19
BGP_MAX_MESSAGE_LENGTH = 4096

#: BGP message types.
MESSAGE_TYPE_OPEN = 1
MESSAGE_TYPE_UPDATE = 2
MESSAGE_TYPE_NOTIFICATION = 3
MESSAGE_TYPE_KEEPALIVE = 4

#: Attribute flag bits.
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXTENDED_LENGTH = 0x10

_U16 = struct.Struct("!H")
_MESSAGE_HEADER = struct.Struct("!16sHB")
_ATTRIBUTE_HEADER = struct.Struct("!BBB")
_ATTRIBUTE_HEADER_EXTENDED = struct.Struct("!BBH")

#: Path-attribute type codes the codec reads (RFC 4271, RFC 1997, RFC 8092).
_ORIGIN, _AS_PATH, _NEXT_HOP, _MULTI_EXIT_DISC, _LOCAL_PREF = 1, 2, 3, 4, 5
_ATOMIC_AGGREGATE, _AGGREGATOR, _COMMUNITIES, _LARGE_COMMUNITIES = 6, 7, 8, 32
_ATTRIBUTE_NAMES = {
    _ORIGIN: "ORIGIN",
    _AS_PATH: "AS_PATH",
    _NEXT_HOP: "NEXT_HOP",
    _MULTI_EXIT_DISC: "MED",
    _LOCAL_PREF: "LOCAL_PREF",
    _ATOMIC_AGGREGATE: "ATOMIC_AGGREGATE",
    _AGGREGATOR: "AGGREGATOR",
    _COMMUNITIES: "COMMUNITIES",
    _LARGE_COMMUNITIES: "LARGE_COMMUNITIES",
}
#: What RFC 4271 section 6.3 holds an attribute's flags to, as ``(mask,
#: required bits, category)``: a known type's optional and transitive bits
#: name its category, and an unrecognised type must be optional.
_CATEGORY_BITS = FLAG_OPTIONAL | FLAG_TRANSITIVE
_WELL_KNOWN = (_CATEGORY_BITS, FLAG_TRANSITIVE, "well-known")
_OPTIONAL_NON_TRANSITIVE = (_CATEGORY_BITS, FLAG_OPTIONAL, "optional non-transitive")
_OPTIONAL_TRANSITIVE = (_CATEGORY_BITS, FLAG_OPTIONAL | FLAG_TRANSITIVE, "optional transitive")
_UNRECOGNISED = (FLAG_OPTIONAL, FLAG_OPTIONAL, "optional, as an unrecognised attribute")
_FLAG_RULES = {
    _ORIGIN: _WELL_KNOWN,
    _AS_PATH: _WELL_KNOWN,
    _NEXT_HOP: _WELL_KNOWN,
    _MULTI_EXIT_DISC: _OPTIONAL_NON_TRANSITIVE,
    _LOCAL_PREF: _WELL_KNOWN,
    _ATOMIC_AGGREGATE: _WELL_KNOWN,
    _AGGREGATOR: _OPTIONAL_TRANSITIVE,
    _COMMUNITIES: _OPTIONAL_TRANSITIVE,
    _LARGE_COMMUNITIES: _OPTIONAL_TRANSITIVE,
}
#: Attributes every UPDATE that announces NLRI carries (RFC 4271 section 5).
_MANDATORY = (_ORIGIN, _AS_PATH, _NEXT_HOP)
#: ORIGIN values (RFC 4271): IGP, EGP, INCOMPLETE.
_ORIGIN_CODES = (0, 1, 2)
#: The two mandatory attributes no route carries, as the writer sends
#: them: ORIGIN IGP and NEXT_HOP 0.0.0.0.
_ORIGIN_IGP = _ATTRIBUTE_HEADER.pack(FLAG_TRANSITIVE, _ORIGIN, 1) + bytes(1)
_NEXT_HOP_ZERO = _ATTRIBUTE_HEADER.pack(FLAG_TRANSITIVE, _NEXT_HOP, 4) + bytes(4)
#: AS_PATH segment types (RFC 4271): AS_SET, AS_SEQUENCE.
_AS_SET, _AS_SEQUENCE = 1, 2
_SEGMENT_TYPES = (_AS_SET, _AS_SEQUENCE)
_ADDRESS_BYTES = {family: family.bits // 8 for family in AddressFamily}


@dataclass
class BgpUpdate:
    """A decoded BGP UPDATE: withdrawn prefixes, attributes, announced prefixes."""

    announced: list[Prefix] = field(default_factory=list)
    withdrawn: list[Prefix] = field(default_factory=list)
    attributes: PathAttributes = field(default_factory=PathAttributes)


def _encode_prefix_nlri(prefix: Prefix) -> bytes:
    """Encode one prefix in NLRI form: length byte + minimal network bytes."""
    family, network, length = prefix
    byte_count = (length + 7) // 8
    network_bytes = network.to_bytes(_ADDRESS_BYTES[family], "big")[:byte_count]
    return bytes((length,)) + network_bytes


def _decode_prefix_nlri(data: bytes, offset: int, family: AddressFamily) -> tuple[Prefix, int]:
    """Decode one NLRI-form prefix starting at ``offset``; return (prefix, new offset)."""
    if offset >= len(data):
        raise MessageError("truncated NLRI: missing length byte")
    length = data[offset]
    offset += 1
    byte_count = (length + 7) // 8
    if offset + byte_count > len(data):
        raise MessageError("truncated NLRI: missing prefix bytes")
    raw = data[offset:offset + byte_count]
    offset += byte_count
    padded = raw + b"\x00" * (_ADDRESS_BYTES[family] - byte_count)
    network = int.from_bytes(padded, "big")
    return Prefix(family, network, length), offset


def _attribute_name(type_code: int) -> str:
    return _ATTRIBUTE_NAMES.get(type_code, f"type {type_code}")


def _encode_attribute(type_code: int, flags: int, payload: bytes) -> bytes:
    """Encode one path attribute with automatic extended-length handling."""
    if len(payload) > 0xFFFF:
        raise MessageError(f"attribute {type_code} payload too long ({len(payload)} bytes)")
    if len(payload) > 0xFF:
        flags |= FLAG_EXTENDED_LENGTH
        header = _ATTRIBUTE_HEADER_EXTENDED.pack(flags, type_code, len(payload))
    else:
        flags &= ~FLAG_EXTENDED_LENGTH
        header = _ATTRIBUTE_HEADER.pack(flags, type_code, len(payload))
    return header + payload


def _encode_as_path(as_path: ASPath) -> bytes:
    """Encode the AS_PATH attribute payload with 4-byte ASNs (the decoder reads both widths)."""
    # A segment can hold at most 255 ASNs; longer paths take several.
    parts: list[bytes] = []
    for start in range(0, len(as_path), 255):
        chunk = as_path[start:start + 255]
        parts.append(struct.pack(f"!BB{len(chunk)}I", _AS_SEQUENCE, len(chunk), *chunk))
    return b"".join(parts)


def _decode_as_path(payload: bytes, as4: bool) -> ASPath:
    """Decode an AS_PATH attribute payload; AS_SET members join the path in wire order."""
    width, code = (4, "I") if as4 else (2, "H")
    asns: list[int] = []
    offset = 0
    end = len(payload)
    while offset < end:
        if offset + 2 > end:
            raise MessageError("truncated AS_PATH segment header")
        segment_type, count = payload[offset], payload[offset + 1]
        offset += 2
        needed = count * width
        if offset + needed > end:
            raise MessageError("truncated AS_PATH segment body")
        if segment_type not in _SEGMENT_TYPES:
            raise MessageError(f"unknown AS_PATH segment type {segment_type}")
        asns.extend(struct.unpack_from(f"!{count}{code}", payload, offset))
        offset += needed
    # Each ASN came out of a 2- or 4-byte field, so none can fail the
    # range check ``ASPath(asns)`` would run on it.
    return tuple.__new__(ASPath, asns) if asns else NO_PATH


def encode_path_attributes(attrs: PathAttributes | None) -> bytes:
    """Encode a path-attribute section: the mandatory attributes and COMMUNITIES.

    ``attrs`` is None for a withdrawal-only UPDATE, which carries no
    route attributes.  Its LOCAL_PREF is not sent (see the module docstring).
    """
    attribute_parts: list[bytes] = []
    if attrs is not None:
        as_path = _encode_attribute(_AS_PATH, FLAG_TRANSITIVE, _encode_as_path(attrs.as_path))
        attribute_parts += (_ORIGIN_IGP, as_path, _NEXT_HOP_ZERO)
        if attrs.communities:
            values = [c.to_int() for c in attrs.communities]
            attribute_parts.append(
                _encode_attribute(
                    _COMMUNITIES,
                    FLAG_OPTIONAL | FLAG_TRANSITIVE,
                    struct.pack(f"!{len(values)}I", *values),
                )
            )
    return b"".join(attribute_parts)


def encode_update(update: BgpUpdate) -> bytes:
    """Encode a :class:`BgpUpdate` into a full BGP message (header included); each
    prefix's NLRI encodes its own family."""
    withdrawn_bytes = b"".join(_encode_prefix_nlri(p) for p in update.withdrawn)
    attribute_bytes = encode_path_attributes(update.attributes if update.announced else None)
    nlri_bytes = b"".join(_encode_prefix_nlri(p) for p in update.announced)
    body = b"".join(
        (
            _U16.pack(len(withdrawn_bytes)),
            withdrawn_bytes,
            _U16.pack(len(attribute_bytes)),
            attribute_bytes,
            nlri_bytes,
        )
    )
    total_length = BGP_HEADER_LENGTH + len(body)
    if total_length > BGP_MAX_MESSAGE_LENGTH:
        raise MessageError(f"encoded UPDATE is {total_length} bytes (max {BGP_MAX_MESSAGE_LENGTH})")
    return _MESSAGE_HEADER.pack(BGP_MARKER, total_length, MESSAGE_TYPE_UPDATE) + body


def _decode_path_attributes(data: bytes, as4: bool) -> tuple[PathAttributes, set[int]]:
    """Decode a path-attribute section into its attributes and the set of type codes read.

    The inverse of :func:`encode_path_attributes`.  A malformed or
    repeated attribute raises :class:`MessageError`; ORIGIN, NEXT_HOP
    and every untyped attribute are checked and dropped.  ``as4`` is the
    AS_PATH encoding (see :func:`decode_update`).
    """
    as_path = NO_PATH
    communities = NO_COMMUNITIES
    types: set[int] = set()

    offset = 0
    attribute_end = len(data)
    while offset < attribute_end:
        if offset + 2 > attribute_end:
            raise MessageError("truncated path attribute header")
        flags, type_code = data[offset], data[offset + 1]
        offset += 2
        if flags & FLAG_EXTENDED_LENGTH:
            if offset + 2 > attribute_end:
                raise MessageError("truncated extended attribute length")
            (attr_len,) = _U16.unpack_from(data, offset)
            offset += 2
        else:
            if offset + 1 > attribute_end:
                raise MessageError("truncated attribute length")
            attr_len = data[offset]
            offset += 1
        if offset + attr_len > attribute_end:
            raise MessageError(f"attribute {type_code} overflows the attribute section")
        payload = data[offset:offset + attr_len]
        offset += attr_len
        if type_code in types:
            raise MessageError(f"repeated {_attribute_name(type_code)} attribute")
        types.add(type_code)
        mask, required, category = _FLAG_RULES.get(type_code, _UNRECOGNISED)
        if flags & mask != required:
            raise MessageError(
                f"attribute flags error: {_attribute_name(type_code)} has flags 0x{flags:02X}, "
                f"but it must be {category}"
            )

        if type_code == _ORIGIN:
            if attr_len != 1:
                raise MessageError("ORIGIN attribute must be exactly 1 byte")
            if payload[0] not in _ORIGIN_CODES:
                raise MessageError(f"unknown ORIGIN value {payload[0]}")
        elif type_code == _AS_PATH:
            as_path = _decode_as_path(payload, as4)
        elif type_code == _NEXT_HOP:
            if attr_len != 4:
                raise MessageError("NEXT_HOP attribute must be exactly 4 bytes")
        elif type_code == _COMMUNITIES:
            if attr_len % 4 != 0:
                raise MessageError("COMMUNITIES attribute length must be a multiple of 4")
            communities = CommunitySet(struct.unpack(f"!{attr_len // 4}I", payload))
        elif type_code in (_MULTI_EXIT_DISC, _LOCAL_PREF) and attr_len != 4:
            raise MessageError(f"{_attribute_name(type_code)} attribute must be exactly 4 bytes")
        elif type_code == _LARGE_COMMUNITIES and attr_len % 12 != 0:
            raise MessageError("LARGE_COMMUNITIES attribute length must be a multiple of 12")
        # Every other attribute is skipped once its header and length are read.

    return PathAttributes(as_path=as_path, communities=communities), types


def decode_update(data: bytes, family: AddressFamily, as4: bool) -> BgpUpdate:
    """Decode a full BGP UPDATE message (header included) into a :class:`BgpUpdate`.

    ``as4`` is the AS_PATH encoding the two speakers negotiated: 4-byte
    ASNs (what this package writes), or the 2-byte ASNs of a session
    without the AS4 capability, as BGP4MP_MESSAGE records carry them.
    """
    if len(data) < BGP_HEADER_LENGTH:
        raise MessageError(f"message too short ({len(data)} bytes) for a BGP header")
    marker, length, message_type = _MESSAGE_HEADER.unpack_from(data)
    if marker != BGP_MARKER:
        raise MessageError("invalid BGP marker")
    if length != len(data):
        raise MessageError(f"header length {length} does not match data length {len(data)}")
    if message_type != MESSAGE_TYPE_UPDATE:
        raise MessageError(f"not an UPDATE message (type {message_type})")

    body = data[BGP_HEADER_LENGTH:]
    body_end = len(body)
    if body_end < 2:
        raise MessageError("truncated UPDATE: missing withdrawn routes length")
    (withdrawn_length,) = _U16.unpack_from(body)
    offset = 2
    if offset + withdrawn_length > body_end:
        raise MessageError("truncated UPDATE: withdrawn routes overflow")
    withdrawn: list[Prefix] = []
    end = offset + withdrawn_length
    while offset < end:
        prefix, offset = _decode_prefix_nlri(body, offset, family)
        withdrawn.append(prefix)

    if offset + 2 > body_end:
        raise MessageError("truncated UPDATE: missing path attribute length")
    (attribute_length,) = _U16.unpack_from(body, offset)
    offset += 2
    if offset + attribute_length > body_end:
        raise MessageError("truncated UPDATE: path attributes overflow")
    attribute_end = offset + attribute_length
    attributes, types = _decode_path_attributes(body[offset:attribute_end], as4)
    offset = attribute_end

    announced: list[Prefix] = []
    while offset < body_end:
        prefix, offset = _decode_prefix_nlri(body, offset, family)
        announced.append(prefix)
    if announced:
        for type_code in _MANDATORY:
            if type_code not in types:
                raise MessageError(
                    f"UPDATE announces NLRI without the {_attribute_name(type_code)} attribute"
                )

    return BgpUpdate(announced=announced, withdrawn=withdrawn, attributes=attributes)

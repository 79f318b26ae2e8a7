"""Tests for the BGP UPDATE wire codec, RIBs, and the BGP4MP MRT reader/writer."""

from __future__ import annotations

import ast
import dataclasses
import io
import pickle
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import Community, CommunitySet
from repro.bgp.message import BgpUpdate, decode_update, encode_path_attributes, encode_update
from repro.bgp.prefix import AddressFamily, Prefix
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.route import Announcement, RouteEntry
from repro.collectors.observation import ObservationArchive, RouteObservation
from repro.exceptions import (
    AttributeError_,
    MessageError,
    MrtError,
    MrtTruncatedError,
    ReproError,
)
from repro.mrt import reader as mrt_reader
from repro.mrt import writer as mrt_writer
from repro.mrt.constants import Bgp4mpSubtype, MrtType
from repro.mrt.entries import Bgp4mpMessage, MrtRecord
from repro.mrt.reader import decode_bgp4mp_message, iter_stream_records
from repro.mrt.writer import encode_bgp4mp_message


def records_of(data: bytes) -> list[MrtRecord]:
    """The raw records framed in ``data``."""
    return list(iter_stream_records(io.BytesIO(data)))


def framed(mrt_type: int, subtype: int, payload: bytes, timestamp: int = 0) -> bytes:
    """One MRT record, common header and payload, built by hand."""
    return struct.pack("!IHHI", timestamp, mrt_type, subtype, len(payload)) + payload


def messages_of(data: bytes) -> list[Bgp4mpMessage]:
    """Every BGP4MP message record in ``data``, each decoded on its own (no memo)."""
    return [decode_bgp4mp_message(r) for r in records_of(data) if r.is_bgp4mp_message]


def make_attributes(**overrides) -> PathAttributes:
    base = dict(
        as_path=ASPath.of(3356, 1299, 13335),
        local_pref=150,
        communities=CommunitySet.of("3356:100", "1299:666", "65535:666"),
    )
    base.update(overrides)
    return PathAttributes(**base)


class TestPathAttributes:
    def test_effective_local_pref_default(self):
        assert PathAttributes().effective_local_pref() == 100
        assert PathAttributes(local_pref=50).effective_local_pref() == 50

    def test_replace_is_pure(self):
        attrs = make_attributes()
        changed = attrs.replace(local_pref=10)
        assert attrs.local_pref == 150
        assert changed.local_pref == 10

    def test_community_helpers(self):
        attrs = PathAttributes(communities=CommunitySet.of("1:1"))
        assert Community(2, 2) in attrs.with_communities_added(["2:2"]).communities
        assert Community(1, 1) in attrs.with_communities_added(["2:2"]).communities

    def test_local_pref_validation(self):
        with pytest.raises(AttributeError_):
            PathAttributes(local_pref=1 << 33)

    def test_no_source_file_writes_through_object_setattr(self):
        """A frozen value object changes only by copy.

        ``object.__setattr__`` is the one write a frozen dataclass cannot
        refuse, so a policy action could mutate a bundle that is already
        hashed and stored.  ``PathAttributes`` keeps its two caches in
        ``__dict__`` instead, and no module under ``src/`` names the
        setter in code: the syntax tree is searched, so a docstring may
        mention it and an alias (``setter = object.__setattr__``) is found.
        """
        package = Path(repro.__file__).parent
        writers = [
            str(path.relative_to(package))
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
        assert writers == []


def _value_cases():
    """Each routing value type: a factory building one value afresh, its public
    fields and, where a type has several cases, the case's test id."""
    prefix = "198.51.100.0/24"
    return [
        (lambda: Prefix.from_string(prefix), ("family", "network", "length")),
        (lambda: Community.from_string("65535:666"), ("asn", "value")),
        (lambda: CommunitySet.of("3356:100", "65535:666"), ()),
        (lambda: ASPath.of(3356, 3356, 64500, 13335), ()),
        (lambda: ASPath.of(), (), "ASPath-empty"),
        # Longer than one wire segment holds.
        (lambda: ASPath.of(*range(1, 301)), (), "ASPath-300-asns"),
        (make_attributes, tuple(field.name for field in dataclasses.fields(PathAttributes))),
        (
            lambda: Announcement(Prefix.from_string(prefix), make_attributes(), 3356, 13335),
            Announcement._fields,
        ),
        (
            lambda: RouteEntry(
                Prefix.from_string(prefix),
                make_attributes(),
                3356,
                suppress_to=frozenset({174}),
                announce_only_to=frozenset({1299}),
            ),
            RouteEntry._fields,
        ),
    ]


@pytest.mark.parametrize(
    "make, fields",
    [
        pytest.param(make, fields, id=name[0] if name else type(make()).__name__)
        for make, fields, *name in _value_cases()
    ],
)
class TestValueTypeSemantics:
    """Routing values key RIBs, FIBs and memo tables, and ship to shard
    workers: they change only by copy, and equal values hash equal in
    every copy."""

    def test_fields_cannot_be_assigned(self, make, fields):
        value = make()
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert value == make()

    def test_equal_values_built_apart_hash_equal(self, make, fields):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert {first: "stored"}[second] == "stored"

    @pytest.mark.parametrize("hashed_first", [False, True], ids=["fresh", "hashed"])
    def test_pickle_round_trip_keeps_value_and_hash(self, make, fields, hashed_first):
        value = make()
        if hashed_first:
            hash(value)
        copy = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(make())


def attribute_bytes(*attributes: tuple[int, int, bytes]) -> bytes:
    """``(type code, flags, payload)`` attributes as an attribute section, by hand."""
    return b"".join(bytes([flags, code, len(data)]) + data for code, flags, data in attributes)


#: ORIGIN IGP, AS_PATH 3356 and NEXT_HOP 192.0.2.1, as RFC 4271 lays them out.
MANDATORY_ATTRIBUTES = (
    (1, 0x40, b"\x00"),
    (2, 0x40, struct.pack("!BBI", 2, 1, 3356)),
    (3, 0x40, bytes([192, 0, 2, 1])),
)


def update_message(section: bytes, nlri: bytes = b"") -> bytes:
    """A BGP UPDATE with no withdrawals, built by hand around an attribute section."""
    body = struct.pack("!HH", 0, len(section)) + section + nlri
    return b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body


def wire_attributes(**overrides) -> PathAttributes:
    """:func:`make_attributes` without LOCAL_PREF, which the writer does not send."""
    return make_attributes(local_pref=None, **overrides)


class TestUpdateCodec:
    def test_roundtrip_full(self):
        update = BgpUpdate(
            announced=[Prefix.from_string("192.0.2.0/24"), Prefix.from_string("10.0.0.0/8")],
            withdrawn=[Prefix.from_string("198.51.100.0/24")],
            attributes=wire_attributes(),
        )
        decoded = decode_update(encode_update(update), AddressFamily.IPV4, True)
        assert decoded.announced == update.announced
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes == update.attributes

    def test_local_pref_is_not_sent(self):
        """RFC 4271 section 5.1.5: LOCAL_PREF stays off external sessions, and a
        collector's is one."""
        prefix = Prefix.from_string("203.0.113.0/24")
        sent = encode_update(BgpUpdate(announced=[prefix], attributes=make_attributes()))
        assert sent == encode_update(BgpUpdate(announced=[prefix], attributes=wire_attributes()))
        assert decode_update(sent, AddressFamily.IPV4, True).attributes == wire_attributes()

    def test_withdrawal_only(self):
        update = BgpUpdate(withdrawn=[Prefix.from_string("192.0.2.0/24")])
        decoded = decode_update(encode_update(update), AddressFamily.IPV4, True)
        assert decoded.withdrawn == update.withdrawn
        assert not decoded.announced

    def test_decode_rejects_bad_marker(self):
        data = bytearray(encode_update(BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")],
                                                 attributes=make_attributes())))
        data[0] = 0x00
        with pytest.raises(MessageError):
            decode_update(bytes(data), AddressFamily.IPV4, True)

    def test_decode_rejects_truncation(self):
        data = encode_update(
            BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")], attributes=make_attributes())
        )
        with pytest.raises(MessageError):
            decode_update(data[:-3], AddressFamily.IPV4, True)

    def test_decode_rejects_wrong_length_header(self):
        data = bytearray(
            encode_update(
                BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")], attributes=make_attributes())
            )
        )
        data[16] = 0xFF  # corrupt the length field
        with pytest.raises(MessageError):
            decode_update(bytes(data), AddressFamily.IPV4, True)

    @pytest.mark.parametrize(
        "attribute, name",
        [
            ((8, 0xC0, struct.pack("!I", 0x00010001)), "COMMUNITIES"),
            (MANDATORY_ATTRIBUTES[0], "ORIGIN"),
            (MANDATORY_ATTRIBUTES[1], "AS_PATH"),
            ((5, 0x40, struct.pack("!I", 100)), "LOCAL_PREF"),
            ((4, 0x80, struct.pack("!I", 10)), "MED"),
            ((99, 0xC0, b"\x01"), "type 99"),
            (MANDATORY_ATTRIBUTES[2], "NEXT_HOP"),
            ((6, 0x40, b""), "ATOMIC_AGGREGATE"),
            ((32, 0xC0, struct.pack("!3I", 3356, 1, 2)), "LARGE_COMMUNITIES"),
        ],
        ids=[
            "communities",
            "origin",
            "as-path",
            "local-pref",
            "med",
            "unassigned",
            "next-hop",
            "atomic-aggregate",
            "large-communities",
        ],
    )
    def test_a_repeated_attribute_is_a_message_error(self, attribute, name):
        """RFC 4271 section 6.3: an attribute may appear once; the last copy
        must not silently win (two COMMUNITIES 1:1 then 2:2 read as {2:2})."""
        code, flags, _ = attribute
        second = (code, flags, struct.pack("!I", 0x00020002)) if code == 8 else attribute
        section = attribute_bytes(attribute, second)
        with pytest.raises(MessageError, match=f"repeated {name} attribute"):
            decode_update(update_message(section), AddressFamily.IPV4, True)

    @pytest.mark.parametrize(
        "missing, name",
        [((0,), "ORIGIN"), ((1,), "AS_PATH"), ((2,), "NEXT_HOP"), ((0, 1, 2), "ORIGIN")],
        ids=["ORIGIN", "AS_PATH", "NEXT_HOP", "all-three"],
    )
    def test_an_announcement_without_a_mandatory_attribute_is_a_message_error(self, missing, name):
        # With none of the three it was read as a route with an empty AS path.
        present = [a for i, a in enumerate(MANDATORY_ATTRIBUTES) if i not in missing]
        with pytest.raises(MessageError, match=f"announces NLRI without the {name} attribute"):
            decode_update(update_message(attribute_bytes(*present), nlri=bytes([8, 10])), AddressFamily.IPV4, True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # More ASNs than one AS_PATH segment holds: written as two.
            {"as_path": ASPath.of(*range(1, 301))},
        ],
        ids=["typed-attributes", "300-asn-path"],
    )
    def test_roundtrip_keeps_every_attribute(self, overrides):
        update = BgpUpdate(
            announced=[Prefix.from_string("203.0.113.0/24")],
            attributes=wire_attributes(**overrides),
        )
        data = encode_update(update)
        decoded = decode_update(data, AddressFamily.IPV4, True)
        assert decoded == update
        assert hash(decoded.attributes) == hash(update.attributes)
        assert encode_update(decoded) == data

    @pytest.mark.parametrize(
        "untyped",
        [
            bytes([0x80, 4, 4]) + struct.pack("!I", 10),
            bytes([0x40, 5, 4]) + struct.pack("!I", 150),
            bytes([0x40, 6, 0]),
            bytes([0xC0, 32, 12]) + struct.pack("!3I", 3356, 1, 2),
            # The partial bit: only the optional and transitive bits are compared.
            bytes([0xE0, 32, 12]) + struct.pack("!3I", 3356, 1, 2),
            # Unsorted and duplicated entries: the reader orders nothing it skips.
            bytes([0xC0, 32, 36]) + struct.pack("!9I", 1299, 0, 0, 3356, 1, 2, 1299, 0, 0),
            bytes([0xC0, 99, 2, 1, 2]),
            bytes([0x80, 99, 1, 7]),
            bytes([0xC0, 7, 8]) + struct.pack("!I", 3356) + bytes([192, 0, 2, 1]),
            # A 2-byte length field, which a sender may set on any attribute.
            bytes([0xD0, 99]) + struct.pack("!H", 300) + bytes(300),
        ],
        ids=[
            "med",
            "local-pref",
            "atomic-aggregate",
            "large-communities",
            "large-communities-partial",
            "large-communities-unsorted-duplicates",
            "unknown-attribute",
            "unknown-non-transitive-attribute",
            "aggregator",
            "extended-length",
        ],
    )
    def test_an_untyped_attribute_is_skipped_wherever_it_sits(self, untyped):
        """A foreign UPDATE reads as the same update with the attribute left out."""
        update = BgpUpdate(announced=[Prefix.from_string("203.0.113.0/24")], attributes=wire_attributes())
        section = encode_path_attributes(update.attributes)
        for placed in (untyped + section, section + untyped):
            message = update_message(placed, nlri=bytes([24, 203, 0, 113]))
            assert decode_update(message, AddressFamily.IPV4, True) == update

    @pytest.mark.parametrize(
        "attribute, message",
        [
            ((8, 0x40, struct.pack("!I", 0x00010001)), "COMMUNITIES has flags 0x40, but it must be optional transitive"),
            ((1, 0xC0, b"\x00"), "ORIGIN has flags 0xC0, but it must be well-known"),
            ((2, 0x80, struct.pack("!BBI", 2, 1, 3356)), "AS_PATH has flags 0x80, but it must be well-known"),
            ((3, 0x00, bytes(4)), "NEXT_HOP has flags 0x00, but it must be well-known"),
            ((4, 0x40, struct.pack("!I", 10)), "MED has flags 0x40, but it must be optional non-transitive"),
            ((4, 0xC0, struct.pack("!I", 10)), "MED has flags 0xC0, but it must be optional non-transitive"),
            ((5, 0xC0, struct.pack("!I", 100)), "LOCAL_PREF has flags 0xC0, but it must be well-known"),
            ((6, 0x80, b""), "ATOMIC_AGGREGATE has flags 0x80, but it must be well-known"),
            ((7, 0x40, bytes(8)), "AGGREGATOR has flags 0x40, but it must be optional transitive"),
            ((32, 0x80, struct.pack("!3I", 3356, 1, 2)), "LARGE_COMMUNITIES has flags 0x80, but it must be optional transitive"),
            ((99, 0x40, b"\x01"), "type 99 has flags 0x40, but it must be optional, as an unrecognised attribute"),
            ((99, 0x00, b"\x01"), "type 99 has flags 0x00, but it must be optional, as an unrecognised attribute"),
        ],
        ids=[
            "communities-well-known",
            "origin-optional",
            "as-path-optional",
            "next-hop-non-transitive",
            "med-well-known",
            "med-transitive",
            "local-pref-optional",
            "atomic-aggregate-optional",
            "aggregator-well-known",
            "large-communities-non-transitive",
            "unrecognised-well-known",
            "unrecognised-non-transitive-well-known",
        ],
    )
    def test_flags_that_conflict_with_the_type_are_a_message_error(self, attribute, message):
        """RFC 4271 section 6.3: an Attribute Flags Error, or an Unrecognized
        Well-known Attribute; before, each of these read as a valid UPDATE."""
        section = attribute_bytes(attribute)
        with pytest.raises(MessageError, match=message):
            decode_update(update_message(section), AddressFamily.IPV4, True)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"\xc0", "truncated path attribute header"),
            (bytes([0xD0, 99, 0]), "truncated extended attribute length"),
            (bytes([0xC0, 99]), "truncated attribute length"),
            (bytes([0xC0, 99, 3, 1, 2]), "attribute 99 overflows the attribute section"),
        ],
        ids=["header", "extended-length", "length", "payload"],
    )
    def test_a_truncated_attribute_is_a_message_error(self, tail, message):
        """Each attribute's header is read before its type is looked at."""
        section = attribute_bytes(*MANDATORY_ATTRIBUTES) + tail
        with pytest.raises(MessageError, match=message):
            decode_update(update_message(section), AddressFamily.IPV4, True)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 32) - 1), st.integers(8, 32)), min_size=1, max_size=5
        ),
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=10),
        st.lists(st.integers(1, 0xFFFFFFFF), min_size=1, max_size=6),
    )
    def test_roundtrip_property(self, prefixes, communities, path):
        update = BgpUpdate(
            announced=[Prefix.ipv4(n & (0xFFFFFFFF << (32 - l)), l) for n, l in prefixes],
            attributes=PathAttributes(
                as_path=ASPath.of(*path),
                communities=CommunitySet(Community(a, v) for a, v in communities),
            ),
        )
        decoded = decode_update(encode_update(update), AddressFamily.IPV4, True)
        assert set(decoded.announced) == set(update.announced)
        assert decoded.attributes.communities == update.attributes.communities
        assert decoded.attributes.as_path == update.attributes.as_path


class TestRibs:
    def make_entry(self, prefix: str, learned_from: int = 10, **kwargs) -> RouteEntry:
        return RouteEntry(
            prefix=Prefix.from_string(prefix),
            attributes=make_attributes(),
            learned_from=learned_from,
            **kwargs,
        )

    def test_adj_rib_in_update_and_withdraw(self):
        rib = AdjRibIn(10)
        entry = self.make_entry("10.0.0.0/8")
        rib.update(entry)
        assert len(rib) == 1
        assert rib.get(entry.prefix) is entry
        assert rib.withdraw(entry.prefix) is entry
        assert rib.withdraw(entry.prefix) is None
        assert len(rib) == 0

    def test_loc_rib_best_is_an_exact_match(self):
        rib = LocRib()
        short = self.make_entry("10.0.0.0/8")
        long = self.make_entry("10.1.0.0/16", learned_from=20)
        rib.set_best(short.prefix, short)
        rib.set_best(long.prefix, long)
        assert rib.best(long.prefix) is long and rib.best(short.prefix) is short
        assert rib.best(Prefix.from_string("10.1.2.0/24")) is None
        assert rib.prefixes() == [short.prefix, long.prefix]

    def test_loc_rib_clear_best(self):
        rib = LocRib()
        entry = self.make_entry("10.0.0.0/8")
        rib.set_best(entry.prefix, entry)
        rib.set_best(entry.prefix, None)
        assert entry.prefix not in rib

    def test_announcement_helpers(self):
        announcement = Announcement(
            prefix=Prefix.from_string("10.0.0.0/8"),
            attributes=make_attributes(),
            sender_asn=1,
            origin_asn=13335,
        )
        more_specific = announcement.replace(prefix=Prefix.from_string("10.1.0.0/16"))
        assert more_specific.prefix == Prefix.from_string("10.1.0.0/16")
        assert more_specific.attributes is announcement.attributes


class TestMrt:
    def make_message(self, timestamp: int = 1522540800, **overrides) -> Bgp4mpMessage:
        update = BgpUpdate(
            announced=[Prefix.from_string("192.0.2.0/24")], attributes=make_attributes()
        )
        fields = dict(
            timestamp=timestamp,
            peer_asn=3356,
            local_asn=65000,
            peer_ip=0x0A000001,
            local_ip=0x0A000002,
            interface_index=0,
            address_family=1,
            update=update,
        )
        fields.update(overrides)
        return Bgp4mpMessage(**fields)

    def test_bgp4mp_roundtrip(self):
        message = self.make_message()
        (record,) = records_of(encode_bgp4mp_message(message))
        assert record.is_bgp4mp_message
        decoded = decode_bgp4mp_message(record)
        assert isinstance(decoded, Bgp4mpMessage)
        assert decoded.peer_asn == 3356
        assert decoded.local_asn == 65000
        assert decoded.update.announced == message.update.announced
        assert decoded.update.attributes.communities == message.update.attributes.communities

    def test_writer_and_stream_reader(self):
        stream = io.BytesIO()
        for i in range(5):
            stream.write(encode_bgp4mp_message(self.make_message(timestamp=1522540800 + i)))
        stream.seek(0)
        decoded = [decode_bgp4mp_message(record) for record in iter_stream_records(stream)]
        assert len(decoded) == 5
        assert all(isinstance(m, Bgp4mpMessage) for m in decoded)
        assert [m.timestamp for m in decoded] == [1522540800 + i for i in range(5)]

    @pytest.mark.parametrize(
        "attribute, message",
        [
            ((1, 0x40, b"\x00\x00"), "ORIGIN attribute must be exactly 1 byte"),
            ((1, 0x40, b"\x07"), "unknown ORIGIN value 7"),  # IGP, EGP, INCOMPLETE are 0-2
            ((3, 0x40, b"\x00" * 3), "NEXT_HOP attribute must be exactly 4 bytes"),
            ((4, 0x80, b"\x00" * 5), "MED attribute must be exactly 4 bytes"),
            ((5, 0x40, b"\x00" * 2), "LOCAL_PREF attribute must be exactly 4 bytes"),
            ((8, 0xC0, b"\x00" * 6), "COMMUNITIES attribute length must be a multiple of 4"),
            ((32, 0xC0, b"\x00" * 13), "LARGE_COMMUNITIES .* multiple of 12"),
        ],
        ids=[
            "origin-length",
            "origin-value",
            "next-hop-length",
            "med-length",
            "local-pref-length",
            "communities-length",
            "large-communities-length",
        ],
    )
    def test_a_malformed_attribute_is_a_message_error(self, attribute, message):
        with pytest.raises(MessageError, match=message):
            decode_update(update_message(attribute_bytes(attribute)), AddressFamily.IPV4, True)

    @pytest.mark.parametrize("field", ["peer_asn", "local_asn"])
    @pytest.mark.parametrize("asn", [1 << 32, (1 << 32) + 10, -1])
    def test_an_asn_outside_four_bytes_is_refused_not_wrapped(self, field, asn):
        message = self.make_message(**{field: asn})
        with pytest.raises(MrtError, match=f"ASN {asn} does not fit"):
            encode_bgp4mp_message(message)

    def test_truncated_stream_raises(self):
        data = encode_bgp4mp_message(self.make_message())
        with pytest.raises(MrtTruncatedError):
            records_of(data[:-5])

    @pytest.mark.parametrize(
        "mrt_type, subtype, payload, message",
        [
            (MrtType.BGP4MP, Bgp4mpSubtype.MESSAGE_AS4, b"\x00" * 11, "BGP4MP payload too short"),
            (MrtType.BGP4MP, Bgp4mpSubtype.MESSAGE, b"\x00" * 7, "BGP4MP payload too short"),
            (
                MrtType.BGP4MP,
                Bgp4mpSubtype.MESSAGE_AS4,
                struct.pack("!IIHH", 3356, 65000, 0, 3) + b"\x00" * 8,
                "unsupported BGP4MP address family 3",
            ),
            (
                MrtType.BGP4MP_ET,
                Bgp4mpSubtype.MESSAGE_AS4,
                struct.pack("!I", 0) + struct.pack("!IIHH", 3356, 65000, 0, 1) + b"\x00" * 7,
                "truncated BGP4MP addresses",
            ),
            (
                MrtType.BGP4MP,
                Bgp4mpSubtype.MESSAGE,
                struct.pack("!HHHH", 3356, 65000, 0, 2) + b"\x00" * 31,
                "truncated BGP4MP addresses",
            ),
            (MrtType.BGP4MP_ET, Bgp4mpSubtype.MESSAGE_AS4, b"\x00" * 3, "BGP4MP_ET record too short"),
        ],
        ids=["as4-header", "as2-header", "address-family", "ipv4-addresses", "ipv6-addresses", "et-field"],
    )
    def test_a_malformed_message_record_is_an_mrt_error(
        self, tmp_path, mrt_type, subtype, payload, message
    ):
        data = framed(mrt_type, subtype, payload)
        with pytest.raises(MrtError, match=message):
            messages_of(data)
        path = tmp_path / "bad.mrt"
        path.write_bytes(encode_bgp4mp_message(self.make_message()) + data)
        with pytest.raises(MrtError, match=message):
            ObservationArchive.from_mrt(path)

    def test_a_record_that_is_not_bgp4mp_is_not_decoded(self):
        (record,) = records_of(framed(MrtType.TABLE_DUMP_V2, 1, b"\x00" * 8))
        with pytest.raises(MrtError, match="record type 13 is not BGP4MP"):
            decode_bgp4mp_message(record)

    def test_the_package_exports_the_bgp4mp_records_only(self):
        import repro.mrt

        assert sorted(repro.mrt.__all__) == ["Bgp4mpMessage", "Bgp4mpSubtype", "MrtRecord", "MrtType"]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 0xFFFFFFFF),
        st.integers(1, 0xFFFFFFFF),
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=8),
    )
    def test_bgp4mp_roundtrip_property(self, timestamp, peer_asn, communities):
        update = BgpUpdate(
            announced=[Prefix.from_string("198.51.100.0/24")],
            attributes=PathAttributes(
                as_path=ASPath.of(peer_asn, 1),
                communities=CommunitySet(Community(a, v) for a, v in communities),
            ),
        )
        message = Bgp4mpMessage(
            timestamp=timestamp,
            peer_asn=peer_asn,
            local_asn=65000,
            peer_ip=1,
            local_ip=2,
            interface_index=0,
            address_family=1,
            update=update,
        )
        (decoded,) = messages_of(encode_bgp4mp_message(message))
        assert decoded.timestamp == timestamp
        assert decoded.peer_asn == peer_asn
        assert decoded.update.attributes.communities == update.attributes.communities


def two_byte_as_record(segments=((2, (3356, 1299, 13335)),), extra: bytes = b"") -> bytes:
    """A BGP4MP_MESSAGE (subtype 1) record as a pre-AS4 session archives it.

    Built by hand, field by field: 2-byte ASNs in the peer header *and*
    in the AS_PATH of the UPDATE it carries, whose ``(segment type,
    ASNs)`` segments default to one AS_SEQUENCE.  ``extra`` is appended
    to the path-attribute section as given.
    """
    as_path = b"".join(struct.pack(f"!BB{len(a)}H", kind, len(a), *a) for kind, a in segments)
    attributes = b"".join(
        (
            bytes([0x40, 1, 1, 0]),  # ORIGIN IGP
            bytes([0x40, 2, len(as_path)]) + as_path,  # AS_PATH
            bytes([0x40, 3, 4]) + bytes([192, 0, 2, 1]),  # NEXT_HOP
            bytes([0xC0, 8, 4]) + struct.pack("!HH", 3356, 100),  # COMMUNITIES
            extra,
        )
    )
    body = struct.pack("!H", 0) + struct.pack("!H", len(attributes)) + attributes
    body += bytes([24, 203, 0, 113])  # NLRI 203.0.113.0/24
    update = b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body
    payload = struct.pack("!HHHH", 3356, 64512, 0, 1) + bytes([10, 0, 0, 1, 10, 0, 0, 2]) + update
    header = struct.pack(
        "!IHHI", 1522540800, MrtType.BGP4MP, Bgp4mpSubtype.MESSAGE, len(payload)
    )
    return header + payload


class TestTwoByteAsRecords:
    def test_reader_decodes_a_subtype_1_record(self):
        (record,) = records_of(two_byte_as_record())
        assert (record.mrt_type, record.subtype) == (MrtType.BGP4MP, Bgp4mpSubtype.MESSAGE)
        message = decode_bgp4mp_message(record)
        assert (message.peer_asn, message.local_asn) == (3356, 64512)
        assert message.update.attributes.as_path == ASPath.of(3356, 1299, 13335)
        assert message.update.attributes.communities == CommunitySet.of("3356:100")
        assert message.update.announced == [Prefix.from_string("203.0.113.0/24")]

    #: What a foreign UPDATE carries beyond the typed attributes.
    UNTYPED = (
        (4, 0x80, struct.pack("!I", 10)),  # MULTI_EXIT_DISC
        (6, 0x40, b""),  # ATOMIC_AGGREGATE
        (32, 0xC0, struct.pack("!3I", 3356, 1, 2)),  # LARGE_COMMUNITIES
        (99, 0xC0, b"\x01\x02"),  # unassigned, optional transitive
    )

    def test_untyped_attributes_leave_the_rows_unchanged(self, tmp_path):
        """The reader skips what no row carries, once its form is checked."""
        rows = {}
        for name, extra in (("plain", b""), ("untyped", attribute_bytes(*self.UNTYPED))):
            path = tmp_path / f"{name}.mrt"
            path.write_bytes(two_byte_as_record(extra=extra))
            rows[name] = [
                (o.peer_asn, o.prefix, o.as_path, o.communities) for o in ObservationArchive.from_mrt(path)
            ]
        assert rows["untyped"] == rows["plain"] == [
            (3356, Prefix.from_string("203.0.113.0/24"), (3356, 1299, 13335), CommunitySet.of("3356:100"))
        ]

    @pytest.mark.parametrize(
        "attributes, message",
        [
            (((4, 0x80, bytes(3)), *UNTYPED[1:]), "MED attribute must be exactly 4 bytes"),
            ((*UNTYPED, UNTYPED[3]), "repeated type 99 attribute"),
        ],
        ids=["3-byte-med", "repeated-unknown"],
    )
    def test_untyped_attributes_are_still_checked(self, tmp_path, attributes, message):
        path = tmp_path / "malformed.mrt"
        path.write_bytes(two_byte_as_record(extra=attribute_bytes(*attributes)))
        with pytest.raises(MessageError, match=message):
            ObservationArchive.from_mrt(path)

    @pytest.mark.parametrize(
        "segments, row_path",
        [
            (((2, (3356, 1299, 13335)),), (3356, 1299, 13335)),
            # An AS_SET's members join the row's path in wire order.
            (((2, (3356, 1299)), (1, (64501, 64500))), (3356, 1299, 64501, 64500)),
        ],
        ids=["as-sequence", "as-set"],
    )
    def test_archive_loads_a_subtype_1_file(self, tmp_path, segments, row_path):
        path = tmp_path / "pre-as4.mrt"
        path.write_bytes(two_byte_as_record(segments))
        (observation,) = ObservationArchive.from_mrt(path)
        assert observation.peer_asn == 3356
        assert type(observation.as_path) is tuple and observation.as_path == row_path

    def test_four_byte_paths_are_not_read_as_two_byte(self):
        update = BgpUpdate(
            announced=[Prefix.from_string("10.0.0.0/8")],
            attributes=PathAttributes(as_path=ASPath.of(70000, 1)),
        )
        assert decode_update(encode_update(update), AddressFamily.IPV4, True).attributes.as_path == ASPath.of(70000, 1)
        with pytest.raises(MessageError):
            decode_update(encode_update(update), AddressFamily.IPV4, as4=False)


def as_path_segments(section: bytes) -> list[tuple[int, int]]:
    """The ``(segment type, ASN count)`` of each segment of the 4-byte-ASN
    AS_PATH in an attribute section, walked by hand from the RFC 4271 layout."""
    offset = 0
    while True:
        flags, type_code = section[offset], section[offset + 1]
        if flags & 0x10:  # extended length: a 2-byte length field
            (length,) = struct.unpack_from("!H", section, offset + 2)
            offset += 4
        else:
            length = section[offset + 2]
            offset += 3
        if type_code == 2:
            break
        offset += length
    segments = []
    end = offset + length
    while offset < end:
        kind, count = section[offset], section[offset + 1]
        segments.append((kind, count))
        offset += 2 + 4 * count
    assert offset == end
    return segments


def as_path_section(segments, as4: bool) -> bytes:
    """An attribute section holding one AS_PATH built from ``segments``,
    each a ``(segment type, declared count, ASNs)``; a ``None`` count is
    the length of the ASNs."""
    code = "I" if as4 else "H"
    payload = b"".join(
        struct.pack(f"!BB{len(asns)}{code}", kind, len(asns) if count is None else count, *asns)
        for kind, count, asns in segments
    )
    return bytes([0x40, 2, len(payload)]) + payload


class TestAsPathSegments:
    """The AS_PATH wire form: RFC 4271 segments around the flat path."""

    @pytest.mark.parametrize(
        "length, counts",
        [(0, []), (1, [1]), (255, [255]), (256, [255, 1]), (511, [255, 255, 1])],
    )
    def test_a_path_is_written_as_sequences_of_at_most_255(self, length, counts):
        path = ASPath.of(*range(1, length + 1))
        section = encode_path_attributes(PathAttributes(as_path=path))
        assert as_path_segments(section) == [(2, count) for count in counts]
        message = update_message(section, nlri=bytes([8, 10]))
        decoded = decode_update(message, AddressFamily.IPV4, True).attributes
        assert decoded.as_path == path and hash(decoded.as_path) == hash(path)

    @pytest.mark.parametrize("as4", [True, False], ids=["4-byte", "2-byte"])
    @pytest.mark.parametrize(
        "segments, message",
        [
            pytest.param(
                [(2, None, (3356,)), (2, 1, ())], "truncated AS_PATH segment body", id="short-body"
            ),
            pytest.param(
                [(2, 3, (3356, 1299))], "truncated AS_PATH segment body", id="count-overstated"
            ),
            pytest.param([(0, None, (3356,))], "unknown AS_PATH segment type 0", id="type-0"),
            # RFC 5065 confederation segments are not read.
            pytest.param(
                [(2, None, (3356,)), (3, None, (65001,))],
                "unknown AS_PATH segment type 3",
                id="confed-sequence",
            ),
            pytest.param([(4, None, (65001,))], "unknown AS_PATH segment type 4", id="confed-set"),
        ],
    )
    def test_a_malformed_segment_is_a_message_error(self, segments, message, as4):
        with pytest.raises(MessageError, match=message):
            decode_update(update_message(as_path_section(segments, as4)), AddressFamily.IPV4, as4)

    @pytest.mark.parametrize("as4", [True, False], ids=["4-byte", "2-byte"])
    def test_a_stray_byte_after_the_last_segment_is_a_message_error(self, as4):
        section = as_path_section([(2, None, (3356, 1299))], as4)
        section = bytes([section[0], section[1], section[2] + 1]) + section[3:] + b"\x02"
        with pytest.raises(MessageError, match="truncated AS_PATH segment header"):
            decode_update(update_message(section), AddressFamily.IPV4, as4)


def observation(**overrides) -> RouteObservation:
    fields = dict(
        platform="RIS",
        collector_id="rrc00",
        peer_asn=3356,
        prefix=Prefix.from_string("203.0.113.0/24"),
        as_path=(3356, 13335),
        communities=CommunitySet.of("3356:100"),
        timestamp=1522540800.0,
    )
    fields.update(overrides)
    return RouteObservation(**fields)


class TestWriteMrtIsAllOrNothing:
    """A failure anywhere in the archive leaves the destination as it was."""

    def bad_rows(self):
        # 1 100 communities encode to an UPDATE over the 4 096-byte BGP limit.
        oversized = CommunitySet(Community(64512, value) for value in range(1100))
        # A withdrawal carries no AS path that could reject the ASN first.
        wide_peer = observation(
            peer_asn=(1 << 32) + 10, as_path=(), communities=CommunitySet(), withdrawn=True
        )
        return {
            "oversized update": (observation(communities=oversized), MessageError),
            "timestamp": (observation(timestamp=float(1 << 32)), MrtError),
            "peer ASN": (wide_peer, MrtError),
        }

    @pytest.mark.parametrize("what", ["oversized update", "timestamp", "peer ASN"])
    def test_previous_archive_survives(self, tmp_path, what):
        bad, error = self.bad_rows()[what]
        path = tmp_path / "archive.mrt"
        ObservationArchive([observation(), observation(peer_asn=1299)]).write_mrt(path)
        before = path.read_bytes()
        with pytest.raises(error):
            ObservationArchive([observation(), bad, observation(peer_asn=1299)]).write_mrt(path)
        assert path.read_bytes() == before

    def test_no_file_appears_where_there_was_none(self, tmp_path):
        bad, error = self.bad_rows()["oversized update"]
        path = tmp_path / "archive.mrt"
        with pytest.raises(error):
            ObservationArchive([observation(), bad]).write_mrt(path)
        assert not path.exists()


class TestTruncationOffsets:
    """``MrtTruncatedError`` says where the data ran out and which record it hit."""

    def archive_bytes(self, tmp_path) -> tuple[bytes, int]:
        path = tmp_path / "archive.mrt"
        ObservationArchive([observation(), observation(peer_asn=1299)]).write_mrt(path)
        data = path.read_bytes()
        first = len(data) // 2  # two records of equal size
        return data, first

    def expect(self, tmp_path, data: bytes, message: str):
        path = tmp_path / "cut.mrt"
        path.write_bytes(data)
        with pytest.raises(MrtTruncatedError) as raised:
            ObservationArchive.from_mrt(path)
        assert str(raised.value) == message

    def test_cut_inside_a_header(self, tmp_path):
        data, first = self.archive_bytes(tmp_path)
        cut = first + 5
        self.expect(
            tmp_path,
            data[:cut],
            f"truncated MRT common header at byte offset {cut} (record starts at {first})",
        )

    def test_cut_inside_a_payload(self, tmp_path):
        data, first = self.archive_bytes(tmp_path)
        cut = first + 12 + 30
        self.expect(
            tmp_path,
            data[:cut],
            f"truncated MRT record payload at byte offset {cut} (record starts at {first})",
        )

    def test_cut_inside_the_microsecond_field(self, tmp_path):
        data, first = self.archive_bytes(tmp_path)
        timestamp, _mrt_type, subtype, length = struct.unpack("!IHHI", data[first:first + 12])
        extended = (
            data[:first]
            + struct.pack("!IHHI", timestamp, MrtType.BGP4MP_ET, subtype, length + 4)
            + struct.pack("!I", 250_000)
            + data[first + 12:]
        )
        # Whole, the BGP4MP_ET form reads back like the plain one, its
        # microseconds added to the header's seconds.
        path = tmp_path / "et.mrt"
        path.write_bytes(extended)
        assert [(o.peer_asn, o.timestamp) for o in ObservationArchive.from_mrt(path)] == [
            (3356, timestamp),
            (1299, timestamp + 0.25),
        ]
        cut = first + 12 + 2
        self.expect(
            tmp_path,
            extended[:cut],
            f"truncated BGP4MP_ET microsecond field at byte offset {cut} (record starts at {first})",
        )


class TestSubSecondTimestamps:
    """A fraction of a second survives ``write_mrt`` -> ``from_mrt`` as a BGP4MP_ET record."""

    T = 1522540800

    def write(self, tmp_path, *timestamps: float) -> tuple[Path, list[MrtRecord]]:
        path = tmp_path / "archive.mrt"
        rows = [observation(peer_asn=peer, timestamp=ts) for peer, ts in zip(_PEERS, timestamps)]
        ObservationArchive(rows).write_mrt(path)
        with path.open("rb") as stream:
            return path, list(iter_stream_records(stream))

    def test_a_fraction_is_written_as_bgp4mp_et_and_read_back(self, tmp_path):
        path, records = self.write(tmp_path, float(self.T), self.T + 0.25)
        assert [(r.mrt_type, r.timestamp, r.microseconds) for r in records] == [
            (MrtType.BGP4MP, self.T, 0),
            (MrtType.BGP4MP_ET, self.T, 250_000),
        ]
        # The microsecond field counts in the header's length.
        assert path.stat().st_size == 2 * (12 + len(records[0].payload)) + 4
        assert decode_bgp4mp_message(records[1]).microseconds == 250_000
        assert [o.timestamp for o in ObservationArchive.from_mrt(path)] == [self.T, self.T + 0.25]

    def test_a_zero_microsecond_et_record_reads_the_same_and_writes_back_plain(self, tmp_path):
        # RFC 6396 allows a BGP4MP_ET record whose microsecond field is 0;
        # the writer never makes one.  Read -> write keeps its rows, and
        # gives the plain BGP4MP framing, 4 bytes shorter.
        path = tmp_path / "plain.mrt"
        ObservationArchive([observation(communities=CommunitySet())]).write_mrt(path)
        plain = path.read_bytes()
        timestamp, _mrt_type, subtype, length = struct.unpack("!IHHI", plain[:12])
        twin = tmp_path / "et.mrt"
        twin.write_bytes(
            struct.pack("!IHHII", timestamp, MrtType.BGP4MP_ET, subtype, length + 4, 0) + plain[12:]
        )
        assert (len(plain), twin.stat().st_size) == (83, 87)
        read = ObservationArchive.from_mrt(twin)
        assert list(read) == list(ObservationArchive.from_mrt(path))
        again = tmp_path / "again.mrt"
        assert read.write_mrt(again) == 1
        assert again.read_bytes() == plain

    def test_rounding_to_microseconds_carries_into_the_seconds(self, tmp_path):
        _path, records = self.write(tmp_path, self.T + 0.9999997)
        assert [(r.mrt_type, r.timestamp, r.microseconds) for r in records] == [
            (MrtType.BGP4MP, self.T + 1, 0)
        ]

    def test_a_microsecond_field_out_of_range_is_refused(self):
        message = next(ObservationArchive([observation()]).to_mrt_messages())
        with pytest.raises(MrtError, match="microsecond field"):
            encode_bgp4mp_message(message._replace(microseconds=1_000_000))

    @pytest.mark.parametrize("timestamp", [-1, 1 << 32])
    def test_the_header_refuses_a_timestamp_outside_32_bits(self, timestamp):
        # Masked, 2**32 would be written as 1970-01-01.
        message = next(ObservationArchive([observation()]).to_mrt_messages())
        with pytest.raises(MrtError, match=f"timestamp {timestamp} does not fit the 32-bit"):
            encode_bgp4mp_message(message._replace(timestamp=timestamp))

    def test_a_timestamp_that_rounds_to_second_2_to_the_32_is_refused(self, tmp_path):
        path = tmp_path / "archive.mrt"
        with pytest.raises(MrtError, match="does not fit the 32-bit MRT header"):
            ObservationArchive([observation(timestamp=4294967295.9999995)]).write_mrt(path)
        assert not path.exists()
        # The last microsecond before it still fits.
        ObservationArchive([observation(timestamp=4294967295.999999)]).write_mrt(path)
        (record,) = records_of(path.read_bytes())
        assert (record.timestamp, record.microseconds) == ((1 << 32) - 1, 999_999)

    @pytest.mark.parametrize("microseconds", [999_999, 1_000_000, 2_500_000, 0xFFFFFFFF])
    def test_the_reader_refuses_a_microsecond_field_of_a_second_or_more(
        self, tmp_path, microseconds
    ):
        path, _records = self.write(tmp_path, self.T + 0.25)
        data = path.read_bytes()
        # The field follows the 12-byte common header.
        path.write_bytes(data[:12] + struct.pack("!I", microseconds) + data[16:])
        if microseconds < 1_000_000:
            assert [o.timestamp for o in ObservationArchive.from_mrt(path)] == [
                self.T + microseconds / 1e6
            ]
            return
        with pytest.raises(
            MrtError,
            match=rf"BGP4MP_ET microsecond field {microseconds} is outside 0\.\.999999 "
            r"\(record starts at 0\)",
        ):
            ObservationArchive.from_mrt(path)


_PEERS = (10, 3356, 70000, 4200000001)
_PREFIXES = tuple(
    Prefix.from_string(text)
    for text in ("203.0.113.0/24", "10.0.0.0/8", "2001:db8::/32", "2001:db8:1::/48")
)
_PATHS = ((13335,), (1299, 13335), (1299, 1299, 70000, 13335), (4200000001, 65536, 1))
_COMMUNITY_SETS = (
    CommunitySet(),
    CommunitySet.of("3356:100"),
    CommunitySet.of("1299:666", "65535:666", "3356:100"),
)
_COLLECTORS = (("RIS", "rrc00"), ("RIS", "rrc01"), ("RV", "route-views2"), ("PCH", "pch-0"))


@st.composite
def _observations(draw) -> RouteObservation:
    # Small pools on purpose: the same route heard at several collectors
    # and at several times is the case under test.
    platform, collector_id = draw(st.sampled_from(_COLLECTORS))
    peer_asn = draw(st.sampled_from(_PEERS))
    withdrawn = draw(st.booleans())
    return RouteObservation(
        platform=platform,
        collector_id=collector_id,
        peer_asn=peer_asn,
        prefix=draw(st.sampled_from(_PREFIXES)),
        as_path=() if withdrawn else (peer_asn,) + draw(st.sampled_from(_PATHS)),
        communities=CommunitySet() if withdrawn else draw(st.sampled_from(_COMMUNITY_SETS)),
        timestamp=float(draw(st.sampled_from((0, 1522540800, 1522540801, (1 << 32) - 1)))),
        withdrawn=withdrawn,
    )


def _carried(o: RouteObservation) -> tuple:
    """What of an observation an MRT record carries."""
    return (o.timestamp, o.peer_asn, o.prefix, o.as_path, o.communities, o.withdrawn)


def _rows_of(messages) -> list[tuple]:
    """The archive rows of decoded messages, rebuilt without ``from_mrt``."""
    rows = []
    for message in messages:
        timestamp = float(message.timestamp)
        for prefix in message.update.withdrawn:
            rows.append((timestamp, message.peer_asn, prefix, (), CommunitySet(), True))
        for prefix in message.update.announced:
            attributes = message.update.attributes
            rows.append(
                (
                    timestamp,
                    message.peer_asn,
                    prefix,
                    tuple(attributes.as_path),
                    attributes.communities,
                    False,
                )
            )
    return rows


class TestArchiveBridgeEquivalence:
    """``write_mrt`` / ``from_mrt`` against the per-message codec they shortcut."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_observations(), max_size=30))
    def test_bytes_rows_and_codec_call_counts(self, tmp_path_factory, rows):
        archive = ObservationArchive(rows)
        path = tmp_path_factory.mktemp("bridge") / "archive.mrt"
        calls = {"encode": 0, "decode": 0}

        def counted(name, function):
            def wrapper(argument):
                calls[name] += 1
                return function(argument)

            return wrapper

        # The bridge must find the codec through the module attribute:
        # that is where the perf tracer hooks it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                mrt_writer, "encode_bgp4mp_message", counted("encode", encode_bgp4mp_message)
            )
            patch.setattr(
                mrt_reader,
                "decode_bgp4mp_message",
                counted("decode", mrt_reader.decode_bgp4mp_message),
            )
            assert archive.write_mrt(path) == len(rows)
            reread = ObservationArchive.from_mrt(path, platform="RIS", collector_id="rrc00")

        data = path.read_bytes()
        assert data == b"".join(encode_bgp4mp_message(m) for m in archive.to_mrt_messages())
        assert [_carried(o) for o in reread] == [_carried(o) for o in rows]
        assert [_carried(o) for o in reread] == _rows_of(messages_of(data))
        assert {(o.platform, o.collector_id) for o in reread} <= {("RIS", "rrc00")}
        assert calls["encode"] == len({_carried(o) for o in rows})
        assert calls["decode"] == len(
            {(r.mrt_type, r.subtype, r.payload) for r in records_of(data)}
        )

    @pytest.mark.parametrize(
        "record",
        [
            # TABLE_DUMP_V2 PEER_INDEX_TABLE: collector id, view "v", no peers.
            framed(MrtType.TABLE_DUMP_V2, 1, struct.pack("!IH", 1, 1) + b"v" + struct.pack("!H", 0)),
            framed(
                MrtType.TABLE_DUMP_V2,
                2,  # RIB_IPV4_UNICAST: sequence, 203.0.113.0/24, one entry with an ORIGIN
                struct.pack("!I4sHHIH", 7, bytes([24, 203, 0, 113]), 1, 0, 0, 4) + bytes([0x40, 1, 1, 0]),
            ),
            framed(MrtType.TABLE_DUMP, 1, b"\x00" * 20),
            framed(MrtType.BGP4MP, Bgp4mpSubtype.STATE_CHANGE, b"\x00" * 20),
            framed(MrtType.BGP4MP, Bgp4mpSubtype.STATE_CHANGE_AS4, b"\x00" * 24, timestamp=1),
            framed(MrtType.BGP4MP_ET, Bgp4mpSubtype.STATE_CHANGE_AS4, struct.pack("!I", 5) + b"\x00" * 24),
            framed(99, 0, b"\xff" * 3),
        ],
        ids=[
            "peer-index-table",
            "rib-ipv4-unicast",
            "table-dump",
            "state-change",
            "state-change-as4",
            "et-state-change-as4",
            "unknown-type",
        ],
    )
    def test_other_record_types_are_skipped(self, tmp_path, record):
        path = tmp_path / "mixed.mrt"
        ObservationArchive([observation()]).write_mrt(path)
        path.write_bytes(record + path.read_bytes() + record)
        assert [_carried(o) for o in ObservationArchive.from_mrt(path)] == [_carried(observation())]

    def test_reader_messages_share_nothing_mutable(self, tmp_path):
        path = tmp_path / "twice.mrt"
        ObservationArchive([observation(), observation(collector_id="rrc01")]).write_mrt(path)
        one, other = records_of(path.read_bytes())
        assert one == other
        first, second = decode_bgp4mp_message(one), decode_bgp4mp_message(other)
        assert first == second
        assert first.update is not second.update
        assert first.update.announced is not second.update.announced
        assert first.update.withdrawn is not second.update.withdrawn
        first.update.announced.clear()
        assert second.update.announced == [Prefix.from_string("203.0.113.0/24")]


class TestCorruptArchives:
    """A damaged archive is read, or refused with a library error; nothing else escapes."""

    @settings(max_examples=15, deadline=None)
    @given(st.lists(_observations(), min_size=1, max_size=3), st.integers(1, 255))
    def test_every_cut_and_every_overwritten_byte(self, tmp_path_factory, rows, flip):
        path = tmp_path_factory.mktemp("corrupt") / "archive.mrt"
        ObservationArchive(rows).write_mrt(path)
        archive = path.read_bytes()
        for offset in range(len(archive)):
            overwritten = archive[:offset] + bytes((archive[offset] ^ flip,)) + archive[offset + 1:]
            for damaged in (archive[:offset], overwritten):
                path.write_bytes(damaged)
                try:
                    ObservationArchive.from_mrt(path)
                except ReproError:
                    pass


def _record_cases():
    prefix = Prefix.from_string("203.0.113.0/24")
    update = BgpUpdate(announced=[prefix], attributes=make_attributes())
    return [
        (
            MrtRecord,
            dict(timestamp=1522540800, mrt_type=16, subtype=4, payload=b"\x01\x02", microseconds=5),
            {"microseconds": 0},
        ),
        (
            Bgp4mpMessage,
            dict(
                timestamp=1522540800,
                peer_asn=3356,
                local_asn=65000,
                peer_ip=3356,
                local_ip=0xC0000201,
                interface_index=0,
                address_family=1,
                update=update,
                microseconds=250_000,
            ),
            {"microseconds": 0},
        ),
        (
            RouteObservation,
            dict(
                platform="RIS",
                collector_id="rrc00",
                peer_asn=3356,
                prefix=prefix,
                as_path=(3356, 3356, 13335),
                communities=CommunitySet.of("3356:100"),
                timestamp=1522540800.0,
                withdrawn=True,
            ),
            {"communities": CommunitySet(), "timestamp": 0.0, "withdrawn": False},
        ),
    ]


@pytest.mark.parametrize(
    "record_type, fields, defaults",
    [pytest.param(*case, id=case[0].__name__) for case in _record_cases()],
)
class TestRecordValueSemantics:
    """The tuple-backed records behave as the frozen dataclasses they replaced."""

    def test_hash_is_the_hash_of_the_field_tuple(self, record_type, fields, defaults):
        record = record_type(**fields)
        values = tuple(fields.values())
        try:
            expected = hash(values)
        except TypeError:  # a Bgp4mpMessage holds a mutable BgpUpdate
            with pytest.raises(TypeError):
                hash(record)
        else:
            # The frozen dataclass hash: set and dict orders, and digests, cannot move.
            assert hash(record) == expected

    def test_fields_cannot_be_assigned(self, record_type, fields, defaults):
        record = record_type(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) == value

    def test_construction_by_position_and_keyword_with_defaults(
        self, record_type, fields, defaults
    ):
        values = tuple(fields.values())
        assert record_type(*values) == record_type(**fields)
        assert [getattr(record_type(*values), name) for name in fields] == list(values)
        required = {name: value for name, value in fields.items() if name not in defaults}
        shortened = record_type(**required)
        for name in fields:
            assert getattr(shortened, name) == defaults.get(name, fields[name])
        assert shortened == record_type(*required.values())

    def test_pickle_round_trip(self, record_type, fields, defaults):
        record = record_type(**fields)
        copy = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy) is record_type
        assert copy == record


def test_observation_views_survive_a_pickle_round_trip():
    original = observation(as_path=(3356, 3356, 13335))
    assert original.path_without_prepending == (3356, 13335)  # fills the cache
    copy = pickle.loads(pickle.dumps(original))
    assert copy == original
    assert copy.path_without_prepending == (3356, 13335)

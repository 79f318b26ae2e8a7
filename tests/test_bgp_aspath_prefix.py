"""Tests for AS paths (repro.bgp.aspath) and prefixes (repro.bgp.prefix)."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType, edges_of_path
from repro.bgp.prefix import AddressFamily, Prefix
from repro.exceptions import ASPathError, PrefixError


class TestASPath:
    def test_of_and_str(self):
        path = ASPath.of(5, 4, 3, 2, 1)
        assert str(path) == "5 4 3 2 1"
        assert path.origin_asn == 1
        assert path.first_asn == 5
        assert len(path) == 5

    def test_empty_path(self):
        path = ASPath.of()
        assert path.origin_asn is None
        assert path.first_asn is None
        assert len(path) == 0

    def test_from_string(self):
        path = ASPath.from_string("3356 1299 13335")
        assert path.asns() == [3356, 1299, 13335]

    def test_from_string_with_set(self):
        path = ASPath.from_string("3356 {64500,64501} 13335")
        assert path.length() == 3  # the AS_SET counts as one hop
        assert 64500 in path.asns()

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ASPathError):
            ASPath.from_string("3356 foo")

    def test_prepending_removal(self):
        path = ASPath.of(3, 3, 3, 2, 1)
        assert path.without_prepending().asns() == [3, 2, 1]
        assert path.unique_asns() == [3, 2, 1]

    def test_prepend(self):
        path = ASPath.of(2, 1).prepend(9, 3)
        assert path.asns() == [9, 9, 9, 2, 1]

    def test_prepend_keeps_as_sets(self):
        # Flattening the set made an exported aggregate one hop longer than it
        # is, so it lost the decision process against a real three-hop path.
        sequence, as_set = (SegmentType.AS_SEQUENCE, SegmentType.AS_SET)
        path = ASPath.from_string("3356 {64500,64501}").prepend(10)
        assert path.segments == (
            ASPathSegment(sequence, (10, 3356)),
            ASPathSegment(as_set, (64500, 64501)),
        )
        assert path.length() == 3
        leading_set = ASPath.from_string("{64500,64501} 3356").prepend(10, 2)
        assert [s.segment_type for s in leading_set.segments] == [sequence, as_set, sequence]
        assert leading_set.segments[0].asns == (10, 10)
        assert leading_set.length() == 4
        assert ASPath.of().prepend(7) == ASPath.of(7)
        assert path.prepend(10, 0) == path

    def test_prepend_validates_the_asn(self):
        with pytest.raises(ASPathError):
            ASPath.of(1).prepend(1 << 32)

    def test_prepend_rejects_negative(self):
        with pytest.raises(ASPathError):
            ASPath.of(1).prepend(2, -1)

    def test_hops_from_origin(self):
        path = ASPath.of(5, 4, 3, 2, 1)
        assert path.hops_from_origin(1) == 0
        assert path.hops_from_origin(3) == 2
        assert path.hops_from_origin(5) == 4
        assert path.hops_from_origin(99) is None

    def test_hops_from_origin_ignores_prepending(self):
        path = ASPath.of(5, 4, 4, 4, 1)
        assert path.hops_from_origin(5) == 2

    def test_hops_to_observer(self):
        path = ASPath.of(5, 4, 3)
        assert path.hops_to_observer(5) == 0
        assert path.hops_to_observer(3) == 2

    def test_contains_and_loop(self):
        path = ASPath.of(3, 2, 1)
        assert path.contains(2)
        assert path.has_loop(3)
        assert not path.contains(7)

    def test_segment_validation(self):
        with pytest.raises(ASPathError):
            ASPathSegment(SegmentType.AS_SEQUENCE, (1 << 33,))

    def test_equality_and_hash(self):
        assert ASPath.of(1, 2) == ASPath.of(1, 2)
        assert hash(ASPath.of(1, 2)) == hash(ASPath.of(1, 2))
        assert ASPath.of(1, 2) != ASPath.of(2, 1)

    def test_edges_of_path(self):
        assert edges_of_path([5, 4, 3]) == [(4, 5), (3, 4)]
        assert edges_of_path([5, 5, 4]) == [(4, 5)]

    @given(st.lists(st.integers(1, 100000), min_size=1, max_size=12))
    def test_without_prepending_is_idempotent(self, asns):
        path = ASPath.of(*asns)
        once = path.without_prepending()
        assert once.without_prepending() == once
        assert once.origin_asn == path.origin_asn


prefixes = st.one_of(
    st.builds(Prefix.ipv4, st.integers(0, (1 << 32) - 1), st.integers(0, 32)),
    st.builds(Prefix.ipv6, st.integers(0, (1 << 128) - 1), st.integers(0, 128)),
)


class TestPrefix:
    def test_from_string_ipv4(self):
        prefix = Prefix.from_string("192.0.2.0/24")
        assert prefix.is_ipv4
        assert prefix.length == 24
        assert str(prefix) == "192.0.2.0/24"

    def test_from_string_ipv6(self):
        prefix = Prefix.from_string("2001:db8::/32")
        assert prefix.is_ipv6
        assert str(prefix) == "2001:db8::/32"

    def test_host_bits_are_cleared(self):
        prefix = Prefix.from_string("192.0.2.77/24")
        assert str(prefix) == "192.0.2.0/24"

    def test_rejects_missing_length(self):
        with pytest.raises(PrefixError):
            Prefix.from_string("192.0.2.0")

    def test_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix.from_string("192.0.2.0/33")

    def test_contains_prefix(self):
        parent = Prefix.from_string("10.0.0.0/8")
        child = Prefix.from_string("10.1.0.0/16")
        assert parent.contains_prefix(child)
        assert not child.contains_prefix(parent)
        assert parent.contains_prefix(parent)

    def test_cross_family_containment_is_false(self):
        v4 = Prefix.from_string("10.0.0.0/8")
        v6 = Prefix.from_string("2001:db8::/32")
        assert not v4.contains_prefix(v6)
        assert not v4.overlaps(v6)

    def test_contains_address(self):
        prefix = Prefix.from_string("192.0.2.0/24")
        assert prefix.contains_address(prefix.host(1))
        assert not prefix.contains_address(prefix.network - 1)

    def test_overlaps(self):
        a = Prefix.from_string("10.0.0.0/16")
        b = Prefix.from_string("10.0.128.0/17")
        c = Prefix.from_string("10.1.0.0/16")
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_subprefix(self):
        parent = Prefix.from_string("10.0.0.0/8")
        child = parent.subprefix(24, 1)
        assert str(child) == "10.0.1.0/24"
        assert parent.contains_prefix(child)

    def test_subprefix_rejects_shorter(self):
        with pytest.raises(PrefixError):
            Prefix.from_string("10.0.0.0/24").subprefix(16)

    def test_subprefix_rejects_bad_index(self):
        with pytest.raises(PrefixError):
            Prefix.from_string("10.0.0.0/24").subprefix(25, 2)

    def test_host_and_host_text(self):
        prefix = Prefix.from_string("198.51.100.0/24")
        assert prefix.host_text(1) == "198.51.100.1"
        with pytest.raises(PrefixError):
            prefix.host(256)

    def test_host_default_clamps_for_host_routes(self):
        # /32 and /128 host routes have exactly one address: the default
        # offset falls back to 0 instead of raising (RTBH announces /32s).
        v4_host = Prefix.from_string("198.51.100.9/32")
        assert v4_host.host() == v4_host.network
        assert v4_host.host_text() == "198.51.100.9"
        v6_host = Prefix.from_string("2001:db8::1/128")
        assert v6_host.host() == v6_host.network
        # An explicit out-of-range offset still raises.
        with pytest.raises(PrefixError):
            v4_host.host(1)
        # Wider prefixes keep the representative-host default of 1.
        assert Prefix.from_string("198.51.100.0/24").host() == Prefix.from_string(
            "198.51.100.0/24"
        ).network + 1

    def test_ordering_and_hashing(self):
        a = Prefix.from_string("10.0.0.0/8")
        b = Prefix.from_string("10.0.0.0/16")
        assert a != b
        assert len({a, b, Prefix.from_string("10.0.0.0/8")}) == 2

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, 32))
    def test_normalisation_property(self, network, length):
        prefix = Prefix(AddressFamily.IPV4, network, length)
        # The stored network never has host bits set and normalisation is idempotent.
        if length < 32:
            assert prefix.network % (1 << (32 - length)) == 0
        assert Prefix(AddressFamily.IPV4, prefix.network, length) == prefix
        assert prefix.contains_prefix(prefix)

    @given(st.lists(prefixes, max_size=12))
    def test_value_semantics_are_the_field_tuple(self, items):
        fields = [(p.family, p.network, p.length) for p in items]
        # The tuple hash is the one the old cached hash used, so every dict
        # and set of prefixes iterates in the same order as before.
        assert [hash(p) for p in items] == [hash(f) for f in fields]
        assert [(p.family, p.network, p.length) for p in sorted(items)] == sorted(fields)
        for prefix in items:
            assert not hasattr(prefix, "__dict__")
            with pytest.raises(AttributeError):
                prefix.length = 0
            with pytest.raises(AttributeError):
                prefix.note = "prefixes take no new attributes"
            for twin in (pickle.loads(pickle.dumps(prefix)), copy.deepcopy(prefix)):
                assert twin == prefix and type(twin) is Prefix

    @given(prefixes)
    def test_construction_still_validates(self, prefix):
        family, bits = prefix.family, prefix.family.bits
        for length in (-1, bits + 1):
            with pytest.raises(PrefixError, match="length"):
                Prefix(family, prefix.network, length)
        for network in (-1, 1 << bits):
            with pytest.raises(PrefixError, match="network"):
                Prefix(family, network, prefix.length)
        for not_a_family in (int(family), family.name, None):
            with pytest.raises(PrefixError, match="AddressFamily"):
                Prefix(not_a_family, prefix.network, prefix.length)
        assert Prefix(*prefix) == prefix

"""Tests for the community data model (repro.bgp.community)."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.bgp.community import (
    BLACKHOLE,
    NO_ADVERTISE,
    NO_EXPORT,
    NO_PEER,
    Community,
    CommunitySet,
    WellKnownCommunity,
    is_private_asn,
)
from repro.exceptions import CommunityError


class TestCommunity:
    def test_from_string(self):
        community = Community.from_string("3130:411")
        assert community.asn == 3130
        assert community.value == 411

    def test_str_roundtrip(self):
        assert str(Community(2914, 421)) == "2914:421"
        assert Community.from_string(str(Community(2914, 421))) == Community(2914, 421)

    def test_int_roundtrip(self):
        raw = Community(65535, 666).to_int()
        assert raw == 0xFFFF029A
        assert Community.from_int(raw) == Community(65535, 666)

    def test_rejects_out_of_range_asn(self):
        with pytest.raises(CommunityError):
            Community(70000, 1)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(CommunityError):
            Community(1, 70000)

    def test_rejects_negative(self):
        with pytest.raises(CommunityError):
            Community(-1, 1)

    def test_rejects_malformed_string(self):
        with pytest.raises(CommunityError):
            Community.from_string("1:2:3")
        with pytest.raises(CommunityError):
            Community.from_string("abc:1")

    def test_well_known_blackhole(self):
        assert BLACKHOLE.asn == 65535
        assert BLACKHOLE.value == 666
        assert BLACKHOLE.is_blackhole
        assert BLACKHOLE.is_well_known

    def test_no_export_value(self):
        assert NO_EXPORT.to_int() == int(WellKnownCommunity.NO_EXPORT)
        assert NO_EXPORT.is_well_known
        assert NO_ADVERTISE.is_well_known
        assert NO_PEER.is_well_known

    def test_well_known_raw_values_hoisted(self):
        # is_well_known consults the module-level frozenset (hot-path
        # classification must not rebuild the set per call) and the set
        # covers exactly the IETF enum.
        from repro.bgp.community import WELL_KNOWN_RAW_VALUES

        assert WELL_KNOWN_RAW_VALUES == frozenset(int(c) for c in WellKnownCommunity)
        assert all(Community.from_int(raw).is_well_known for raw in WELL_KNOWN_RAW_VALUES)
        assert not Community(3356, 666).is_well_known

    def test_blackhole_value_convention(self):
        assert Community(3356, 666).has_blackhole_value
        assert not Community(3356, 666).is_blackhole  # only 65535:666 is the RFC one
        assert not Community(3356, 667).has_blackhole_value

    def test_private_asn_detection(self):
        assert is_private_asn(64512)
        assert is_private_asn(65534)
        assert not is_private_asn(64511)
        assert Community(64512, 1).is_private_asn
        assert not Community(3356, 1).is_private_asn

    def test_ordering_is_numeric(self):
        assert sorted([Community(2, 1), Community(1, 9)]) == [Community(1, 9), Community(2, 1)]

    @pytest.mark.parametrize(
        "asn, value, part",
        [(1.5, 2, "ASN"), ("1", 2, "ASN"), (None, 2, "ASN"), (1, 2.0, "value"), (1, "2", "value")],
    )
    def test_rejects_non_integer_parts(self, asn, value, part):
        with pytest.raises(CommunityError, match=f"community {part} part"):
            Community(asn, value)

    @pytest.mark.parametrize("raw", [3.5, 2.0, "5", None])
    def test_from_int_rejects_a_non_integer_raw_value(self, raw):
        with pytest.raises(CommunityError, match=f"community raw value {raw!r} is not an integer"):
            Community.from_int(raw)

    def test_integer_like_parts_become_plain_ints(self):
        community = Community(True, WellKnownCommunity.NO_EXPORT & 0xFFFF)
        assert type(community.asn) is int and type(community.value) is int
        assert str(community) == "1:65281"

    @given(st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=30))
    def test_hash_and_order_are_those_of_the_pair(self, pairs):
        # Sets of communities iterate in hash order, so the hash must stay
        # the pair's for every frozenset to keep its order.
        communities = [Community(asn, value) for asn, value in pairs]
        assert [hash(c) for c in communities] == [hash(pair) for pair in pairs]
        assert [(c.asn, c.value) for c in sorted(communities)] == sorted(pairs)

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_int_roundtrip_property(self, asn, value):
        community = Community(asn, value)
        assert Community.from_int(community.to_int()) == community

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_string_roundtrip_property(self, asn, value):
        community = Community(asn, value)
        assert Community.from_string(str(community)) == community


class TestCommunitySet:
    def test_of_accepts_mixed_inputs(self):
        communities = CommunitySet.of("100:1", Community(200, 2), (300 << 16) | 3)
        assert Community(100, 1) in communities
        assert Community(200, 2) in communities
        assert Community(300, 3) in communities

    def test_iteration_is_sorted(self):
        communities = CommunitySet.of("200:5", "100:9", "100:1")
        assert [str(c) for c in communities] == ["100:1", "100:9", "200:5"]

    def test_deduplication(self):
        assert len(CommunitySet.of("1:1", "1:1", Community(1, 1))) == 1

    def test_add_and_remove_are_pure(self):
        base = CommunitySet.of("1:1")
        extended = base.add("2:2")
        assert len(base) == 1
        assert len(extended) == 2
        reduced = extended.remove("1:1")
        assert Community(1, 1) not in reduced
        assert Community(1, 1) in extended

    def test_remove_missing_is_noop(self):
        assert len(CommunitySet.of("1:1").remove("9:9")) == 1

    def test_asn_filters(self):
        communities = CommunitySet.of("10:1", "10:2", "20:1")
        assert communities.asns() == {10, 20}
        assert len(communities.keep_asn(10)) == 2
        assert len(communities.remove_asn(10)) == 1
        assert list(communities.keep_asn(10)) == [Community(10, 1), Community(10, 2)]

    def test_blackhole_selection(self):
        communities = CommunitySet.of("65535:666", "3356:666", "3356:100")
        blackholes = communities.blackhole_communities()
        assert Community(65535, 666) in blackholes
        assert Community(3356, 666) in blackholes
        assert Community(3356, 100) not in blackholes

    def test_union(self):
        union = CommunitySet.of("1:1").union(CommunitySet.of("2:2"))
        assert len(union) == 2

    def test_filter(self):
        communities = CommunitySet.of("1:1", "1:666")
        assert len(communities.filter(lambda c: c.value == 666)) == 1

    def test_equality_and_hash(self):
        assert CommunitySet.of("1:1", "2:2") == CommunitySet.of("2:2", "1:1")
        assert hash(CommunitySet.of("1:1")) == hash(CommunitySet.of("1:1"))

    def test_rejects_uninterpretable(self):
        with pytest.raises(CommunityError):
            CommunitySet.of(3.14)

    @given(
        st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=20
        )
    )
    def test_set_semantics_property(self, pairs):
        communities = CommunitySet(Community(a, v) for a, v in pairs)
        assert len(communities) == len({(a, v) for a, v in pairs})
        assert list(communities) == sorted(communities)


# ------------------------------------------------- algebra vs a frozenset oracle
_PAIRS = st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))


def _spelled(pair: tuple[int, int], spelling: int):
    """One community in one of the three spellings the API coerces."""
    asn, value = pair
    return (Community(asn, value), f"{asn}:{value}", (asn << 16) | value)[spelling]


_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), st.lists(st.tuples(_PAIRS, st.integers(0, 2)), max_size=4)),
    st.tuples(st.just("remove"), st.lists(st.tuples(_PAIRS, st.integers(0, 2)), max_size=4)),
    st.tuples(st.just("union"), st.lists(_PAIRS, max_size=4)),
    st.tuples(st.just("remove_asn"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("keep_asn"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("filter_even"), st.none()),
)


class TestCommunitySetAlgebra:
    @given(st.lists(_PAIRS, max_size=8), st.lists(_OPERATIONS, max_size=8))
    def test_operations_match_a_frozenset_oracle(self, initial, operations):
        communities = CommunitySet(Community(a, v) for a, v in initial)
        oracle = frozenset(Community(a, v) for a, v in initial)
        for name, argument in operations:
            before = communities
            list(before)  # warm the cached order: a result must not inherit it
            if name == "add":
                communities = communities.add(*(_spelled(p, s) for p, s in argument))
                oracle = oracle | {Community(*p) for p, _ in argument}
            elif name == "remove":
                communities = communities.remove(*(_spelled(p, s) for p, s in argument))
                oracle = oracle - {Community(*p) for p, _ in argument}
            elif name == "union":
                other = CommunitySet(Community(*p) for p in argument)
                communities = communities.union(other)
                oracle = oracle | {Community(*p) for p in argument}
            elif name == "remove_asn":
                communities = communities.remove_asn(argument)
                oracle = frozenset(c for c in oracle if c.asn != argument)
            elif name == "keep_asn":
                communities = communities.keep_asn(argument)
                oracle = frozenset(c for c in oracle if c.asn == argument)
            else:
                communities = communities.filter(lambda c: c.value % 2 == 0)
                oracle = frozenset(c for c in oracle if c.value % 2 == 0)
            assert list(communities) == sorted(oracle)
            assert list(communities) == sorted(oracle)  # second pass reads the cache
            assert len(communities) == len(oracle)
            assert communities == CommunitySet(oracle)
            assert hash(communities) == hash(CommunitySet(oracle))
            assert list(before) == sorted(before._communities)  # operand untouched

    def test_coercion_errors_unchanged(self):
        base = CommunitySet.of("1:1")
        for bad in ("banana", "1:2:3", "1:x"):
            for call in (CommunitySet.of, base.add, base.remove, base.__contains__):
                with pytest.raises(CommunityError):
                    call(bad)
        for bad in (-1, 1 << 32, 3.14, None):
            for call in (CommunitySet.of, base.add, base.remove):
                with pytest.raises(CommunityError):
                    call(bad)

    def test_cached_order_does_not_travel(self):
        communities = CommunitySet.of("3:3", "1:1", "2:666")
        cold = pickle.dumps(communities)
        assert list(communities) == [Community(1, 1), Community(2, 666), Community(3, 3)]
        assert pickle.dumps(communities) == cold  # the cache adds no byte
        for clone in (pickle.loads(cold), copy.copy(communities), copy.deepcopy(communities)):
            assert clone._sorted is None
            assert clone == communities
            assert hash(clone) == hash(communities)
            assert list(clone) == list(communities)

    def test_equality_and_hash_ignore_the_cache(self):
        warm, cold = CommunitySet.of("2:2", "1:1"), CommunitySet.of("1:1", "2:2")
        list(warm)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert len({warm, cold}) == 1

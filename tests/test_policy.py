"""Tests for the policy package: actions, propagation policies, services, filters
and vendor profiles."""

from __future__ import annotations

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.aspath import ASPath
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import PolicyError
from repro.policy.actions import (
    ActionType,
    BlackholeAction,
    LocalPrefAction,
    LocationTagAction,
    NoopInformationalAction,
    PrependAction,
    SelectiveAnnounceAction,
    SuppressAction,
)
from repro.policy.community_policy import (
    ForwardAllPolicy,
    PropagationBehavior,
    SelectivePolicy,
    StripAllPolicy,
    StripOwnPolicy,
)
from repro.policy.filters import (
    InboundFilterChain,
    IrrDatabase,
    MaxPrefixLengthFilter,
)
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.vendor import JUNIPER_PROFILE, profile_by_name


ATTRS = PathAttributes(
    as_path=ASPath.of(2, 1),
    communities=CommunitySet.of("100:1", "200:2"),
)


class TestActions:
    def test_prepend(self):
        outcome = PrependAction(3).apply(ATTRS, owner_asn=9)
        # The owner prepends on export: the stored path stays as received.
        assert outcome.attributes is ATTRS
        assert outcome.export_prepend == 3
        assert not outcome.blackholed

    def test_prepend_rejects_silly_counts(self):
        with pytest.raises(PolicyError):
            PrependAction(0)
        with pytest.raises(PolicyError):
            PrependAction(100)

    def test_local_pref(self):
        outcome = LocalPrefAction(70).apply(ATTRS, owner_asn=9)
        assert outcome.attributes.local_pref == 70

    def test_blackhole_raises_pref_and_marks(self):
        outcome = BlackholeAction().apply(ATTRS, owner_asn=9)
        assert outcome.blackholed
        assert outcome.attributes.local_pref == 200

    def test_blackhole_without_pref_override(self):
        outcome = BlackholeAction(raise_local_pref_to=None).apply(ATTRS, owner_asn=9)
        assert outcome.blackholed
        assert outcome.attributes.local_pref == ATTRS.local_pref

    def test_selective_announce(self):
        outcome = SelectiveAnnounceAction(frozenset({5})).apply(ATTRS, owner_asn=9)
        assert outcome.announce_only_to == frozenset({5})

    def test_selective_announce_requires_targets(self):
        with pytest.raises(PolicyError):
            SelectiveAnnounceAction(frozenset())

    def test_suppress(self):
        outcome = SuppressAction(frozenset({5})).apply(ATTRS, owner_asn=9)
        assert outcome.suppress_to == frozenset({5})
        all_out = SuppressAction(suppress_all=True).apply(ATTRS, owner_asn=9)
        assert all_out.announce_only_to == frozenset()

    def test_location_tag(self):
        outcome = LocationTagAction(201).apply(ATTRS, owner_asn=9)
        assert Community(9, 201) in outcome.attributes.communities

    def test_noop(self):
        outcome = NoopInformationalAction().apply(ATTRS, owner_asn=9)
        assert outcome.attributes == ATTRS


class TestPropagationPolicies:
    COMMUNITIES = CommunitySet.of("10:1", "20:2", "30:3")

    def test_forward_all(self):
        policy = ForwardAllPolicy()
        assert policy.outbound_communities(self.COMMUNITIES, 10, 99) == self.COMMUNITIES
        assert policy.behavior == PropagationBehavior.FORWARD_ALL

    def test_strip_all_keeps_own_by_default(self):
        policy = StripAllPolicy()
        out = policy.outbound_communities(self.COMMUNITIES, 10, 99)
        assert list(out) == [Community(10, 1)]

    def test_strip_all_fully(self):
        policy = StripAllPolicy(keep_own=False)
        assert len(policy.outbound_communities(self.COMMUNITIES, 10, 99)) == 0

    def test_strip_own(self):
        policy = StripOwnPolicy()
        out = policy.outbound_communities(self.COMMUNITIES, 10, 99)
        assert Community(10, 1) not in out
        assert Community(20, 2) in out

    def test_selective_forwards_to_allowed_neighbor(self):
        policy = SelectivePolicy(forward_to_neighbors=frozenset({99}))
        assert policy.outbound_communities(self.COMMUNITIES, 10, 99) == self.COMMUNITIES
        restricted = policy.outbound_communities(self.COMMUNITIES, 10, 42)
        assert list(restricted) == [Community(10, 1)]

    def test_selective_always_strip(self):
        policy = SelectivePolicy(
            forward_to_neighbors=frozenset({99}), always_strip=frozenset({Community(30, 3)})
        )
        out = policy.outbound_communities(self.COMMUNITIES, 10, 99)
        assert Community(30, 3) not in out
        assert Community(20, 2) in out


class TestServiceCatalog:
    def test_standard_transit_catalog(self):
        catalog = CommunityServiceCatalog.standard_transit_catalog(2914)
        assert Community(2914, 421) in catalog
        assert Community(2914, 666) in catalog
        assert BLACKHOLE in catalog
        prepends = catalog.services_of_type(ActionType.PREPEND)
        assert [s.action.count for s in prepends] == [1, 2, 3]
        assert catalog.blackhole_communities()

    def test_matching_returns_sorted_by_value(self):
        catalog = CommunityServiceCatalog.standard_transit_catalog(2914)
        triggered = catalog.matching(CommunitySet.of("2914:423", "2914:421", "1:1"))
        assert [s.community.value for s in triggered] == [421, 423]

    def test_duplicate_definition_rejected(self):
        catalog = CommunityServiceCatalog(1)
        catalog.add(ServiceDefinition(Community(1, 1), PrependAction(1)))
        with pytest.raises(PolicyError):
            catalog.add(ServiceDefinition(Community(1, 1), PrependAction(2)))


class TestFilters:
    def test_max_length_regular(self):
        flt = MaxPrefixLengthFilter(max_length=24)
        assert flt.evaluate(Prefix.from_string("10.0.0.0/24"), 1, is_blackhole=False)
        assert not flt.evaluate(Prefix.from_string("10.0.0.0/25"), 1, is_blackhole=False)

    def test_max_length_blackhole_window(self):
        flt = MaxPrefixLengthFilter()
        assert flt.evaluate(Prefix.from_string("10.0.0.1/32"), 1, is_blackhole=True)
        assert flt.evaluate(Prefix.from_string("10.0.0.0/24"), 1, is_blackhole=True)
        assert not flt.evaluate(Prefix.from_string("10.0.0.0/20"), 1, is_blackhole=True)

    def test_max_length_is_per_family(self):
        # The IPv4 /24 cutoff must not reject ordinary IPv6 routes: a /32
        # allocation or /48 site announcement is legitimate, a /64 is not.
        flt = MaxPrefixLengthFilter()
        assert flt.evaluate(Prefix.from_string("2001:db8::/32"), 1, is_blackhole=False)
        assert flt.evaluate(Prefix.from_string("2001:db8:1::/48"), 1, is_blackhole=False)
        assert not flt.evaluate(Prefix.from_string("2001:db8::/64"), 1, is_blackhole=False)
        # IPv6 blackhole window: /48 up to /128 host routes.
        assert flt.evaluate(Prefix.from_string("2001:db8::1/128"), 1, is_blackhole=True)
        assert flt.evaluate(Prefix.from_string("2001:db8:1::/48"), 1, is_blackhole=True)
        assert not flt.evaluate(Prefix.from_string("2001:db8::/32"), 1, is_blackhole=True)

    def test_irr_validation(self):
        irr = IrrDatabase()
        prefix = Prefix.from_string("203.0.113.0/24")
        irr.register(prefix, 64500)
        assert irr.validate_origin(prefix, 64500)
        assert not irr.validate_origin(prefix, 64666)
        # Unknown space is accepted (unknown != invalid).
        assert irr.validate_origin(Prefix.from_string("192.0.2.0/24"), 1)

    def test_irr_weak_authentication_allows_circumvention(self):
        irr = IrrDatabase()
        prefix = Prefix.from_string("203.0.113.0/24")
        irr.register(prefix, 64500)
        # The attacker simply registers another object for the same space.
        irr.register(prefix, 64666)
        assert irr.validate_origin(prefix, 64666)

    def test_irr_strict_mode_blocks_conflicts(self):
        irr = IrrDatabase(strict=True)
        prefix = Prefix.from_string("203.0.113.0/24")
        irr.register(prefix, 64500)
        with pytest.raises(PolicyError):
            irr.register(prefix.subprefix(25, 0), 64666)

    def test_chain_blackhole_before_validation_misconfiguration(self):
        irr = IrrDatabase()
        victim = Prefix.from_string("203.0.113.0/24")
        irr.register(victim, 64500)
        misconfigured = InboundFilterChain(
            irr=irr, validate_origin=True, blackhole_before_validation=True
        )
        correct = InboundFilterChain(
            irr=irr, validate_origin=True, blackhole_before_validation=False
        )
        hijacked_32 = victim.subprefix(32, 7)
        # The misconfigured chain accepts a hijacked /32 when tagged as blackhole...
        assert misconfigured.evaluate(hijacked_32, 64666, is_blackhole=True)
        # ...while the corrected ordering rejects it.
        assert not correct.evaluate(hijacked_32, 64666, is_blackhole=True)
        # Both accept the legitimate origin.
        assert correct.evaluate(hijacked_32, 64500, is_blackhole=True)


class TestVendors:
    def test_juniper_has_no_32_community_add_limit(self):
        JUNIPER_PROFILE.check_added_communities(1000)

    def test_profile_lookup(self):
        assert profile_by_name("junos") is JUNIPER_PROFILE
        with pytest.raises(PolicyError):
            profile_by_name("unknown-vendor")

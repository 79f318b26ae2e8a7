"""Tests for the routing simulator: decision process, router, engine, route server."""

from __future__ import annotations

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.route import Announcement, RouteEntry
from repro.dataplane.forwarding import DataPlane
from repro.exceptions import RoutingError
from repro.policy.community_policy import ForwardAllPolicy, StripAllPolicy
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.policy.actions import SuppressAction
from repro.routing.decision import best_path
from repro.routing.engine import BgpSimulator
from repro.routing.route_server import RouteServer
from repro.routing.router import Router
from repro.attacks.scenario import (
    build_figure2_topology,
    build_figure7_topology,
    build_figure9_ixp,
)
from repro.policy.vendor import CISCO_PROFILE
from repro.topology.asys import AutonomousSystem
from repro.topology.relationships import Relationship
from repro.topology.topology import Topology


PREFIX = Prefix.from_string("203.0.113.0/24")


def deliver(router: Router, announcement: Announcement) -> tuple[RouteEntry, bool]:
    """Import one update, then re-select: the two calls the engine makes per delivery."""
    stored, _ = router.import_announcement(announcement)
    return stored, router.refresh_best(announcement.prefix)


def entry(learned_from: int, path: list[int], local_pref: int | None = None, **kwargs) -> RouteEntry:
    return RouteEntry(
        prefix=PREFIX,
        attributes=PathAttributes(as_path=ASPath.of(*path), local_pref=local_pref),
        learned_from=learned_from,
        **kwargs,
    )


class TestDecisionProcess:
    def test_highest_local_pref_wins(self):
        a = entry(1, [1, 9], local_pref=200)
        b = entry(2, [2, 9], local_pref=100)
        assert best_path([a, b]) is a

    def test_shortest_path_wins_on_equal_pref(self):
        a = entry(1, [1, 5, 9])
        b = entry(2, [2, 9])
        assert best_path([a, b]) is b

    def test_lowest_neighbor_asn_is_final_tiebreak(self):
        a = entry(7, [7, 9])
        b = entry(3, [3, 9])
        assert best_path([a, b]).learned_from == 3

    def test_rejected_routes_never_win(self):
        a = entry(1, [1, 9], rejected=True)
        b = entry(2, [2, 5, 9])
        assert best_path([a, b]) is b
        assert best_path([a]) is None
        assert best_path([]) is None


def two_as_router() -> Router:
    asys = AutonomousSystem(asn=10, propagation_policy=ForwardAllPolicy())
    return Router(asys, {20: Relationship.PROVIDER, 30: Relationship.CUSTOMER})


class TestRouter:
    def test_origination_and_export(self):
        router = two_as_router()
        router.originate(PREFIX, communities=None, origin_asn=None)
        decision = router.export_to(20, PREFIX)
        assert decision.export
        assert decision.announcement.attributes.as_path.asns() == [10]
        assert decision.announcement.origin_asn == 10

    def test_loop_prevention(self):
        router = two_as_router()
        announcement = Announcement(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(20, 10, 5)),
            sender_asn=20,
            origin_asn=5,
        )
        stored, _ = deliver(router, announcement)
        assert stored.rejected
        assert stored.rejection_reason == "as-path loop"

    def test_announcement_from_non_neighbor_rejected(self):
        router = two_as_router()
        announcement = Announcement(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(99)),
            sender_asn=99,
            origin_asn=99,
        )
        with pytest.raises(RoutingError):
            router.import_announcement(announcement)

    def test_local_pref_from_neighbor_is_ignored(self):
        router = two_as_router()
        announcement = Announcement(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(20, 5), local_pref=500),
            sender_asn=20,
            origin_asn=5,
        )
        stored, _ = deliver(router, announcement)
        assert not stored.rejected
        assert stored.attributes.effective_local_pref() == 100

    def test_valley_free_export(self):
        router = two_as_router()
        # Learned from the provider: export to the customer only.
        announcement = Announcement(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(20, 5)),
            sender_asn=20,
            origin_asn=5,
        )
        deliver(router, announcement)
        assert router.export_to(30, PREFIX).export
        assert not router.export_to(20, PREFIX).export  # split horizon anyway
        # Learned from the customer: export everywhere.
        router2 = two_as_router()
        deliver(
            router2,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(as_path=ASPath.of(30, 5)),
                sender_asn=30,
                origin_asn=5,
            )
        )
        assert router2.export_to(20, PREFIX).export

    def test_no_export_community_blocks_export(self):
        router = two_as_router()
        deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(
                    as_path=ASPath.of(30, 5),
                    communities=CommunitySet([Community.from_int(0xFFFFFF01)]),
                ),
                sender_asn=30,
                origin_asn=5,
            )
        )
        decision = router.export_to(20, PREFIX)
        assert not decision.export
        assert decision.reason == "NO_EXPORT"

    def test_cisco_without_send_community_strips_everything(self):
        asys = AutonomousSystem(asn=10, propagation_policy=ForwardAllPolicy(), vendor=CISCO_PROFILE)
        router = Router(asys, {30: Relationship.CUSTOMER, 20: Relationship.CUSTOMER})
        router.send_community_configured = False
        deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(
                    as_path=ASPath.of(30, 5), communities=CommunitySet.of("5:1")
                ),
                sender_asn=30,
                origin_asn=5,
            )
        )
        exported = router.export_to(20, PREFIX).announcement
        assert len(exported.attributes.communities) == 0

    def test_export_additions(self):
        router = two_as_router()
        router.export_community_additions[20] = CommunitySet.of("99:666")
        router.originate(PREFIX, communities=None, origin_asn=None)
        exported = router.export_to(20, PREFIX).announcement
        assert Community(99, 666) in exported.attributes.communities

    def test_looped_reannouncement_implicitly_withdraws_previous_route(self):
        # BGP implicit-withdraw semantics: a new update from the same
        # sender replaces the previous route even when the new update is
        # rejected (as-path loop), so the stale route cannot survive as
        # a best-path candidate.
        router = two_as_router()
        accepted, _ = deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(as_path=ASPath.of(20, 5)),
                sender_asn=20,
                origin_asn=5,
            ),
        )
        assert not accepted.rejected
        assert router.loc_rib.best(PREFIX) is not None

        looped, changed = deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(as_path=ASPath.of(20, 10, 5)),
                sender_asn=20,
                origin_asn=5,
            ),
        )
        assert looped.rejected
        assert looped.rejection_reason == "as-path loop"
        # The best route fell away with no other candidate...
        assert changed
        assert router.loc_rib.best(PREFIX) is None
        # ...and the stored entry is the rejected replacement, not the old route.
        stored = router.adj_rib_in[20].get(PREFIX)
        assert stored is not None and stored.rejected
        assert stored.rejection_reason == "as-path loop"

    def test_looped_reannouncement_falls_back_to_other_neighbor(self):
        router = two_as_router()
        for sender, path in ((20, [20, 5]), (30, [30, 7, 5])):
            deliver(
                router,
                Announcement(
                    prefix=PREFIX,
                    attributes=PathAttributes(as_path=ASPath.of(*path)),
                    sender_asn=sender,
                    origin_asn=5,
                ),
            )
        assert router.loc_rib.best(PREFIX).learned_from == 20  # shorter path
        _, changed = deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(as_path=ASPath.of(20, 10, 5)),
                sender_asn=20,
                origin_asn=5,
            ),
        )
        assert changed
        assert router.loc_rib.best(PREFIX).learned_from == 30  # fell back

    def test_no_peer_community_blocks_export_to_peers_only(self):
        from repro.bgp.community import NO_PEER

        asys = AutonomousSystem(asn=10, propagation_policy=ForwardAllPolicy())
        router = Router(asys, {20: Relationship.PEER, 30: Relationship.CUSTOMER})
        router.originate(PREFIX, communities=CommunitySet.of(NO_PEER), origin_asn=None)
        peer_decision = router.export_to(20, PREFIX)
        assert not peer_decision.export
        assert peer_decision.reason == "NO_PEER"
        # NO_PEER scopes bilateral peering links only; customers still
        # receive the route (RFC 3765).
        assert router.export_to(30, PREFIX).export

    def test_as0_spoofed_origin_is_preserved_on_export(self):
        # AS0 is falsy: the old `origin_asn or self.asn` fallback silently
        # rewrote an AS0-origin hijack into a legitimate-looking origin.
        router = two_as_router()
        router.originate(PREFIX, communities=None, origin_asn=0)
        decision = router.export_to(30, PREFIX)
        assert decision.export
        assert decision.announcement.origin_asn == 0
        assert decision.announcement.attributes.as_path.asns() == [10, 0]

    def test_prepend_applied_on_export_only(self):
        from repro.policy.services import CommunityServiceCatalog

        asys = AutonomousSystem(
            asn=10,
            propagation_policy=ForwardAllPolicy(),
            services=CommunityServiceCatalog.standard_transit_catalog(10),
        )
        router = Router(asys, {30: Relationship.CUSTOMER, 20: Relationship.CUSTOMER})
        deliver(
            router,
            Announcement(
                prefix=PREFIX,
                attributes=PathAttributes(
                    as_path=ASPath.of(30, 5), communities=CommunitySet.of("10:422")
                ),
                sender_asn=30,
                origin_asn=5,
            )
        )
        best = router.loc_rib.best(PREFIX)
        assert best.export_prepend == 2
        assert best.attributes.as_path.asns() == [30, 5]  # local path untouched
        exported = router.export_to(20, PREFIX).announcement
        assert exported.attributes.as_path.asns() == [10, 10, 10, 30, 5]


class TestSimulator:
    def test_propagation_reaches_everyone(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix)
        assert simulator.ases_with_route(prefix) == [1, 2, 3, 4, 5, 6]
        path_at_6 = simulator.observed_path(6, prefix)
        assert path_at_6[0] == 6
        assert path_at_6[-1] == 1

    def test_withdrawal_removes_routes(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix)
        simulator.withdraw(1, prefix)
        assert simulator.ases_with_route(prefix) == []

    def test_unknown_as_raises(self):
        simulator = BgpSimulator(build_figure2_topology())
        with pytest.raises(RoutingError):
            simulator.router(999)

    def test_blackhole_community_triggers_at_target(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        victim = Prefix.from_string("203.0.113.0/24")
        # The attacker (AS2) adds AS3's blackhole community on its re-announcement.
        attacker = simulator.router(2)
        for neighbor in attacker.neighbors():
            attacker.export_community_additions[neighbor] = CommunitySet.of(
                Community(3, 666), BLACKHOLE
            )
        simulator.announce(1, victim)
        assert 3 in simulator.ases_with_blackholed_route(victim)
        best_at_3 = simulator.best_route(3, victim)
        assert best_at_3.learned_from == 2  # the tagged, longer path won
        assert best_at_3.blackholed

    def test_more_specific_hijack_wins_in_fib(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        victim = Prefix.from_string("203.0.113.0/24")
        hijack = victim.subprefix(32, 1)
        simulator.announce(1, victim)
        simulator.announce(2, hijack, communities=CommunitySet.of("3:666"))
        best = DataPlane(simulator).fib(4).lookup(hijack.host(0), hijack.family)
        assert best is not None
        assert best.prefix == hijack

    def test_collector_peering_exports_full_table(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix)
        simulator.register_collector_peering(4, 65100)
        exports = simulator.router(4).export_all_to(65100, {}, simulator.router(4).export_memo_key(65100))
        assert any(a.prefix == prefix for a in exports)

    def test_strip_all_policy_limits_community_propagation(self):
        topology = build_figure2_topology()
        # AS4 strips every community it did not set itself.
        topology.get_as(4).propagation_policy = StripAllPolicy()
        simulator = BgpSimulator(topology)
        prefix = Prefix.from_string("198.51.100.0/24")
        simulator.announce(1, prefix, communities=CommunitySet.of("1:200"))
        at_2 = simulator.best_route(2, prefix)
        assert Community(1, 200) in at_2.attributes.communities
        at_3 = simulator.best_route(3, prefix)
        assert Community(1, 200) not in at_3.attributes.communities


class TestCollectorSessions:
    def test_collector_session_announcement_does_not_keyerror(self):
        # Registering a collector peering must create the matching
        # Adj-RIB-In: an announcement arriving over that session used to
        # raise KeyError at adj_rib_in[sender].
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        simulator.register_collector_peering(4, 65100)
        router = simulator.router(4)
        announcement = Announcement(
            prefix=Prefix.from_string("203.0.113.0/24"),
            attributes=PathAttributes(as_path=ASPath.of(65100)),
            sender_asn=65100,
            origin_asn=65100,
        )
        stored, _ = deliver(router, announcement)
        assert not stored.rejected
        assert 65100 in router.adj_rib_in

    def test_adj_rib_in_is_created_lazily_for_late_neighbors(self):
        # A neighbor relationship added directly (bypassing add_neighbor)
        # still gets its RIB on first announcement.
        router = two_as_router()
        router.neighbor_relationships[99] = Relationship.CUSTOMER
        announcement = Announcement(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(99)),
            sender_asn=99,
            origin_asn=99,
        )
        stored, _ = deliver(router, announcement)
        assert not stored.rejected
        assert 99 in router.adj_rib_in


    def test_blackhole_service_added_after_the_first_import_is_honoured(self):
        # The catalogue caches its blackhole list (asked on every import);
        # add() must invalidate it.
        from repro.policy.actions import BlackholeAction, PrependAction

        trigger = Community(10, 999)  # not a conventional :666 value
        catalog = CommunityServiceCatalog(
            10, [ServiceDefinition(Community(10, 421), PrependAction(count=1))]
        )
        router = Router(AutonomousSystem(asn=10, services=catalog), {30: Relationship.CUSTOMER})
        announcement = Announcement(
            prefix=Prefix.from_string("203.0.113.7/32"),
            attributes=PathAttributes(as_path=ASPath.of(30), communities=CommunitySet.of(trigger)),
            sender_asn=30,
            origin_asn=30,
        )
        assert catalog.blackhole_communities() == []
        assert deliver(router, announcement)[0].rejected  # a plain /32: too long
        catalog.add(ServiceDefinition(trigger, BlackholeAction(), customers_only=False))
        assert catalog.blackhole_communities() == [trigger]
        stored, _ = deliver(router, announcement)
        assert not stored.rejected and stored.blackholed
        # The returned list is the caller's to mutate.
        catalog.blackhole_communities().clear()
        assert catalog.blackhole_communities() == [trigger]


class TestHandRolledCopies:
    """Guard replace()/same_route() against field drift.

    ``same_route`` and ``PathAttributes.replace`` are written out field
    by field for propagation hot-path speed; these tests force every
    (current and future) field through them so a newly added field that
    the hand-rolled code misses fails loudly instead of being silently
    dropped.
    """

    def sample_entry(self) -> RouteEntry:
        attributes = PathAttributes(
            as_path=ASPath.of(4, 2),
            local_pref=140,
            communities=CommunitySet.of("2:50"),
        )
        return RouteEntry(
            prefix=PREFIX,
            attributes=attributes,
            learned_from=4,
            blackholed=True,
            rejected=True,
            rejection_reason="sample",
            export_prepend=2,
            suppress_to=frozenset({9}),
            announce_only_to=frozenset({8}),
        )

    @staticmethod
    def attribute_defaults() -> dict:
        import dataclasses

        return {
            field.name: field.default
            if field.default is not dataclasses.MISSING
            else field.default_factory()
            for field in dataclasses.fields(PathAttributes)
        }

    def test_every_field_is_non_default_in_sample(self):
        # The drift guards below discriminate via "sample value differs
        # from the field default"; a future field must be added to
        # sample_entry() with a non-default value to keep them sharp.
        entry = self.sample_entry()
        for name, default in RouteEntry._field_defaults.items():
            assert getattr(entry, name) != default, name
        for name, default in self.attribute_defaults().items():
            assert getattr(entry.attributes, name) != default, name

    def test_replace_roundtrip_preserves_every_field(self):
        entry = self.sample_entry()
        assert entry.replace() == entry
        assert entry.attributes.replace() == entry.attributes

    def test_replace_and_same_route_cover_every_field(self):
        entry = self.sample_entry()
        alternatives = {
            **RouteEntry._field_defaults,
            "prefix": Prefix.from_string("198.51.100.0/24"),
            "attributes": PathAttributes(as_path=ASPath.of(7)),
            "learned_from": 99,
        }
        assert set(alternatives) == set(RouteEntry._fields)
        for name in RouteEntry._fields:
            changed = entry.replace(**{name: alternatives[name]})
            assert changed != entry, name
            assert not entry.same_route(changed), name

        alternatives = {**self.attribute_defaults(), "as_path": ASPath.of(7)}
        for name, value in alternatives.items():
            assert entry.attributes.replace(**{name: value}) != entry.attributes, name

    def test_replace_rejects_an_unknown_field(self):
        entry = self.sample_entry()
        with pytest.raises(TypeError, match="no_such_field"):
            entry.replace(no_such_field=1)
        with pytest.raises(TypeError, match="no_such_field"):
            entry.attributes.replace(no_such_field=1)


class TestFlatRecords:
    """The tuple-backed records: what one batch allocates, shares and refuses to change."""

    def test_one_batch_plans_each_session_once(self, monkeypatch):
        from collections import Counter

        from repro.routing.engine import origination_events
        from repro.topology.generator import TopologyGenerator, TopologyParameters

        topology = TopologyGenerator(
            TopologyParameters(tier1_count=2, transit_count=8, stub_count=20, ixp_count=0, seed=5)
        ).generate()
        events = origination_events(topology)[:16]
        assert len(topology) == 30 and len(events) == 16
        memo_keys: Counter = Counter()
        original_key = Router.export_memo_key

        def counting_key(router, neighbor_asn):
            memo_keys[router.asn, neighbor_asn] += 1
            return original_key(router, neighbor_asn)

        monkeypatch.setattr(Router, "export_memo_key", counting_key)
        simulator = BgpSimulator(topology, shards=1)
        dataplane = DataPlane(simulator)
        report = simulator.apply(events)
        dataplane.rebuild(report)

        assert report.announcements_processed > len(memo_keys) > 0
        assert set(memo_keys.values()) == {1}, "a session's memo key is computed once per batch"
        stored = 0
        for asn, router in simulator.routers.items():
            for best in router.loc_rib:
                if best.learned_from != asn:
                    # The Loc-RIB keeps the Adj-RIB-In entry it selected, not a copy.
                    assert best is router.adj_rib_in[best.learned_from].get(best.prefix)
                    stored += 1
        assert stored > 0

        router = simulator.routers[events[0].origin_asn]
        best = router.loc_rib.best(events[0].prefix)
        announcement = next(a for _, a in router.export_fanout(events[0].prefix, {}) if a is not None)
        fib_entry = dataplane.fibs[router.asn].get(events[0].prefix)
        for record in (best, router.loc_rib.candidates(best.prefix)[0], announcement, fib_entry):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                record.note = "records take no new attributes either"

    def test_equal_announcements_are_equal_and_one_is_shared_per_signature(self):
        def build() -> Announcement:
            attributes = PathAttributes(as_path=ASPath.of(20, 5), communities=CommunitySet.of("20:1"))
            return Announcement(PREFIX, attributes, sender_asn=20, origin_asn=5)

        assert build() == build() and len({build(), build()}) == 1
        assert build()._fields == ("prefix", "attributes", "sender_asn", "origin_asn")
        assert build().replace(sender_asn=30) != build()
        with pytest.raises(TypeError):
            build().replace(announcement_id=1)
        router = Router(
            AutonomousSystem(asn=10, propagation_policy=ForwardAllPolicy()),
            {asn: Relationship.CUSTOMER for asn in (20, 30, 40)},
        )
        router.originate(PREFIX, communities=None, origin_asn=None)
        sent = [announcement for _, announcement in router.export_fanout(PREFIX, {})]
        assert sent[0] is sent[1] is sent[2] is not None


def suppress_topology() -> Topology:
    """AS1 (customer) — AS2 (offers 2:50 = suppress to AS3) — AS3 (customer)."""
    catalog = CommunityServiceCatalog(
        2,
        [
            ServiceDefinition(
                Community(2, 50),
                SuppressAction(neighbor_asns=frozenset({3})),
                "do not announce to AS3",
                customers_only=True,
            )
        ],
    )
    topology = Topology()
    topology.add_as(AutonomousSystem(asn=1, propagation_policy=ForwardAllPolicy()))
    topology.add_as(
        AutonomousSystem(asn=2, propagation_policy=ForwardAllPolicy(), services=catalog)
    )
    topology.add_as(AutonomousSystem(asn=3, propagation_policy=ForwardAllPolicy()))
    topology.add_customer_link(2, 1)
    topology.add_customer_link(2, 3)
    topology.get_as(1).add_prefix(PREFIX)
    return topology


class TestExportRestrictionChanges:
    def test_refresh_best_detects_export_only_changes(self):
        # Entries that differ only in export-side fields (suppress_to,
        # announce_only_to, export_prepend) must count as a best-route
        # change, or neighbors keep stale routes.
        router = two_as_router()
        base = RouteEntry(
            prefix=PREFIX,
            attributes=PathAttributes(as_path=ASPath.of(20, 5)),
            learned_from=20,
        )
        router.adj_rib_in[20].update(base)
        assert router._refresh_best(PREFIX)
        router.adj_rib_in[20].update(base.replace(suppress_to=frozenset({30})))
        assert router._refresh_best(PREFIX)
        # An identical re-announcement stays quiet (no spurious churn).
        router.adj_rib_in[20].update(base.replace(suppress_to=frozenset({30})))
        assert not router._refresh_best(PREFIX)
        router.adj_rib_in[20].update(base.replace(export_prepend=2))
        assert router._refresh_best(PREFIX)
        router.adj_rib_in[20].update(base.replace(announce_only_to=frozenset({30})))
        assert router._refresh_best(PREFIX)

    def test_suppress_community_toggles_downstream_route(self):
        # Re-announcements that flip an export restriction must propagate:
        # AS3 loses the route when 2:50 is attached and regains it when
        # the tag is removed.
        simulator = BgpSimulator(suppress_topology())
        simulator.announce(1, PREFIX)
        assert simulator.best_route(3, PREFIX) is not None

        report = simulator.announce(1, PREFIX, communities=CommunitySet.of("2:50"))
        assert simulator.best_route(3, PREFIX) is None
        assert 3 in report.dirty  # the withdrawal dirtied AS3's FIB state

        simulator.announce(1, PREFIX)
        assert simulator.best_route(3, PREFIX) is not None


class TestRouteServer:
    def make_announcement(self, member: int, prefix: Prefix, *communities: str) -> Announcement:
        return Announcement(
            prefix=prefix,
            attributes=PathAttributes(
                as_path=ASPath.of(member), communities=CommunitySet.of(*communities)
            ),
            sender_asn=member,
            origin_asn=member,
        )

    def test_default_redistribution_to_all(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        decision = server.receive(self.make_announcement(1, prefix))
        assert 4 in decision.redistributed_to
        assert server.member_has_route(4, prefix)
        assert not server.member_has_route(1, prefix)  # never back to the sender

    def test_selective_announce(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        announce_to_4 = str(ixp.route_server_config.announce_to(4))
        decision = server.receive(self.make_announcement(1, prefix, announce_to_4))
        assert decision.redistributed_to == frozenset({4})
        assert server.member_has_route(4, prefix)
        assert not server.member_has_route(2, prefix)

    def test_suppression_wins_over_announce(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        announce_to_4 = str(ixp.route_server_config.announce_to(4))
        suppress_to_4 = str(ixp.route_server_config.suppress_to(4))
        decision = server.receive(
            self.make_announcement(2, prefix, announce_to_4, suppress_to_4)
        )
        assert 4 not in decision.redistributed_to
        assert 4 in decision.suppressed_to

    def test_announce_wins_when_order_flipped(self):
        _topology, ixp = build_figure9_ixp()
        ixp.route_server_config.suppress_before_redistribute = False
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        announce_to_4 = str(ixp.route_server_config.announce_to(4))
        suppress_to_4 = str(ixp.route_server_config.suppress_to(4))
        decision = server.receive(
            self.make_announcement(2, prefix, announce_to_4, suppress_to_4)
        )
        assert 4 in decision.redistributed_to

    def test_control_communities_are_stripped_on_redistribution(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        announce_to_4 = str(ixp.route_server_config.announce_to(4))
        server.receive(self.make_announcement(1, prefix, announce_to_4, "1:100"))
        redistributed = server.routes_for_member(4)[prefix]
        assert Community(1, 100) in redistributed.attributes.communities
        assert ixp.route_server_config.announce_to(4) not in redistributed.attributes.communities

    def test_non_member_rejected(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        with pytest.raises(RoutingError):
            server.receive(self.make_announcement(999, Prefix.from_string("203.0.113.0/24")))

    def test_suppress_all(self):
        _topology, ixp = build_figure9_ixp()
        server = RouteServer(ixp)
        prefix = Prefix.from_string("203.0.113.0/24")
        suppress_all = str(ixp.route_server_config.suppress_to_all())
        decision = server.receive(self.make_announcement(1, prefix, suppress_all))
        assert decision.redistributed_to == frozenset()

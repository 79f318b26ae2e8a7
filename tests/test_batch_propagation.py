"""Batched propagation engine: apply/announce_many equivalence and semantics.

The contract under test: announcing K prefixes through one batched
``announce_many``/``apply`` pass yields Loc-RIBs, FIBs and a merged
``SimulationReport.dirty`` identical to K sequential ``announce()``
calls on a fresh simulator over the same topology.
"""

from __future__ import annotations

import pytest

from repro.attacks.scenario import build_figure2_topology, build_figure7_topology
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.exceptions import RoutingError
from repro.routing.engine import BgpSimulator, RoutingEvent, origination_events
from repro.topology.generator import TopologyGenerator, TopologyParameters


def generated_topology():
    parameters = TopologyParameters(
        tier1_count=3, transit_count=8, stub_count=20, ixp_count=0, seed=7
    )
    return TopologyGenerator(parameters).generate()


def run_batched(topology, events):
    simulator = BgpSimulator(topology)
    simulator.announce_many(events)
    return simulator


def run_sequential(topology, events):
    simulator = BgpSimulator(topology)
    for item in events:
        event = BgpSimulator._coerce(item)
        assert not event.withdraw
        simulator.announce(
            event.origin_asn,
            event.prefix,
            communities=event.communities,
            spoofed_origin_asn=event.spoofed_origin_asn,
        )
    return simulator


def assert_identical_state(batched: BgpSimulator, sequential: BgpSimulator):
    """Loc-RIBs, candidates, FIBs and merged dirty maps must match exactly."""
    assert batched.routers.keys() == sequential.routers.keys()
    for asn, router in batched.routers.items():
        other = sequential.routers[asn]
        assert sorted(router.loc_rib.prefixes()) == sorted(other.loc_rib.prefixes())
        for prefix in router.loc_rib.prefixes():
            assert router.loc_rib.best(prefix) == other.loc_rib.best(prefix)
            assert sorted(router.loc_rib.candidates(prefix), key=str) == sorted(
                other.loc_rib.candidates(prefix), key=str
            )
    assert batched.report.dirty == sequential.report.dirty
    batched_plane = DataPlane(batched)
    sequential_plane = DataPlane(sequential)
    for asn in batched.routers:
        ours = {entry.prefix: entry for entry in batched_plane.fib(asn).entries()}
        theirs = {entry.prefix: entry for entry in sequential_plane.fib(asn).entries()}
        assert ours == theirs


class TestBatchedEquivalence:
    def test_many_prefixes_match_sequential_announces(self):
        topology = generated_topology()
        ases = sorted(asys.asn for asys in topology)
        base = int(Prefix.from_string("10.0.0.0/8").network)
        events = []
        for index in range(40):
            prefix = Prefix.ipv4(base + (index << 8), 24)
            communities = (
                CommunitySet.of(Community(ases[index % len(ases)] % 0xFFFF, index))
                if index % 3 == 0
                else None
            )
            events.append((ases[index % len(ases)], prefix, communities))
        assert_identical_state(
            run_batched(topology, events), run_sequential(topology, events)
        )

    def test_rtbh_and_steering_mixed_scenario(self):
        # RTBH hijack (more-specific /32 tagged with the target's blackhole
        # community) batched together with the victim announcement and the
        # attacker's own prefix.
        victim = Prefix.from_string("203.0.113.0/24")
        hijack = victim.subprefix(32, 1)
        rtbh_events = [
            (1, victim),
            RoutingEvent(2, hijack, communities=CommunitySet.of(Community(3, 666), BLACKHOLE)),
            (2, Prefix.from_string("192.0.2.0/24")),
        ]
        batched = run_batched(build_figure7_topology(), rtbh_events)
        sequential = run_sequential(build_figure7_topology(), rtbh_events)
        assert_identical_state(batched, sequential)
        assert 3 in batched.ases_with_blackholed_route(hijack)

        # Steering: the same prefix announced by victim and attacker, the
        # attacker tagging the community target's largest prepend service.
        steering_prefix = Prefix.from_string("198.51.100.0/24")
        steering_events = [
            (1, steering_prefix),
            RoutingEvent(2, steering_prefix, communities=CommunitySet.of(Community(3, 33))),
        ]
        assert_identical_state(
            run_batched(build_figure2_topology(), steering_events),
            run_sequential(build_figure2_topology(), steering_events),
        )

    def test_withdraw_many_matches_sequential_withdraws(self):
        topology = generated_topology()
        ases = sorted(asys.asn for asys in topology)
        base = int(Prefix.from_string("10.0.0.0/8").network)
        events = [
            (ases[index % len(ases)], Prefix.ipv4(base + (index << 8), 24))
            for index in range(20)
        ]
        withdrawals = [(asn, prefix) for asn, prefix in events[::2]]

        batched = run_batched(topology, events)
        batched.withdraw_many(withdrawals)
        sequential = run_sequential(topology, events)
        for asn, prefix in withdrawals:
            sequential.withdraw(asn, prefix)

        assert_identical_state(batched, sequential)
        for _asn, prefix in withdrawals:
            assert batched.ases_with_route(prefix) == []
        for asn, prefix in events[1::2]:
            assert asn in batched.ases_with_route(prefix)

    def test_apply_mixes_announcements_and_withdrawals(self):
        topology = build_figure7_topology()
        victim = Prefix.from_string("203.0.113.0/24")
        own = Prefix.from_string("192.0.2.0/24")
        simulator = BgpSimulator(topology)
        simulator.announce(1, victim)
        report = simulator.apply(
            [
                RoutingEvent.withdrawal(1, victim),
                RoutingEvent(2, own),
            ]
        )
        assert simulator.ases_with_route(victim) == []
        assert simulator.ases_with_route(own) == [1, 2, 3, 4]
        assert victim in report.prefixes and own in report.prefixes

    def test_announce_then_withdraw_in_one_batch_cancels_out(self):
        topology = build_figure7_topology()
        prefix = Prefix.from_string("203.0.113.0/24")
        simulator = BgpSimulator(topology)
        simulator.apply(
            [RoutingEvent(1, prefix), RoutingEvent.withdrawal(1, prefix)]
        )
        assert simulator.ases_with_route(prefix) == []


class TestBatchApi:
    def test_announce_originated_seeds_owned_prefixes(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        report = simulator.announce_originated()
        assert report.prefixes == set(topology.originated_prefixes())
        assert simulator.ases_with_route(Prefix.from_string("203.0.113.0/24")) == [1, 2, 3, 4]
        assert simulator.ases_with_route(Prefix.from_string("192.0.2.0/24")) == [1, 2, 3, 4]

    def test_origination_events_cover_topology(self):
        topology = build_figure7_topology()
        events = origination_events(topology)
        assert {(e.origin_asn, e.prefix) for e in events} == {
            (asn, prefix) for prefix, asn in topology.originated_prefixes().items()
        }
        simulator = BgpSimulator(topology)
        simulator.apply(events)
        assert simulator.best_route(4, Prefix.from_string("203.0.113.0/24")) is not None

    def test_bad_event_spec_raises(self):
        simulator = BgpSimulator(build_figure7_topology())
        with pytest.raises(RoutingError):
            simulator.announce_many(["203.0.113.0/24"])

    def test_invalid_batch_leaves_simulator_untouched(self):
        # apply() validates the whole batch before applying anything, so
        # a malformed item or unknown origin mid-batch cannot leave
        # earlier events half-applied and unreported.
        simulator = BgpSimulator(build_figure7_topology())
        victim = Prefix.from_string("203.0.113.0/24")
        with pytest.raises(RoutingError):
            simulator.announce_many([(1, victim), "junk"])
        with pytest.raises(RoutingError):
            simulator.announce_many([(1, victim), (999, victim)])
        assert simulator.ases_with_route(victim) == []
        assert victim not in simulator.router(1).originated
        assert simulator.report.prefixes == set()

    def test_report_merges_into_simulator_report(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        report = simulator.announce_many(
            [(1, Prefix.from_string("203.0.113.0/24")), (2, Prefix.from_string("192.0.2.0/24"))]
        )
        assert simulator.report.prefixes == report.prefixes

    def test_incremental_fib_patch_from_batch_report(self):
        topology = generated_topology()
        ases = sorted(asys.asn for asys in topology)
        base = int(Prefix.from_string("10.0.0.0/8").network)
        first = [(ases[i % len(ases)], Prefix.ipv4(base + (i << 8), 24)) for i in range(10)]
        second = [
            (ases[i % len(ases)], Prefix.ipv4(base + ((i + 10) << 8), 24)) for i in range(10)
        ]
        simulator = BgpSimulator(topology)
        simulator.announce_many(first)
        dataplane = DataPlane(simulator)
        report = simulator.announce_many(second)
        dataplane.rebuild(report)
        rebuilt = DataPlane(simulator)
        for asn in simulator.routers:
            patched = {entry.prefix: entry for entry in dataplane.fib(asn).entries()}
            fresh = {entry.prefix: entry for entry in rebuilt.fib(asn).entries()}
            assert patched == fresh


class TestImportContract:
    """Every import runs the whole pipeline: no shape-keyed shortcut across a batch."""

    @staticmethod
    def _counting_chains(simulator, counters):
        """Wrap every router's inbound filter chain with a call counter."""
        from repro.policy.filters import InboundFilterChain

        class CountingChain(InboundFilterChain):
            def __init__(self, inner, key):
                super().__init__(
                    prefix_filter=inner.prefix_filter,
                    irr=inner.irr,
                    validate_origin=inner.validate_origin,
                    blackhole_before_validation=inner.blackhole_before_validation,
                )
                self._key = key

            def evaluate(self, prefix, origin_asn, is_blackhole):
                counters[self._key] = counters.get(self._key, 0) + 1
                return super().evaluate(prefix, origin_asn, is_blackhole)

        for asn, router in simulator.routers.items():
            router.inbound_filters = CountingChain(router.inbound_filters, asn)

    def test_batch_evaluates_filter_chain_once_per_import(self, monkeypatch):
        from collections import Counter

        from repro.routing.router import Router

        # Imports that got past loop prevention, per router object (each
        # simulator builds its own): the ones a chain must see.
        imports: Counter = Counter()
        original = Router.import_announcement

        def counting_import(router, announcement):
            entry, triggered = original(router, announcement)
            if entry.rejection_reason != "as-path loop":
                imports[router] += 1
            return entry, triggered

        def imports_of(simulator):
            return {r.asn: imports[r] for r in simulator.routers.values() if r in imports}

        monkeypatch.setattr(Router, "import_announcement", counting_import)
        topology = generated_topology()
        ases = sorted(asys.asn for asys in topology)
        origin = ases[0]
        base = int(Prefix.from_string("10.0.0.0/8").network)
        events = [
            (origin, Prefix.ipv4(base + (index << 8), 24)) for index in range(12)
        ]

        batched = BgpSimulator(topology, shards=1)
        batched_counts: dict[int, int] = {}
        self._counting_chains(batched, batched_counts)
        batched.announce_many(events)

        sequential = BgpSimulator(topology, shards=1)
        sequential_counts: dict[int, int] = {}
        self._counting_chains(sequential, sequential_counts)
        for origin_asn, prefix in events:
            sequential.announce(origin_asn, prefix)

        # Same converged state either way.
        assert_identical_state(batched, sequential)
        # All 12 prefixes share attributes, and still every router runs
        # its chain exactly once per import: the batch neither skips an
        # evaluation the sequential loop makes nor adds one.
        assert batched_counts, "announcements must have crossed filter chains"
        assert batched_counts == imports_of(batched)
        assert sequential_counts == imports_of(sequential) == batched_counts

    def test_same_shape_prefixes_are_each_validated(self):
        """An IRR-validating router judges each prefix, not its (family, length, origin) shape."""
        from repro.policy.filters import InboundFilterChain, IrrDatabase

        topology = build_figure7_topology()
        simulator = BgpSimulator(topology, shards=1)
        # AS3 validates origins: 203.0.113.0/24 is registered to AS1, the
        # equally-shaped 198.51.100.0/24 is registered to somebody else.
        irr = IrrDatabase()
        irr.register(Prefix.from_string("203.0.113.0/24"), 1)
        irr.register(Prefix.from_string("198.51.100.0/24"), 9)
        simulator.router(3).inbound_filters = InboundFilterChain(
            irr=irr, validate_origin=True
        )
        report = simulator.announce_many(
            [(1, Prefix.from_string("203.0.113.0/24")), (1, Prefix.from_string("198.51.100.0/24"))]
        )
        assert report.prefixes
        # The registered prefix is accepted at AS3; the mis-registered,
        # same-shape prefix is rejected — an outcome shared by shape would
        # have wrongly accepted it.
        assert simulator.best_route(3, Prefix.from_string("203.0.113.0/24")) is not None
        best = simulator.best_route(3, Prefix.from_string("198.51.100.0/24"))
        assert best is None or best.learned_from != 1

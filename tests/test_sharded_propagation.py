"""Sharded multi-process propagation: equivalence, edge cases, picklability.

The contract under test: driving a batch through K prefix shards in
worker processes yields Loc-RIBs, FIBs and merged ``dirty`` maps
byte-identical to the in-process core, for any K, independent of worker
scheduling — including across repeated ``apply`` calls on the same
simulator (state must round-trip through the workers correctly).
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.collectors.platform import CollectorDeployment
from repro.exceptions import RoutingError
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.shard import (
    capture_prefix_state,
    partition_events,
    stable_asn_shard,
    stable_shard,
)
from repro.routing.stream import SimulatorService
from repro.topology.generator import TopologyGenerator, TopologyParameters

PREFIX_COUNT = 1_000


def small_topology():
    parameters = TopologyParameters(
        tier1_count=3, transit_count=8, stub_count=20, ixp_count=0, seed=7
    )
    return TopologyGenerator(parameters).generate()


def make_events(topology, count=PREFIX_COUNT):
    ases = sorted(asys.asn for asys in topology)
    base = Prefix.from_string("10.0.0.0/8").network
    return [
        RoutingEvent(origin_asn=ases[index % len(ases)], prefix=Prefix.ipv4(base + (index << 8), 24))
        for index in range(count)
    ]


def assert_identical_state(reference: BgpSimulator, other: BgpSimulator):
    """Loc-RIBs, candidates and cumulative reports must match exactly."""
    assert reference.routers.keys() == other.routers.keys()
    for asn, router in reference.routers.items():
        twin = other.routers[asn]
        assert sorted(router.loc_rib.prefixes()) == sorted(twin.loc_rib.prefixes())
        for prefix in router.loc_rib.prefixes():
            assert router.loc_rib.best(prefix) == twin.loc_rib.best(prefix)
            assert sorted(router.loc_rib.candidates(prefix), key=str) == sorted(
                twin.loc_rib.candidates(prefix), key=str
            )
        assert router.originated == twin.originated
    assert reference.report.prefixes == other.report.prefixes
    assert reference.report.dirty == other.report.dirty
    assert (
        reference.report.announcements_processed == other.report.announcements_processed
    )
    assert reference.report.rounds == other.report.rounds


def assert_identical_fibs(reference: DataPlane, other: DataPlane):
    assert reference.fibs.keys() == other.fibs.keys()
    for asn in reference.fibs:
        ours = {entry.prefix: entry for entry in reference.fib(asn).entries()}
        theirs = {entry.prefix: entry for entry in other.fib(asn).entries()}
        assert ours == theirs


class TestShardedEquivalence:
    def test_sharded_matches_sequential_across_shard_counts(self):
        """1k prefixes: shards 1, 2 and 4 all converge to the sequential state."""
        topology = small_topology()
        events = make_events(topology)

        sequential = BgpSimulator(topology, shards=1)
        sequential_plane = DataPlane(sequential)
        sequential_plane.rebuild(sequential.apply(events))

        for shard_count in (1, 2, 4):
            sharded = BgpSimulator(topology, shards=shard_count)
            try:
                plane = DataPlane(sharded)
                plane.rebuild(sharded.apply(events))
                assert_identical_state(sequential, sharded)
                assert_identical_fibs(sequential_plane, plane)
            finally:
                sharded.close()

    def test_repeated_applies_round_trip_worker_state(self):
        """Announce, re-announce tagged, withdraw: shard state survives reuse."""
        topology = small_topology()
        events = make_events(topology, count=200)
        tagged = [
            RoutingEvent(
                origin_asn=event.origin_asn,
                prefix=event.prefix,
                communities=CommunitySet.of(BLACKHOLE),
            )
            for event in events[:100]
        ]
        withdrawals = [
            RoutingEvent.withdrawal(event.origin_asn, event.prefix)
            for event in events[50:150]
        ]

        def drive(simulator):
            plane = DataPlane(simulator)
            plane.rebuild(simulator.apply(events))
            plane.rebuild(simulator.apply(tagged))
            plane.rebuild(simulator.apply(withdrawals))
            return plane

        sequential = BgpSimulator(topology, shards=1)
        sequential_plane = drive(sequential)
        sharded = BgpSimulator(topology, shards=4)
        try:
            sharded_plane = drive(sharded)
            assert_identical_state(sequential, sharded)
            assert_identical_fibs(sequential_plane, sharded_plane)
        finally:
            sharded.close()

    def test_fork_once_pool_is_reused_across_applies(self):
        topology = small_topology()
        events = make_events(topology, count=60)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events[:30])
            pool = simulator._shard_pool
            assert pool is not None
            simulator.apply(events[30:])
            assert simulator._shard_pool is pool
        finally:
            simulator.close()

    def test_spoofed_origin_and_mixed_batch_equivalence(self):
        """Withdraw/announce mixes with spoofed origins shard identically."""
        topology = small_topology()
        ases = sorted(asys.asn for asys in topology)
        base = Prefix.from_string("172.16.0.0/12").network
        events = []
        for index in range(80):
            prefix = Prefix.ipv4(base + (index << 8), 24)
            events.append(
                RoutingEvent(
                    origin_asn=ases[index % len(ases)],
                    prefix=prefix,
                    spoofed_origin_asn=0 if index % 7 == 0 else None,
                )
            )
        sequential = BgpSimulator(topology, shards=1)
        sequential.apply(events)
        sharded = BgpSimulator(topology, shards=3)
        try:
            sharded.apply(events)
            assert_identical_state(sequential, sharded)
        finally:
            sharded.close()


class TestSchedulerEdgeCases:
    def test_shards_one_is_sequential_byte_for_byte(self):
        """``shards=1`` never touches a pool and leaves identical state."""
        topology = small_topology()
        events = make_events(topology, count=120)
        plain = BgpSimulator(topology)
        plain.apply(events, shards=1)
        pinned = BgpSimulator(topology, shards=1)
        pinned.apply(events)
        assert pinned._shard_pool is None and plain._shard_pool is None
        assert_identical_state(plain, pinned)
        # Byte-for-byte: the pickled per-prefix state of every router is equal.
        prefixes = sorted({event.prefix for event in events})
        assert pickle.dumps(capture_prefix_state(plain, prefixes)) == pickle.dumps(
            capture_prefix_state(pinned, prefixes)
        )

    def test_more_shards_than_prefixes_spawns_no_idle_workers(self):
        topology = small_topology()
        events = make_events(topology, count=3)
        assert len(partition_events(events, 16)) <= 3
        simulator = BgpSimulator(topology, shards=16)
        try:
            simulator.apply(events)
            assert simulator._shard_pool is not None
            assert simulator._shard_pool.workers <= 3
        finally:
            simulator.close()
        # And a single-prefix batch never leaves the in-process core at all.
        single = BgpSimulator(topology, shards=16)
        single.announce(events[0].origin_asn, events[0].prefix)
        assert single._shard_pool is None

    @pytest.mark.parametrize("value", [2.9, "3", 0, -4, True, "auto", None])
    def test_bad_shards_value_is_rejected_where_it_enters(self, value):
        """``int()`` used to run 2.9 as 2 and "3" as 3, and 0 / -4 / True in-process."""
        topology = small_topology()
        events = make_events(topology, count=4)
        message = re.escape(f"shards must be a positive integer, got {value!r}")
        with pytest.raises(RoutingError, match=message):
            BgpSimulator(topology, shards=value)
        if value is None:
            return  # None is the "inherit" value of the three entry points below
        simulator = BgpSimulator(topology)
        with pytest.raises(RoutingError, match=message):
            simulator.apply(events, shards=value)
        with pytest.raises(RoutingError, match=message):
            SimulatorService(simulator, window=4, shards=value)
        deployment = CollectorDeployment.default_deployment(topology, seed=7)
        with pytest.raises(RoutingError, match=message):
            deployment.collect_from_simulator(simulator, shards=value)
        # Rejected up front: nothing converged, no pool was built.
        assert simulator.report.prefixes == set() and simulator._shard_pool is None

    def test_none_inherits_the_simulator_shard_count(self):
        topology = small_topology()
        events = make_events(topology, count=40)
        deployment = CollectorDeployment.default_deployment(topology, seed=7)
        sequential = BgpSimulator(topology)
        sequential.apply(events)
        simulator = BgpSimulator(topology, shards=2)
        try:
            with SimulatorService(simulator, window=len(events), shards=None) as service:
                service.feed(events)
            pool = simulator._shard_pool
            assert pool is not None and pool.shards == 2
            assert_identical_state(sequential, simulator)
            dispatched = pool.tasks_dispatched
            harvested = deployment.collect_from_simulator(simulator, shards=None)
            assert simulator._shard_pool is pool and pool.tasks_dispatched > dispatched
            serial = deployment.collect_from_simulator(sequential)
            assert sorted(harvested, key=repr) == sorted(serial, key=repr)
        finally:
            simulator.close()

    def test_stable_shard_is_deterministic_and_in_range(self):
        prefixes = [Prefix.ipv4((10 << 24) + (i << 8), 24) for i in range(500)]
        prefixes.append(Prefix.from_string("2001:db8::/32"))
        for shard_count in (2, 3, 4, 7):
            indices = [stable_shard(prefix, shard_count) for prefix in prefixes]
            assert all(0 <= index < shard_count for index in indices)
            # Re-parsed prefixes (fresh objects) land on the same shard.
            again = [
                stable_shard(Prefix.from_string(str(prefix)), shard_count)
                for prefix in prefixes
            ]
            assert indices == again
            # The hash actually spreads: every shard gets something.
            assert len(set(indices)) == shard_count


    @pytest.mark.parametrize(
        "text, placements",
        [
            ("10.0.0.0/8", [0, 0, 2, 1]),
            ("192.0.2.0/24", [0, 0, 0, 2]),
            ("198.51.100.0/24", [1, 2, 1, 3]),
            ("203.0.113.128/25", [0, 1, 0, 2]),
            ("2001:db8::/32", [0, 2, 0, 2]),
            ("2001:db8:1::/48", [0, 0, 0, 5]),
        ],
    )
    def test_prefix_placement_is_pinned(self, text, placements):
        """Placement is a function of the prefix value alone, in every process."""
        prefix = Prefix.from_string(text)
        assert [stable_shard(prefix, count) for count in (2, 3, 4, 7)] == placements

    @pytest.mark.parametrize(
        "asn, placements",
        [
            (1, [0, 2, 2, 3]),
            (3356, [1, 1, 1, 3]),
            (13335, [1, 2, 3, 4]),
            (4200000000, [1, 1, 3, 2]),
        ],
    )
    def test_asn_placement_is_pinned(self, asn, placements):
        assert [stable_asn_shard(asn, count) for count in (2, 3, 4, 7)] == placements


class TestPicklability:
    """Everything that crosses the worker boundary must pickle, forever."""

    def test_topology_round_trips(self):
        topology = small_topology()
        clone = pickle.loads(pickle.dumps(topology, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.asns() == topology.asns()
        assert clone.edge_count() == topology.edge_count()
        assert clone.originated_prefixes() == topology.originated_prefixes()
        for asn in topology.asns():
            assert clone.relationship(asn, asn) == topology.relationship(asn, asn)

    def test_routing_event_round_trips(self):
        event = RoutingEvent(
            origin_asn=65000,
            prefix=Prefix.from_string("192.0.2.0/24"),
            communities=CommunitySet.of(BLACKHOLE),
            spoofed_origin_asn=0,
        )
        clone = pickle.loads(pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == event
        assert hash(clone.prefix) == hash(event.prefix)

    def test_simulation_report_round_trips(self):
        topology = small_topology()
        simulator = BgpSimulator(topology, shards=1)
        report = simulator.announce_originated()
        clone = pickle.loads(pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.prefixes == report.prefixes
        assert clone.dirty == report.dirty
        assert clone.announcements_processed == report.announcements_processed
        assert clone.rounds == report.rounds

    def test_captured_prefix_state_round_trips(self):
        topology = small_topology()
        simulator = BgpSimulator(topology, shards=1)
        simulator.announce_originated()
        prefixes = sorted(simulator.report.prefixes)[:10]
        states = capture_prefix_state(simulator, prefixes)
        assert states, "seeded topology should hold state for its prefixes"
        clone = pickle.loads(pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(clone) == len(states)
        for (prefix, asn, originated, adjacent), other in zip(states, clone):
            assert (prefix, asn) == (other[0], other[1])
            assert originated == other[2]
            assert adjacent == other[3]


class TestShardedErrors:
    def test_unknown_origin_leaves_simulation_untouched(self):
        topology = small_topology()
        simulator = BgpSimulator(topology, shards=2)
        events = make_events(topology, count=8)
        bad = events + [RoutingEvent(origin_asn=999_999, prefix=events[0].prefix)]
        with pytest.raises(RoutingError):
            simulator.apply(bad)
        assert simulator.report.prefixes == set()
        assert all(len(r.loc_rib) == 0 for r in simulator.routers.values())
        simulator.close()


class TestWorkerConfigMirroring:
    def test_hand_applied_router_config_reaches_shard_workers(self):
        """Post-construction router reconfiguration must shard identically.

        Regression test: shard workers rebuild routers from the topology
        snapshot, so a hand-swapped inbound filter chain (here: a strict
        IRR validator) must be shipped with the pool payload — otherwise
        the worker accepts routes the parent would reject.
        """
        from repro.policy.filters import InboundFilterChain, IrrDatabase

        topology = small_topology()
        events = make_events(topology, count=40)
        transit = next(a.asn for a in topology.transit_ases())
        victim_origin = events[0].origin_asn

        def harden(simulator):
            irr = IrrDatabase()
            # Register every prefix to a bogus origin: the hardened
            # router must reject all of them.
            for event in events:
                irr.register(event.prefix, 999_999)
            simulator.router(transit).inbound_filters = InboundFilterChain(
                irr=irr, validate_origin=True
            )

        sequential = BgpSimulator(topology, shards=1)
        harden(sequential)
        sequential.apply(events)

        sharded = BgpSimulator(topology, shards=3)
        try:
            harden(sharded)
            sharded.apply(events)
            assert_identical_state(sequential, sharded)
        finally:
            sharded.close()
        # The hardened router really did reject: no best route there,
        # while some un-hardened AS still holds one.
        assert all(
            sequential.best_route(transit, e.prefix) is None
            or sequential.best_route(transit, e.prefix).learned_from == transit
            for e in events
        )
        assert any(sequential.ases_with_route(e.prefix) for e in events)
        assert victim_origin in sequential.ases_with_route(events[0].prefix)

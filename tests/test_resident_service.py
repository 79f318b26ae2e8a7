"""Resident shard service: stateful workers, delta shipping, epochs, lifecycle.

The contract under test (the acceptance bar of the resident refactor):
multi-round event streams — announce, re-announce, withdraw — driven
through the resident worker pool are **byte-identical** to the
sequential engine at every shard count, including router-config edits
mid-stream (epoch invalidation) and harvests interleaved on the same
pool; and after the first dispatch only deltas cross the process
boundary.  Each simulator owns one pool: ``close()`` shuts it down and
the next sharded batch builds a fresh one.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.residency import PROVIDER
from repro.routing.shard import ShardPool, _apply_router_config, capture_router_config
from repro.topology.generator import TopologyGenerator, TopologyParameters


def small_topology():
    parameters = TopologyParameters(
        tier1_count=3, transit_count=8, stub_count=20, ixp_count=0, seed=7
    )
    return TopologyGenerator(parameters).generate()


def make_events(topology, count=120):
    ases = sorted(asys.asn for asys in topology)
    base = Prefix.from_string("10.0.0.0/8").network
    return [
        RoutingEvent(origin_asn=ases[index % len(ases)], prefix=Prefix.ipv4(base + (index << 8), 24))
        for index in range(count)
    ]


def assert_identical_state(reference: BgpSimulator, other: BgpSimulator):
    """Loc-RIBs, Adj-RIBs-In, originations and cumulative reports match exactly."""
    assert reference.routers.keys() == other.routers.keys()
    probe_prefixes = set(reference.report.prefixes) | set(other.report.prefixes)
    for asn, router in reference.routers.items():
        twin = other.routers[asn]
        assert sorted(router.loc_rib.prefixes()) == sorted(twin.loc_rib.prefixes())
        for prefix in router.loc_rib.prefixes():
            assert router.loc_rib.best(prefix) == twin.loc_rib.best(prefix)
            assert sorted(router.loc_rib.candidates(prefix), key=str) == sorted(
                twin.loc_rib.candidates(prefix), key=str
            )
        assert router.originated == twin.originated
        for neighbor in sorted(router.adj_rib_in):
            mine = router.adj_rib_in[neighbor]
            theirs = twin.adj_rib_in.get(neighbor)
            for prefix in probe_prefixes:
                assert mine.get(prefix) == (
                    theirs.get(prefix) if theirs is not None else None
                ), (asn, neighbor, prefix)
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


def harvest_rows(archive):
    return [
        (o.platform, o.collector_id, o.peer_asn, o.prefix, o.as_path, o.communities)
        for o in archive
    ]


def harden_transit(simulator, events, transit):
    """Swap in a strict IRR filter chain on one transit mid-stream."""
    from repro.policy.filters import InboundFilterChain, IrrDatabase

    irr = IrrDatabase()
    for event in events:
        irr.register(event.prefix, 999_999)
    simulator.router(transit).inbound_filters = InboundFilterChain(
        irr=irr, validate_origin=True
    )


class TestResidentEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_multi_round_stream_with_config_edit_and_harvest(self, shard_count):
        """>=3 event rounds + a config edit + interleaved harvests: byte-identical.

        This is the acceptance scenario of the resident refactor: the
        same pool carries announce / re-announce / withdraw rounds, a
        sequential (in-process) apply in between, a router-config swap
        that must invalidate all resident worker state, and harvests
        that read the resident Loc-RIBs — and every byte (Loc-RIBs,
        Adj-RIBs-In, FIBs, dirty sets, report counters) matches a
        sequential twin.
        """
        from repro.collectors.platform import CollectorDeployment

        topology = small_topology()
        events = make_events(topology)
        transit = next(a.asn for a in topology.transit_ases())
        deployment = CollectorDeployment.default_deployment(topology, seed=7)
        reannounce = [
            RoutingEvent(
                origin_asn=event.origin_asn,
                prefix=event.prefix,
                communities=CommunitySet.of(BLACKHOLE),
            )
            for event in events[:60]
        ]
        withdrawals = [
            RoutingEvent.withdrawal(event.origin_asn, event.prefix)
            for event in events[30:90]
        ]

        def drive(simulator, shards):
            plane = DataPlane(simulator)
            plane.rebuild(simulator.apply(events))  # round 1: announce
            # Harvest interleaved on the same (resident) pool.
            mid = deployment.collect_from_simulator(simulator, shards=shards)
            # A small in-process batch: its mutations must re-ship.
            plane.rebuild(simulator.apply(events[:10], shards=1))
            harden_transit(simulator, events, transit)  # epoch invalidation
            plane.rebuild(simulator.apply(reannounce))  # round 2: re-announce
            plane.rebuild(simulator.apply(withdrawals))  # round 3: withdraw
            end = deployment.collect_from_simulator(simulator, shards=shards)
            return plane, mid, end

        sequential = BgpSimulator(topology, shards=1)
        sequential_plane, sequential_mid, sequential_end = drive(sequential, 1)

        sharded = BgpSimulator(topology, shards=shard_count)
        try:
            sharded_plane, mid, end = drive(sharded, shard_count)
            assert_identical_state(sequential, sharded)
            assert_identical_fibs(sequential_plane, sharded_plane)
            # A sharded harvest is byte-identical to a serial harvest of
            # the *same* simulator (same state, same export order)...
            assert harvest_rows(end) == harvest_rows(
                deployment.collect_from_simulator(sharded, shards=1)
            )
            # ...and across engines the row multisets match at every
            # interleave point (insertion order differs, content cannot).
            assert sorted(map(str, harvest_rows(mid))) == sorted(
                map(str, harvest_rows(sequential_mid))
            )
            assert sorted(map(str, harvest_rows(end))) == sorted(
                map(str, harvest_rows(sequential_end))
            )
        finally:
            sharded.close()

    def test_config_edit_bumps_epoch_and_reships_state(self):
        topology = small_topology()
        events = make_events(topology, count=40)
        transit = next(a.asn for a in topology.transit_ases())
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events)
            pool = simulator._shard_pool
            assert pool.epoch == 0
            # Steady state: nothing pending, so a sharded round ships no
            # per-prefix state at all — events only.
            shipped_before = pool.shipped_state_entries
            simulator.apply(events[:20])
            assert pool.shipped_state_entries == shipped_before
            harden_transit(simulator, events, transit)
            simulator.apply(events[:20])
            assert pool.epoch == 1
            # The epoch bump re-armed the pending backlog: the batch's
            # prefixes re-shipped their full holder state.
            assert pool.shipped_state_entries > shipped_before
        finally:
            simulator.close()

    def test_config_edit_mid_lease_is_honoured(self):
        """A router-config swap between two batches on one pool bumps the epoch."""
        topology = small_topology()
        events = make_events(topology, count=40)
        transit = next(a.asn for a in topology.transit_ases())

        reference = BgpSimulator(topology, shards=1)
        reference.apply(events[:20])
        harden_transit(reference, events, transit)
        reference.apply(events[20:])

        builds = PROVIDER.stats["builds"]
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events[:20])
            harden_transit(simulator, events, transit)
            simulator.apply(events[20:])
            assert PROVIDER.stats["builds"] == builds + 1
            assert simulator._shard_pool.epoch == 1
            assert_identical_state(reference, simulator)
        finally:
            simulator.close()

    def test_sequential_interleave_ships_only_touched_pairs(self):
        topology = small_topology()
        events = make_events(topology, count=40)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events)
            pool = simulator._shard_pool
            # In-process batch while the pool is live: its touched pairs
            # become the pending backlog...
            simulator.apply(events[:5], shards=1)
            touched = sum(len(asns) for asns in simulator._pending_sync.values())
            assert touched > 0
            baseline = pool.shipped_state_entries
            # ...and the next sharded round ships exactly that backlog.
            simulator.apply(events)
            assert pool.shipped_state_entries == baseline + touched
            assert not simulator._pending_sync
        finally:
            simulator.close()

    def test_failed_dispatch_invalidates_residency_not_parent(self):
        topology = small_topology()
        events = make_events(topology, count=40)
        sequential = BgpSimulator(topology, shards=1)
        sequential.apply(events)
        sequential.apply(events)  # twin of the post-failure recovery round

        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events)
            pool = simulator._shard_pool
            epoch_before = pool.epoch
            # An unpicklable event makes the dispatch fail after pending
            # pairs were popped: residency must be invalidated...
            bad = RoutingEvent(
                origin_asn=events[0].origin_asn,
                prefix=events[0].prefix,
                communities=lambda: None,  # type: ignore[arg-type]
            )
            with pytest.raises(Exception):
                simulator.apply([bad] + events[:20])
            assert pool.epoch > epoch_before
            # ...while the parent state is still exactly the converged
            # round-1 state, and the next sharded round still works.
            simulator.apply(events)
            assert_identical_state(sequential, simulator)
        finally:
            simulator.close()

    def test_corrupt_delta_blob_aborts_the_whole_merge(self, monkeypatch):
        """A delta that fails to decode installs no shard's delta at all."""
        from repro.exceptions import WireError
        from repro.routing import wire

        def control_plane(simulator):
            return {
                asn: (
                    {prefix: router.loc_rib.best(prefix) for prefix in router.loc_rib.prefixes()},
                    {
                        neighbor: {prefix: rib.get(prefix) for prefix in rib.prefixes()}
                        for neighbor, rib in router.adj_rib_in.items()
                    },
                )
                for asn, router in simulator.routers.items()
            }

        def fibs(simulator):
            return {
                asn: {entry.prefix: entry for entry in fib.entries()}
                for asn, fib in DataPlane(simulator).fibs.items()
            }

        topology = small_topology()
        events = make_events(topology)
        first, second = events[:60], events[60:]
        sequential = BgpSimulator(topology, shards=1)
        sequential.apply(first)
        sequential.apply(second)  # twin of the retry

        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(first)  # workers fork before the patch below
            pool = simulator._shard_pool
            epoch_before = pool.epoch
            state_before, fibs_before = control_plane(simulator), fibs(simulator)
            decode_states = wire.decode_states
            calls = []

            def second_call_fails(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise WireError("corrupt delta blob")
                return decode_states(*args)

            monkeypatch.setattr(wire, "decode_states", second_call_fails)
            with pytest.raises(WireError):
                simulator.apply(second)
            monkeypatch.undo()
            assert len(calls) == 2
            assert pool.epoch > epoch_before
            assert control_plane(simulator) == state_before
            assert fibs(simulator) == fibs_before
            simulator.apply(second)
            assert_identical_state(sequential, simulator)
        finally:
            simulator.close()


#: Router attributes that are routing state or identity, not configuration:
#: workers rebuild them from the topology or receive them as prefix state.
ROUTER_STATE_ATTRIBUTES = {
    "asn",
    "asys",
    "adj_rib_in",
    "loc_rib",
    "originated",
    "_neighbor_order",
    "neighbor_relationships",
    "export_community_additions",
}


def test_every_router_config_attribute_reaches_the_workers():
    """Any other router attribute is configuration, and the pool must ship it.

    Workers learn a router's configuration only through
    ``capture_router_config`` -> ``_apply_router_config``; an attribute
    missing from that pair leaves them converging on stale config.
    """
    topology = small_topology()
    source = BgpSimulator(topology, shards=1)
    asn = topology.transit_ases()[0].asn
    router = source.router(asn)
    config_names = sorted(set(vars(router)) - ROUTER_STATE_ATTRIBUTES)
    assert config_names
    markers = {name: object() for name in config_names}
    for name, marker in markers.items():
        setattr(router, name, marker)
    worker = BgpSimulator(topology, shards=1)
    _apply_router_config(worker, capture_router_config(source))
    assert {name: getattr(worker.router(asn), name) for name in config_names} == markers


class TestPoolLifecycle:
    def test_shard_pool_is_a_context_manager(self):
        topology = small_topology()
        simulator = BgpSimulator(topology, shards=1)
        payload = pickle.dumps(
            (topology, capture_router_config(simulator)), protocol=pickle.HIGHEST_PROTOCOL
        )
        with ShardPool(payload, workers=2, shards=4) as pool:
            assert pool.workers == 2 and pool.shards == 4
            assert pool.slot_for(0) == 0 and pool.slot_for(3) == 1
        # Exit shut every slot down; shutdown stays idempotent.
        assert all(executor is None for executor in pool._executors)
        pool.shutdown()

    def test_tuple_snapshot_registers_and_releases_cow_token(self):
        from repro.routing import shard as shard_module

        topology = small_topology()
        simulator = BgpSimulator(topology, shards=1)
        snapshot = (topology, capture_router_config(simulator))
        before = dict(shard_module._SNAPSHOT_REGISTRY)
        with ShardPool(snapshot, workers=2, shards=4) as pool:
            if shard_module._FORK_CONTEXT is not None:
                token = pool._snapshot_token
                assert token is not None
                # Workers inherit the parent's objects via fork COW: the
                # registry parks the snapshot itself, not a pickled copy.
                assert shard_module._SNAPSHOT_REGISTRY[token] is snapshot
        assert dict(shard_module._SNAPSHOT_REGISTRY) == before  # released
        pool.shutdown()  # idempotent; the token never double-frees

    def test_ship_bytes_accounting_is_always_on(self):
        topology = small_topology()
        events = make_events(topology, count=16)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events)
            pool = simulator._shard_pool
            assert pool.tasks_dispatched > 0
            assert pool.ship_bytes > 0
        finally:
            simulator.close()

    def test_pool_registered_for_atexit_teardown(self):
        from repro.routing import residency

        topology = small_topology()
        events = make_events(topology, count=8)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events)
            assert simulator._shard_pool in residency._LIVE_POOLS
        finally:
            simulator.close()

    def test_simulator_close_stops_workers(self):
        topology = small_topology()
        events = make_events(topology, count=8)
        simulator = BgpSimulator(topology, shards=2)
        simulator.apply(events)
        pool = simulator._shard_pool
        assert any(executor is not None for executor in pool._executors)
        simulator.close()
        assert all(executor is None for executor in pool._executors)
        assert simulator._shard_pool is None and not simulator._pending_sync

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_close_then_next_batch_reacquires_and_matches_sequential(self, shard_count):
        """After ``close()`` the next sharded batch builds a new pool and
        re-ships the held state: the result equals the sequential twin."""
        topology = small_topology()
        events = make_events(topology, count=40)
        batches = [events[:20], events[20:]]

        reference = BgpSimulator(topology, shards=1)
        for batch in batches:
            reference.apply(batch)

        builds = PROVIDER.stats["builds"]
        simulator = BgpSimulator(topology, shards=shard_count)
        pools = []
        for batch in batches:
            simulator.apply(batch)
            pools.append(simulator._shard_pool)
            simulator.close()
        assert_identical_state(reference, simulator)
        if shard_count > 1:
            assert PROVIDER.stats["builds"] == builds + 2
            assert pools[0] is not pools[1]
            assert all(executor is None for pool in pools for executor in pool._executors)
        else:
            assert pools == [None, None]

    def test_pool_is_not_rebuilt_for_smaller_batches(self):
        topology = small_topology()
        events = make_events(topology, count=40)
        simulator = BgpSimulator(topology, shards=4)
        try:
            simulator.apply(events)
            pool = simulator._shard_pool
            simulator.apply(events[:6], shards=2)
            assert simulator._shard_pool is pool
        finally:
            simulator.close()

    def test_pool_is_rebuilt_to_grow_and_stays_equal_to_sequential(self):
        """A batch wanting more shards than the pool has replaces it: the
        old pool shuts down and the new one is re-shipped the held state."""
        topology = small_topology()
        events = make_events(topology, count=40)
        reference = BgpSimulator(topology, shards=1)
        reference.apply(events[:20])
        reference.apply(events[20:])

        builds = PROVIDER.stats["builds"]
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events[:20])
            small = simulator._shard_pool
            simulator.apply(events[20:], shards=4)
            grown = simulator._shard_pool
            assert grown is not small and grown.shards == 4
            assert all(executor is None for executor in small._executors)
            assert PROVIDER.stats["builds"] == builds + 2
            assert_identical_state(reference, simulator)
        finally:
            simulator.close()

"""Tests for FIB construction and data-plane forwarding (ping / traceroute)."""

from __future__ import annotations

import pytest

from repro.attacks.scenario import build_figure2_topology, build_figure7_topology
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import AddressFamily, Prefix
from repro.dataplane.fib import Fib, FibEntry, build_fib
from repro.dataplane.forwarding import DataPlane, ForwardingOutcome
from repro.exceptions import DataPlaneError
from repro.routing.engine import BgpSimulator


PREFIX = Prefix.from_string("198.51.100.0/24")


class TestFib:
    def test_longest_prefix_match(self):
        fib = Fib(1)
        fib.install(FibEntry(Prefix.from_string("10.0.0.0/8"), next_hop_asn=2))
        fib.install(FibEntry(Prefix.from_string("10.1.0.0/16"), next_hop_asn=3))
        def lookup(text: str):
            return fib.lookup(Prefix.from_string(text).network, AddressFamily.IPV4)

        assert lookup("10.1.2.0/24").next_hop_asn == 3
        assert lookup("10.2.0.0/16").next_hop_asn == 2
        assert lookup("192.0.2.0/24") is None

    def test_remove(self):
        fib = Fib(1)
        entry = FibEntry(Prefix.from_string("10.0.0.0/8"), next_hop_asn=2)
        fib.install(entry)
        assert len(fib) == 1
        fib.remove(entry.prefix)
        assert len(fib) == 0
        fib.remove(entry.prefix)  # idempotent

    def test_build_fib_flags(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        simulator.announce(1, PREFIX)
        origin_fib = build_fib(1, simulator.router(1).loc_rib, {PREFIX})
        assert origin_fib.lookup(PREFIX.host(1), PREFIX.family).is_local
        downstream_fib = build_fib(6, simulator.router(6).loc_rib, set())
        entry = downstream_fib.lookup(PREFIX.host(1), PREFIX.family)
        assert entry is not None and not entry.is_local and entry.next_hop_asn in (3, 5)


class TestDataPlane:
    def test_delivery_and_path(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        simulator.announce(1, PREFIX)
        plane = DataPlane(simulator)
        trace = plane.traceroute(6, PREFIX.host(1), PREFIX.family)
        assert trace.outcome == ForwardingOutcome.DELIVERED
        assert trace.path[0] == 6
        assert trace.path[-1] == 1
        assert plane.ping(6, PREFIX.host(1), PREFIX.family)

    def test_no_route(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        plane = DataPlane(simulator)
        assert not plane.ping(6, PREFIX.host(1), PREFIX.family)
        assert plane.traceroute(6, PREFIX.host(1), PREFIX.family).outcome == ForwardingOutcome.NO_ROUTE

    def test_blackholed_traffic_is_dropped_at_target(self):
        # AS4 without its own RTBH service, so the drop happens exactly at AS3.
        topology = build_figure7_topology()
        topology.get_as(4).services = None
        simulator = BgpSimulator(topology)
        victim = Prefix.from_string("203.0.113.0/24")
        attacker = simulator.router(2)
        for neighbor in attacker.neighbors():
            attacker.export_community_additions[neighbor] = CommunitySet.of(
                Community(3, 666), BLACKHOLE
            )
        simulator.announce(1, victim)
        plane = DataPlane(simulator)
        # AS4 sits behind AS3 (the blackholing AS): its traffic is dropped there.
        trace = plane.traceroute(4, victim.host(1), victim.family)
        assert trace.outcome == ForwardingOutcome.BLACKHOLED
        assert trace.dropped_at == 3
        # AS2 still reaches the victim directly.
        assert plane.ping(2, victim.host(1), victim.family)

    def test_unknown_source_raises(self):
        simulator = BgpSimulator(build_figure2_topology())
        plane = DataPlane(simulator)
        with pytest.raises(DataPlaneError):
            plane.traceroute(999, PREFIX.host(1), PREFIX.family)
        with pytest.raises(DataPlaneError):
            plane.fib(999)

    def test_reachability_matrix(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        simulator.announce(1, PREFIX)
        plane = DataPlane(simulator)
        address = PREFIX.host(1)
        matrix = {source: plane.ping(source, address, PREFIX.family) for source in (2, 6)}
        assert matrix == {2: True, 6: True}

    def test_rebuild_reflects_new_state(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        plane = DataPlane(simulator)
        assert not plane.ping(6, PREFIX.host(1), PREFIX.family)
        simulator.announce(1, PREFIX)
        plane.rebuild()
        assert plane.ping(6, PREFIX.host(1), PREFIX.family)


class TestIncrementalRebuild:
    """rebuild(report) must patch FIBs into exactly the full-rebuild state."""

    @staticmethod
    def _fib_state(plane: DataPlane) -> dict[int, dict[Prefix, FibEntry]]:
        return {asn: {e.prefix: e for e in fib.entries()} for asn, fib in plane.fibs.items()}

    def test_incremental_matches_full_over_rtbh_scenario(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        victim_prefix = Prefix.from_string("203.0.113.0/24")
        simulator.announce(1, victim_prefix)
        plane = DataPlane(simulator)  # full build at construction

        # The attacker announces a /32 blackhole route tagged with the
        # community target's RTBH community (the paper's Section 7.3 move).
        blackhole_prefix = Prefix.from_string("203.0.113.66/32")
        report = simulator.announce(
            2, blackhole_prefix, communities=CommunitySet.of(Community(3, 666), BLACKHOLE)
        )
        assert report.dirty  # the run recorded per-router dirty prefixes
        plane.rebuild(report)
        assert self._fib_state(plane) == self._fib_state(DataPlane(simulator))

        # Withdrawing patches back to the pre-attack state.
        report = simulator.withdraw(2, blackhole_prefix)
        plane.rebuild(report)
        assert self._fib_state(plane) == self._fib_state(DataPlane(simulator))

    def test_incremental_rebuild_via_reannouncement(self):
        topology = build_figure2_topology()
        simulator = BgpSimulator(topology)
        simulator.announce(1, PREFIX)
        plane = DataPlane(simulator)
        # Re-announce with a prepend community: best paths shift downstream.
        report = simulator.announce(1, PREFIX, communities=CommunitySet.of(Community(3, 33)))
        plane.rebuild(report)
        assert self._fib_state(plane) == self._fib_state(DataPlane(simulator))

    def test_ping_works_on_host_routes(self):
        topology = build_figure7_topology()
        simulator = BgpSimulator(topology)
        blackhole_prefix = Prefix.from_string("203.0.113.66/32")
        report = simulator.announce(
            2, blackhole_prefix, communities=CommunitySet.of(Community(3, 666), BLACKHOLE)
        )
        plane = DataPlane(simulator)
        # A /32 target must not crash the representative-host derivation.
        trace = plane.traceroute(4, blackhole_prefix.host(), blackhole_prefix.family)
        assert trace.outcome in (ForwardingOutcome.BLACKHOLED, ForwardingOutcome.NO_ROUTE)
        assert not plane.ping(4, blackhole_prefix.host(), blackhole_prefix.family)

"""Tests for the topology package: relationships, AS model, IXPs, generator, graph."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bgp.community import Community
from repro.bgp.prefix import Prefix
from repro.exceptions import TopologyError
from repro.topology.asys import AsRole, AutonomousSystem
from repro.topology.generator import PolicyMix, TopologyGenerator, TopologyParameters
from repro.topology.graph import classify_roles, valley_free_paths
from repro.topology.ixp import Ixp, RouteServerConfig
from repro.topology.relationships import Relationship, RelationshipDataset
from repro.topology.topology import Topology


class TestRelationships:
    def test_dataset_symmetry(self):
        dataset = RelationshipDataset()
        dataset.add(1, 2, Relationship.CUSTOMER)
        assert dataset.get(1, 2) == Relationship.CUSTOMER
        assert dataset.get(2, 1) == Relationship.PROVIDER
        assert dataset.customers(1) == [2]
        assert dataset.providers(2) == [1]
        assert dataset.neighbors(1) == [2]
        assert dataset.edge_count() == 1

    def test_conflicting_relationship_rejected(self):
        dataset = RelationshipDataset()
        dataset.add(1, 2, Relationship.CUSTOMER)
        with pytest.raises(TopologyError):
            dataset.add(1, 2, Relationship.PEER)

    def test_self_relationship_rejected(self):
        with pytest.raises(TopologyError):
            RelationshipDataset().add(1, 1, Relationship.PEER)


class TestAutonomousSystem:
    def test_defaults(self):
        asys = AutonomousSystem(asn=65001)
        assert asys.name == "AS65001"
        assert asys.is_stub
        assert not asys.is_transit

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            AutonomousSystem(asn=0)

    def test_prefix_origination(self):
        asys = AutonomousSystem(asn=65001)
        prefix = Prefix.from_string("203.0.113.0/24")
        asys.add_prefix(prefix)
        asys.add_prefix(prefix)  # idempotent
        assert len(asys.prefixes) == 1
        topology = Topology()
        topology.add_as(asys)
        origins = topology.origin_table()
        assert origins.covering(prefix) == [65001]
        assert origins.covering(prefix.subprefix(32, 5)) == [65001]
        assert origins.covering(Prefix.from_string("192.0.2.0/24")) == []


class _EdgeScanOracle:
    """The flat ``{(a, b): relationship}`` store and its full-scan queries."""

    def __init__(self):
        self.relationships: dict[tuple[int, int], Relationship] = {}

    def add(self, asn_a: int, asn_b: int, relationship: Relationship) -> bool:
        """Apply one add; return False where the dataset must raise."""
        existing = self.relationships.get((asn_a, asn_b))
        if asn_a == asn_b or (existing is not None and existing != relationship):
            return False
        self.relationships[(asn_a, asn_b)] = relationship
        self.relationships[(asn_b, asn_a)] = relationship.inverse()
        return True

    def related(self, asn: int, wanted: Relationship | None = None) -> list[int]:
        return sorted(
            b
            for (a, b), relationship in self.relationships.items()
            if a == asn and wanted in (None, relationship)
        )


class TestRelationshipAdjacency:
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8), st.sampled_from(list(Relationship))),
            max_size=40,
        )
    )
    def test_answers_match_an_edge_scan(self, adds):
        dataset, oracle = RelationshipDataset(), _EdgeScanOracle()
        for asn_a, asn_b, relationship in adds:
            # The small ASN range makes re-adds, reversed re-adds and
            # conflicting re-adds all common.
            if oracle.add(asn_a, asn_b, relationship):
                dataset.add(asn_a, asn_b, relationship)
            else:
                with pytest.raises(TopologyError):
                    dataset.add(asn_a, asn_b, relationship)
        assert dataset.asns() == {a for a, _b in oracle.relationships}
        assert dataset.edge_count() == len(oracle.relationships) // 2
        for asn in range(0, 10):
            assert dataset.neighbors(asn) == oracle.related(asn)
            assert dataset.customers(asn) == oracle.related(asn, Relationship.CUSTOMER)
            assert dataset.providers(asn) == oracle.related(asn, Relationship.PROVIDER)
            assert dataset.peers(asn) == oracle.related(asn, Relationship.PEER)
            for other in range(0, 10):
                assert dataset.get(asn, other) == oracle.relationships.get((asn, other))
                assert dataset.has_edge(asn, other) == ((asn, other) in oracle.relationships)
        edges = list(dataset.edges())
        assert len(edges) == dataset.edge_count()
        # Each undirected edge once, in order of its lower-sorting (a, b) key.
        assert [frozenset((e.asn_a, e.asn_b)) for e in edges] == list(
            dict.fromkeys(frozenset(pair) for pair in sorted(oracle.relationships))
        )
        for edge in edges:
            assert edge.relationship != Relationship.PROVIDER
            assert oracle.relationships[(edge.asn_a, edge.asn_b)] == edge.relationship


class TestIxp:
    def test_route_server_communities(self):
        config = RouteServerConfig(ixp_asn=9000)
        assert config.announce_to(15) == Community(9000, 15)
        assert config.suppress_to(15) == Community(0, 15)
        assert config.is_control_community(Community(0, 15))
        assert not config.is_control_community(Community(3356, 666))

    def test_membership(self):
        ixp = Ixp(name="X", route_server_asn=9000, members={1})
        assert ixp.is_member(1) and not ixp.is_member(9000)
        assert ixp.member_count() == 1

    def test_config_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            Ixp(name="X", route_server_asn=1, route_server_config=RouteServerConfig(ixp_asn=2))


class TestTopologyContainer:
    def build(self) -> Topology:
        topology = Topology()
        for asn in (1, 2, 3, 4):
            topology.add_as(AutonomousSystem(asn=asn))
        topology.add_customer_link(2, 1)
        topology.add_customer_link(3, 2)
        topology.add_peer_link(3, 4)
        return topology

    def test_lookup_and_neighbors(self):
        topology = self.build()
        assert topology.get_as(1).asn == 1
        assert topology.neighbors(2) == [1, 3]
        assert topology.customers(2) == [1]
        assert topology.providers(2) == [3]
        assert topology.peers(3) == [4]
        assert topology.relationship(3, 4) == Relationship.PEER
        with pytest.raises(TopologyError):
            topology.get_as(99)

    def test_link_requires_known_ases(self):
        topology = self.build()
        with pytest.raises(TopologyError):
            topology.add_customer_link(1, 99)

    def test_origin_table_covering_is_least_specific_first(self):
        topology = self.build()
        topology.get_as(1).add_prefix(Prefix.from_string("10.0.0.0/8"))
        topology.get_as(2).add_prefix(Prefix.from_string("10.1.0.0/16"))
        origins = topology.origin_table()
        assert origins.covering(Prefix.from_string("10.1.2.0/24")) == [1, 2]
        assert origins.covering(Prefix.from_string("10.9.0.0/16")) == [1]
        assert origins.covering(Prefix.from_string("172.16.0.0/12")) == []

    def test_validate_detects_duplicate_origination(self):
        topology = self.build()
        prefix = Prefix.from_string("10.0.0.0/8")
        topology.get_as(1).add_prefix(prefix)
        topology.get_as(2).add_prefix(prefix)
        problems = topology.validate()
        assert any("originated by both" in p for p in problems)

    def test_ixp_registration_requires_rs_as(self):
        topology = self.build()
        with pytest.raises(TopologyError):
            topology.add_ixp(Ixp(name="X", route_server_asn=999))

    def test_summary_counts(self):
        topology = self.build()
        summary = topology.summary()
        assert summary["ases"] == 4
        assert summary["edges"] == 3


class TestGraphQueries:
    def build_chain(self) -> Topology:
        # 4 -(cust)-> 3 -(cust)-> 2 -(cust)-> 1, plus peer 3--5, 5 -(cust)-> 6
        topology = Topology()
        for asn in (1, 2, 3, 4, 5, 6):
            topology.add_as(AutonomousSystem(asn=asn))
        topology.add_customer_link(4, 3)
        topology.add_customer_link(3, 2)
        topology.add_customer_link(2, 1)
        topology.add_peer_link(3, 5)
        topology.add_customer_link(5, 6)
        return topology

    def test_classify_roles(self):
        topology = self.build_chain()
        roles = classify_roles(topology)
        assert roles[4] == AsRole.TIER1
        assert roles[3] == AsRole.TRANSIT
        assert roles[1] == AsRole.STUB
        assert roles[6] == AsRole.STUB

    def test_valley_free_paths_from_origin(self):
        topology = self.build_chain()
        paths = valley_free_paths(topology, 1)
        # Customer routes go everywhere upstream and across the peer link.
        assert paths[2] == [2, 1]
        assert paths[3] == [3, 2, 1]
        assert paths[4] == [4, 3, 2, 1]
        assert paths[5] == [5, 3, 2, 1]
        # ...and down from the peer to its customer.
        assert paths[6] == [6, 5, 3, 2, 1]

    def test_valley_free_blocks_peer_to_provider(self):
        # A route learned over a peer link must not be exported to a provider.
        topology = Topology()
        for asn in (1, 2, 3):
            topology.add_as(AutonomousSystem(asn=asn))
        topology.add_peer_link(1, 2)
        topology.add_customer_link(3, 2)  # 3 is 2's provider
        paths = valley_free_paths(topology, 1)
        assert 2 in paths
        assert 3 not in paths  # would require a valley

    def test_unknown_origin_raises(self):
        with pytest.raises(TopologyError):
            valley_free_paths(self.build_chain(), 99)

    def test_reachable_ases(self):
        topology = self.build_chain()
        assert set(valley_free_paths(topology, 1)) == {1, 2, 3, 4, 5, 6}


class TestGenerator:
    def test_generated_topology_is_consistent(self, small_topology):
        assert small_topology.validate() == []
        summary = small_topology.summary()
        assert summary["ases"] > 90
        assert summary["edges"] >= summary["ases"] - 3  # connected-ish hierarchy
        assert len(small_topology.ixps) == 2

    def test_roles_match_parameters(self, small_topology):
        tier1 = [asys for asys in small_topology if asys.role == AsRole.TIER1]
        stubs = small_topology.stub_ases()
        assert len(tier1) == 3
        assert len(stubs) == 70
        # Tier-1s form a peering clique.
        for a in tier1:
            for b in tier1:
                if a.asn != b.asn:
                    assert small_topology.relationship(a.asn, b.asn) == Relationship.PEER

    def test_every_non_ixp_as_has_prefixes_and_policies(self, small_topology):
        for asys in small_topology:
            if asys.role == AsRole.IXP:
                continue
            assert asys.prefixes, f"AS{asys.asn} has no prefixes"
            assert asys.propagation_policy is not None
            assert asys.vendor is not None

    def test_stubs_have_providers(self, small_topology):
        for asys in small_topology.stub_ases():
            assert small_topology.providers(asys.asn), f"stub AS{asys.asn} has no provider"

    def test_some_transit_ases_offer_services(self, small_topology):
        offering = [a for a in small_topology.transit_ases() if a.services is not None]
        assert offering, "no transit AS offers community services"

    def test_ixp_route_servers_are_configured_and_sessionless(self, small_topology):
        assert small_topology.ixps
        for ixp in small_topology.ixps.values():
            assert ixp.route_server_config.ixp_asn == ixp.route_server_asn
            # No generated AS has a session with the route server, so its
            # redistribution communities run only through RouteServer.
            assert small_topology.neighbors(ixp.route_server_asn) == []

    def test_determinism(self):
        params = TopologyParameters(tier1_count=2, transit_count=8, stub_count=20, seed=7)
        a = TopologyGenerator(params).generate()
        b = TopologyGenerator(params).generate()
        assert a.asns() == b.asns()
        assert a.edge_count() == b.edge_count()
        assert {str(p) for x in a for p in x.prefixes} == {str(p) for x in b for p in x.prefixes}

    def test_policy_mix_must_sum_to_one(self):
        with pytest.raises(TopologyError):
            PolicyMix(forward_all=0.9, strip_own=0.9, selective=0.1, strip_all=0.1)

    def test_prefix_allocations_do_not_overlap(self, small_topology):
        seen: list[Prefix] = []
        for asys in small_topology:
            for prefix in asys.prefixes:
                if not prefix.is_ipv4:
                    continue
                for other in seen:
                    assert not prefix.overlaps(other)
                seen.append(prefix)

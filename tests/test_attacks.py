"""Tests for the attack scenarios (Sections 3, 5, and the Table 3 matrix)."""

from __future__ import annotations

import pytest

from repro.attacks.conditions import (
    check_necessary_condition,
    check_sufficient_condition,
    community_propagation_path,
)
from repro.attacks.feasibility import Difficulty, build_feasibility_matrix
from repro.attacks.manipulation import RouteManipulationAttack
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.scenario import (
    ScenarioRoles,
    build_figure2_topology,
    build_figure7_topology,
    build_figure8b_topology,
    build_figure9_ixp,
)
from repro.attacks.steering import LocalPrefSteeringAttack, PrependSteeringAttack
from repro.bgp.community import Community
from repro.bgp.prefix import Prefix
from repro.exceptions import AttackError
from repro.policy.community_policy import StripAllPolicy


VICTIM_FIG7 = Prefix.from_string("203.0.113.0/24")
VICTIM_FIG2 = Prefix.from_string("198.51.100.0/24")
VICTIM_FIG8B = Prefix.from_string("198.18.0.0/24")


class TestScenarioTopologies:
    def test_figure2_topology(self):
        topology = build_figure2_topology()
        assert topology.get_as(3).services is not None
        assert topology.origin_of(VICTIM_FIG2) == 1
        assert topology.validate() == []

    def test_figure7_topology(self):
        topology = build_figure7_topology()
        assert topology.get_as(3).services.blackhole_communities()
        assert topology.get_as(4).services.blackhole_communities()
        assert topology.validate() == []

    def test_figure9_topology(self):
        topology, ixp = build_figure9_ixp(member_count=8)
        assert ixp.member_count() == 8
        assert topology.get_as(ixp.route_server_asn).services is not None


class TestConditions:
    def test_necessary_condition_holds_on_forwarding_path(self):
        topology = build_figure7_topology()
        report = check_necessary_condition(topology, attacker_asn=2, target_asn=3)
        assert report.holds
        assert report.path is not None

    def test_necessary_condition_fails_without_services(self):
        topology = build_figure7_topology()
        topology.get_as(3).services = None
        report = check_necessary_condition(topology, attacker_asn=2, target_asn=3)
        assert not report.holds

    def test_propagation_path_detects_stripping(self):
        topology = build_figure2_topology()
        community = Community(3, 33)
        ok = community_propagation_path(topology, attacker_asn=2, target_asn=3, community=community)
        assert ok.holds
        # If the intermediate AS4 strips everything, the condition fails.
        topology.get_as(4).propagation_policy = StripAllPolicy()
        blocked = community_propagation_path(
            topology, attacker_asn=2, target_asn=3, community=community
        )
        assert not blocked.holds
        assert any("strips" in reason for reason in blocked.reasons)

    def test_sufficient_condition_hijack_capability(self):
        topology = build_figure7_topology()
        community = Community(3, 666)
        ok = check_sufficient_condition(
            topology, 2, 3, community, requires_hijack=True, attacker_can_hijack=True
        )
        assert ok.holds
        blocked = check_sufficient_condition(
            topology, 2, 3, community, requires_hijack=True, attacker_can_hijack=False
        )
        assert not blocked.holds


class TestRtbh:
    def test_without_hijack_blackholes_at_target(self):
        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = RtbhAttack(topology, roles, VICTIM_FIG7, use_hijack=False)
        result = attack.run(vantage_points=[4])
        assert result.succeeded
        assert 3 in result.blackholed_at
        assert result.target_next_hop == "null0 (discard)"
        assert 4 in result.reachable_before
        assert 4 in result.unreachable_from

    def test_with_hijack_uses_more_specific(self):
        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = RtbhAttack(topology, roles, VICTIM_FIG7, use_hijack=True)
        result = attack.run(vantage_points=[4])
        assert result.succeeded
        assert result.attack_prefix.length == 32
        assert VICTIM_FIG7.contains_prefix(result.attack_prefix)

    def test_requires_blackhole_service(self):
        topology = build_figure7_topology()
        topology.get_as(3).services = None
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        with pytest.raises(AttackError):
            RtbhAttack(topology, roles, VICTIM_FIG7)

    def test_as4_as_community_target_via_propagation(self):
        # The same attack works against AS4's service when AS3 propagates communities.
        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=4)
        attack = RtbhAttack(topology, roles, VICTIM_FIG7, use_hijack=False)
        result = attack.run(vantage_points=[])
        assert 4 in result.blackholed_at


class TestSteering:
    def test_prepend_steering_moves_observer_path(self):
        topology = build_figure2_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = PrependSteeringAttack(topology, roles, VICTIM_FIG2, observer_asn=6)
        result = attack.run()
        assert result.succeeded
        assert 3 in result.path_before
        assert 3 not in result.path_after
        assert result.path_changed

    def test_prepend_steering_blocked_by_stripping_intermediate(self):
        topology = build_figure2_topology()
        topology.get_as(4).propagation_policy = StripAllPolicy()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = PrependSteeringAttack(topology, roles, VICTIM_FIG2, observer_asn=6)
        result = attack.run()
        assert not result.succeeded

    def test_prepend_requires_target_service(self):
        topology = build_figure2_topology()
        topology.get_as(3).services = None
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        with pytest.raises(AttackError):
            PrependSteeringAttack(topology, roles, VICTIM_FIG2, observer_asn=6)

    def test_local_pref_steering_changes_ingress(self):
        topology = build_figure8b_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
        attack = LocalPrefSteeringAttack(topology, roles, VICTIM_FIG8B)
        result = attack.run()
        assert result.succeeded
        assert result.details["ingress_before"] == 2
        assert result.details["ingress_after"] == 4
        assert result.path_changed

    def test_local_pref_steering_gated_by_business_relationship(self):
        # If AS1 only acts on communities from customers and the tagged session
        # arrives from a peer instead, the attack fails.
        topology = build_figure8b_topology()
        from repro.topology.relationships import Relationship

        # Rewire AS2 as a peer of AS1 rather than a customer.
        topology.relationships._adjacency[1][2] = Relationship.PEER
        topology.relationships._adjacency[2][1] = Relationship.PEER
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
        attack = LocalPrefSteeringAttack(topology, roles, VICTIM_FIG8B)
        result = attack.run()
        assert not result.succeeded


class TestRouteManipulation:
    def test_suppression_removes_route(self):
        topology, ixp = build_figure9_ixp()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=ixp.route_server_asn)
        attack = RouteManipulationAttack(
            topology, ixp, roles, Prefix.from_string("203.0.113.0/24"), victim_member_asn=4
        )
        result = attack.run()
        assert result.succeeded
        assert result.attackee_route_before
        assert not result.attackee_route_after
        assert result.route_withdrawn

    def test_flipped_evaluation_order_defeats_the_attack(self):
        topology, ixp = build_figure9_ixp()
        ixp.route_server_config.suppress_before_redistribute = False
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=ixp.route_server_asn)
        attack = RouteManipulationAttack(
            topology, ixp, roles, Prefix.from_string("203.0.113.0/24"), victim_member_asn=4
        )
        result = attack.run()
        assert not result.succeeded


class TestFeasibilityMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return build_feasibility_matrix()

    def test_all_scenarios_succeed(self, matrix):
        assert len(matrix.rows) == 8
        assert all(row.succeeded for row in matrix.rows)

    def test_difficulty_grades_match_paper(self, matrix):
        assert matrix.difficulty_of("Blackholing", False) == Difficulty.EASY
        assert matrix.difficulty_of("Blackholing", True) == Difficulty.EASY
        assert matrix.difficulty_of("Traffic steering (local pref)", False) == Difficulty.HARD
        assert matrix.difficulty_of("Traffic steering (path prepending)", True) == Difficulty.HARD
        assert matrix.difficulty_of("Route manipulation", False) == Difficulty.MEDIUM

    def test_hijack_rows_mention_irr(self, matrix):
        for row in matrix.rows:
            if row.hijack:
                assert "IRR" in row.insights()

    def test_rendering(self, matrix):
        text = matrix.to_table().render()
        assert "Table 3" in text
        assert "easy" in text and "hard" in text and "medium" in text

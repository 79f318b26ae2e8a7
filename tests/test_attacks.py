"""Tests for the attack scenarios (Sections 3, 5, and the Table 3 matrix)."""

from __future__ import annotations

import pytest

from repro.attacks.feasibility import build_feasibility_matrix
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.scenario import (
    FIGURE9_MEMBER_COUNT,
    ScenarioRoles,
    build_figure2_topology,
    build_figure7_topology,
    build_figure9_ixp,
)
from repro.attacks.steering import PrependSteeringAttack
from repro.bgp.prefix import Prefix
from repro.exceptions import AttackError
from repro.policy.community_policy import StripAllPolicy


VICTIM_FIG7 = Prefix.from_string("203.0.113.0/24")
VICTIM_FIG2 = Prefix.from_string("198.51.100.0/24")


class TestScenarioTopologies:
    def test_figure2_topology(self):
        topology = build_figure2_topology()
        assert topology.get_as(3).services is not None
        assert topology.origin_table().covering(VICTIM_FIG2)[-1] == 1
        assert topology.validate() == []

    def test_figure7_topology(self):
        topology = build_figure7_topology()
        assert topology.get_as(3).services.blackhole_communities()
        assert topology.get_as(4).services.blackhole_communities()
        assert topology.validate() == []

    def test_figure9_topology(self):
        _topology, ixp = build_figure9_ixp()
        assert ixp.member_count() == FIGURE9_MEMBER_COUNT
        assert ixp.route_server_config.ixp_asn == ixp.route_server_asn
        assert ixp.route_server_config.suppress_before_redistribute


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
            RtbhAttack(topology, roles, VICTIM_FIG7, use_hijack=False)

    def test_as4_as_community_target_via_propagation(self):
        # The same attack works against AS4's service when AS3 propagates communities.
        topology = build_figure7_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=4)
        attack = RtbhAttack(topology, roles, VICTIM_FIG7, use_hijack=False)
        result = attack.run(vantage_points=[])
        assert 4 in result.blackholed_at


class TestSteering:
    # The successful prepend and local-pref attacks are rows of tests/test_paper_claims.py.
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


class TestFeasibilityMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return build_feasibility_matrix(seed=42)

    def test_hijack_rows_mention_irr(self, matrix):
        for row in matrix.rows:
            if row.hijack:
                assert "IRR" in row.insights()

    def test_rendering(self, matrix):
        text = matrix.to_table().render()
        assert "Table 3" in text
        assert "easy" in text and "hard" in text and "medium" in text

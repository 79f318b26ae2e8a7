"""Tests for the attack scenarios (Sections 3, 5, and the Table 3 matrix)."""

from __future__ import annotations

import pytest

from repro.attacks.feasibility import build_feasibility_matrix
from repro.attacks.rtbh import RtbhAttack
from repro.attacks.scenario import (
    FIGURE2_ROLES,
    FIGURE2_VICTIM,
    FIGURE7_ROLES,
    FIGURE7_VICTIM,
    FIGURE9_MEMBER_COUNT,
    ScenarioRoles,
    build_figure2_topology,
    build_figure7_topology,
    build_figure9_ixp,
)
from repro.attacks.steering import PrependSteeringAttack
from repro.bgp.prefix import Prefix
from repro.exceptions import AttackError
from repro.experiments import get
from repro.policy.community_policy import StripAllPolicy


class TestScenarioTopologies:
    def test_figure2_topology(self):
        topology = build_figure2_topology()
        assert topology.get_as(3).services is not None
        assert topology.origin_table().covering(FIGURE2_VICTIM)[-1] == FIGURE2_ROLES.attackee_asn
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
        result = RtbhAttack.figure7(hijack=False).run(vantage_points=[4])
        assert result["succeeded"]
        assert 3 in result["blackholed_at"]
        assert result["target_next_hop"] == "null0 (discard)"
        assert 4 in result["reachable_before"]
        assert 4 in result["unreachable_from"]

    def test_with_hijack_uses_more_specific(self):
        result = RtbhAttack.figure7(hijack=True).run(vantage_points=[4])
        assert result["succeeded"]
        attack_prefix = Prefix.from_string(result["attack_prefix"])
        assert attack_prefix.length == 32
        assert FIGURE7_VICTIM.contains_prefix(attack_prefix)

    def test_requires_blackhole_service(self):
        topology = build_figure7_topology()
        topology.get_as(3).services = None
        with pytest.raises(AttackError):
            RtbhAttack(topology, FIGURE7_ROLES, FIGURE7_VICTIM, use_hijack=False)

    def test_as4_as_community_target_via_propagation(self):
        # The same attack works against AS4's service when AS3 propagates communities.
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=4)
        attack = RtbhAttack(build_figure7_topology(), roles, FIGURE7_VICTIM, use_hijack=False)
        result = attack.run(vantage_points=[])
        assert 4 in result["blackholed_at"]


class TestSteering:
    # The successful prepend and local-pref attacks are rows of tests/test_paper_claims.py.
    def test_prepend_steering_blocked_by_stripping_intermediate(self):
        attack = PrependSteeringAttack.figure2()
        attack.topology.get_as(4).propagation_policy = StripAllPolicy()
        assert not attack.run()["succeeded"]

    def test_prepend_requires_target_service(self):
        topology = build_figure2_topology()
        topology.get_as(3).services = None
        with pytest.raises(AttackError):
            PrependSteeringAttack(
                topology, FIGURE2_ROLES, FIGURE2_VICTIM, observer_asn=6, use_hijack=False
            )


#: The registered experiment run behind each Table 3 row, by (scenario, hijack).
TABLE3_EXPERIMENTS = {
    ("Blackholing", False): ("rtbh", {"hijack": False}),
    ("Blackholing", True): ("rtbh", {"hijack": True}),
    ("Traffic steering (local pref)", False): ("steering", {"variant": "local-pref"}),
    ("Traffic steering (local pref)", True): ("steering", {"variant": "local-pref"}),
    ("Traffic steering (path prepending)", False): ("steering", {"variant": "prepend"}),
    ("Traffic steering (path prepending)", True): ("steering", {"variant": "prepend", "hijack": True}),
    ("Route manipulation", False): ("route-manipulation", {}),
    ("Route manipulation", True): ("route-manipulation", {}),
}


class TestFeasibilityMatrix:
    @pytest.fixture(scope="class")
    def rows(self):
        return build_feasibility_matrix()

    def test_hijack_rows_mention_irr(self, rows):
        for row in rows:
            if row["hijack"]:
                assert "IRR" in row["insights"]

    def test_rendering(self):
        cls = get("feasibility")
        experiment = cls(cls.default_spec())
        text = experiment.render_text(experiment.run())
        assert "Table 3" in text
        assert "easy" in text and "hard" in text and "medium" in text

    def test_every_row_has_an_experiment(self, rows):
        assert [(row["scenario"], row["hijack"]) for row in rows] == list(TABLE3_EXPERIMENTS)

    @pytest.mark.parametrize("key", list(TABLE3_EXPERIMENTS), ids=lambda key: f"{key[0]}-hijack={key[1]}")
    def test_each_row_succeeds_as_its_experiment_does(self, rows, key):
        [row] = [r for r in rows if (r["scenario"], r["hijack"]) == key]
        name, params = TABLE3_EXPERIMENTS[key]
        result = get(name)(get(name).default_spec(**params)).run()
        assert row["succeeded"] == result.metrics["succeeded"]

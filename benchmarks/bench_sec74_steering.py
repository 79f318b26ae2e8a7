"""Section 7.4 — traffic steering in the wild.

Paper: the prepend community was visible at the target and changed the best
path of many peers; the local-pref community demoted the tagged session to
the "customer fallback" preference; but business relationships gate the
attack — providers only act on communities from customers — which is why
the paper grades steering as *hard*.  All three behaviours are reproduced.
"""

from __future__ import annotations

from repro.attacks.scenario import (
    ScenarioRoles,
    build_figure2_topology,
    build_figure8b_topology,
)
from repro.attacks.steering import LocalPrefSteeringAttack, PrependSteeringAttack
from repro.bgp.prefix import Prefix
from repro.topology.relationships import Relationship

PREPEND_VICTIM = Prefix.from_string("198.51.100.0/24")
LOCALPREF_VICTIM = Prefix.from_string("198.18.0.0/24")


def test_sec74_prepend_steering(benchmark):
    def run():
        topology = build_figure2_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = PrependSteeringAttack(topology, roles, PREPEND_VICTIM, observer_asn=6)
        return attack.run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    print()
    print(f"observer path before: {result.path_before}")
    print(f"observer path after:  {result.path_after}")
    assert result.succeeded
    assert 3 in result.path_before and 3 not in result.path_after


def test_sec74_local_pref_steering(benchmark):
    def run():
        topology = build_figure8b_topology()
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
        return LocalPrefSteeringAttack(topology, roles, LOCALPREF_VICTIM).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    print()
    print(f"target ingress before/after: AS{result.details['ingress_before']} -> "
          f"AS{result.details['ingress_after']}")
    assert result.succeeded
    assert result.details["ingress_before"] != result.details["ingress_after"]


def test_sec74_business_relationship_gate(benchmark):
    """The same local-pref attack fails when the tagged session is a peer, not a customer."""

    def run():
        topology = build_figure8b_topology()
        topology.relationships._adjacency[1][2] = Relationship.PEER
        topology.relationships._adjacency[2][1] = Relationship.PEER
        roles = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
        return LocalPrefSteeringAttack(topology, roles, LOCALPREF_VICTIM).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    print()
    print(f"attack over a peer session succeeded: {result.succeeded} "
          "(providers only act on communities set by their customers)")
    assert not result.succeeded

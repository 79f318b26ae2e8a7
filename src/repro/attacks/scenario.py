"""Scenario roles, outcomes, and the paper's canonical example topologies.

Section 3.3 fixes the terminology used throughout: the **attacker**
manipulates the community attribute (or announces a hijack), the
**community target** is the AS whose community service is being abused,
and the **attackee** is the AS whose prefix or traffic is affected.
The ``build_figure*`` helpers construct the exact topologies of
Figures 2, 7, 8(b) and 9 so the lab experiments, the examples, and the
tests all speak about the same picture as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import Community
from repro.policy.actions import LocalPrefAction, PrependAction
from repro.policy.community_policy import ForwardAllPolicy
from repro.policy.services import CommunityServiceCatalog, ServiceDefinition
from repro.topology.asys import AsRole, AutonomousSystem
from repro.topology.ixp import Ixp, RouteServerConfig
from repro.topology.topology import Topology
from repro.bgp.prefix import Prefix


@dataclass(frozen=True)
class ScenarioRoles:
    """Who is who in an attack scenario (paper Section 3.3)."""

    attacker_asn: int
    attackee_asn: int
    community_target_asn: int


@dataclass
class AttackOutcome:
    """Generic outcome record shared by the attack classes."""

    succeeded: bool
    roles: ScenarioRoles
    description: str = ""
    details: dict = field(default_factory=dict)


def _transit_as(asn: int, services: CommunityServiceCatalog | None = None) -> AutonomousSystem:
    return AutonomousSystem(
        asn=asn,
        role=AsRole.TRANSIT,
        propagation_policy=ForwardAllPolicy(),
        services=services,
    )


def _stub_as(asn: int) -> AutonomousSystem:
    return AutonomousSystem(asn=asn, role=AsRole.STUB, propagation_policy=ForwardAllPolicy())


def build_figure2_topology() -> Topology:
    """The AS-path-prepending scenario of Figure 2.

    AS1 (attackee/origin) — AS2 (attacker) — AS4 — {AS3, AS5} — AS6.
    AS3 is the community target offering prepending via ``AS3:x3``; AS6
    receives two equal-length paths and, absent the attack, may pick the
    one through AS3.
    """
    topology = Topology()
    prepend_services = CommunityServiceCatalog(
        3,
        [
            ServiceDefinition(Community(3, 31), PrependAction(1), "prepend once", customers_only=True),
            ServiceDefinition(Community(3, 32), PrependAction(2), "prepend twice", customers_only=True),
            ServiceDefinition(Community(3, 33), PrependAction(3), "prepend three times", customers_only=True),
        ],
    )
    topology.add_as(_stub_as(1))
    topology.add_as(_transit_as(2))
    topology.add_as(_transit_as(3, prepend_services))
    topology.add_as(_transit_as(4))
    topology.add_as(_transit_as(5))
    topology.add_as(_stub_as(6))
    # AS1 is a customer of AS2; AS2 a customer of AS4; AS4 a customer of both
    # AS3 and AS5; AS6 a customer of both AS3 and AS5.
    topology.add_customer_link(2, 1)
    topology.add_customer_link(4, 2)
    topology.add_customer_link(3, 4)
    topology.add_customer_link(5, 4)
    topology.add_customer_link(3, 6)
    topology.add_customer_link(5, 6)
    # The attackee's prefix.
    topology.get_as(1).add_prefix(Prefix.from_string("198.51.100.0/24"))
    return topology


def build_figure7_topology() -> Topology:
    """The remotely-triggered-blackholing scenario of Figure 7.

    AS1 (attackee) announces p to AS2 (attacker) and AS3 (community
    target, offers RTBH).  AS4 sits behind AS3.  The attacker adds
    AS3:666 on its announcement of p so traffic to p is dropped at AS3.
    """
    topology = Topology()
    topology.add_as(_stub_as(1))
    topology.add_as(_transit_as(2))
    topology.add_as(_transit_as(3, CommunityServiceCatalog.standard_transit_catalog(3)))
    topology.add_as(_transit_as(4, CommunityServiceCatalog.standard_transit_catalog(4)))
    topology.add_customer_link(2, 1)
    topology.add_customer_link(3, 1)
    topology.add_customer_link(3, 2)
    topology.add_customer_link(4, 3)
    topology.get_as(1).add_prefix(Prefix.from_string("203.0.113.0/24"))
    # Attacker AS2 owns its own space too (for non-hijack variants).
    topology.get_as(2).add_prefix(Prefix.from_string("192.0.2.0/24"))
    return topology


def build_figure8b_topology() -> Topology:
    """The local-pref traffic-steering scenario of Figure 8(b).

    AS5 originates p and is a customer of AS2 (attacker).  AS1 is both
    the attackee and the community target: it offers a "backup"
    local-pref community and connects to AS2 over two paths — directly
    (router R2, modelled as the direct AS1–AS2 link) and via AS4
    (router R1).  By tagging p with AS1's backup community on the
    direct link, AS2 forces AS1 to carry the traffic via AS4.
    """
    topology = Topology()
    backup_services = CommunityServiceCatalog(
        1,
        [
            ServiceDefinition(
                Community(1, 70), LocalPrefAction(70), "customer backup local-pref", customers_only=True
            )
        ],
    )
    topology.add_as(_transit_as(1, backup_services))
    topology.add_as(_transit_as(2))
    topology.add_as(_transit_as(4))
    topology.add_as(_stub_as(5))
    topology.add_customer_link(2, 5)
    topology.add_customer_link(1, 2)
    topology.add_customer_link(1, 4)
    topology.add_customer_link(4, 2)
    topology.get_as(5).add_prefix(Prefix.from_string("198.18.0.0/24"))
    return topology


#: Members of the Figure 9 IXP: the three the scenario names and three more.
FIGURE9_MEMBER_COUNT = 6


def build_figure9_ixp() -> tuple[Topology, Ixp]:
    """The route-manipulation-at-an-IXP scenario of Figure 9.

    AS1 (attackee-2 / origin), AS2 (attacker) and AS4 (attackee-1) are
    members of an IXP whose route server honours selective-announce and
    suppress communities, evaluating suppression first (the route-server
    default the paper verified).
    """
    topology = Topology()
    rs_asn = 9000
    members = [1, 2, 4] + [10 + i for i in range(FIGURE9_MEMBER_COUNT - 3)]
    topology.add_as(AutonomousSystem(asn=rs_asn, role=AsRole.IXP, name="IXP-RS"))
    for member in members:
        topology.add_as(_transit_as(member))
    ixp = Ixp(
        name="IXP",
        route_server_asn=rs_asn,
        members=set(members),
        route_server_config=RouteServerConfig(ixp_asn=rs_asn),
    )
    topology.add_ixp(ixp)
    topology.get_as(1).add_prefix(Prefix.from_string("203.0.113.0/24"))
    topology.get_as(2).add_prefix(Prefix.from_string("192.0.2.0/24"))
    return topology, ixp

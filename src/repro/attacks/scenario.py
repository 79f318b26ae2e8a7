"""The paper's four lab scenarios: each figure's topology, roles and victim prefix.

Section 3.3 fixes the terminology used throughout: the **attacker**
manipulates the community attribute (or announces a hijack), the
**community target** is the AS whose community service is being abused,
and the **attackee** is the AS whose prefix or traffic is affected.
Each of Figures 2, 7, 8(b) and 9 is declared once here: its
``build_figure*`` builder, its ``FIGURE*_ROLES`` and its
``FIGURE*_VICTIM`` prefix (Figure 2 adds the observer, Figure 9 the
victim member).  Each attack module's factory runs its attack on that
declaration, so the lab experiments, Table 3, the examples and the
tests all speak about the same picture as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _transit_as(asn: int, services: CommunityServiceCatalog | None = None) -> AutonomousSystem:
    return AutonomousSystem(
        asn=asn,
        role=AsRole.TRANSIT,
        propagation_policy=ForwardAllPolicy(),
        services=services,
    )


def _stub_as(asn: int) -> AutonomousSystem:
    return AutonomousSystem(asn=asn, role=AsRole.STUB, propagation_policy=ForwardAllPolicy())


#: Figure 2: AS2 tags AS1's prefix with AS3's prepend community; AS6 observes.
FIGURE2_ROLES = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
FIGURE2_VICTIM = Prefix.from_string("198.51.100.0/24")
FIGURE2_OBSERVER_ASN = 6


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
    topology.get_as(1).add_prefix(FIGURE2_VICTIM)
    return topology


#: Figure 7: AS2 tags AS1's prefix with AS3's blackhole community.
FIGURE7_ROLES = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
FIGURE7_VICTIM = Prefix.from_string("203.0.113.0/24")


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
    topology.get_as(1).add_prefix(FIGURE7_VICTIM)
    # Attacker AS2 owns its own space too (for non-hijack variants).
    topology.get_as(2).add_prefix(Prefix.from_string("192.0.2.0/24"))
    return topology


#: Figure 8(b): AS2 tags AS5's prefix with AS1's backup local-pref community.
FIGURE8B_ROLES = ScenarioRoles(attacker_asn=2, attackee_asn=5, community_target_asn=1)
FIGURE8B_VICTIM = Prefix.from_string("198.18.0.0/24")


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
    topology.get_as(5).add_prefix(FIGURE8B_VICTIM)
    return topology


#: Members of the Figure 9 IXP: the three the scenario names and three more.
FIGURE9_MEMBER_COUNT = 6
FIGURE9_ROUTE_SERVER_ASN = 9000
#: Figure 9: AS2 suppresses AS1's prefix towards AS4 at the IXP's route server.
#: The prefix is Figure 7's: both figures call it p.
FIGURE9_ROLES = ScenarioRoles(
    attacker_asn=2, attackee_asn=1, community_target_asn=FIGURE9_ROUTE_SERVER_ASN
)
FIGURE9_VICTIM = FIGURE7_VICTIM
FIGURE9_VICTIM_MEMBER_ASN = 4


def build_figure9_ixp() -> tuple[Topology, Ixp]:
    """The route-manipulation-at-an-IXP scenario of Figure 9.

    AS1 (attackee-2 / origin), AS2 (attacker) and AS4 (attackee-1) are
    members of an IXP whose route server honours selective-announce and
    suppress communities, evaluating suppression first (the route-server
    default the paper verified).
    """
    topology = Topology()
    rs_asn = FIGURE9_ROUTE_SERVER_ASN
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
    topology.get_as(1).add_prefix(FIGURE9_VICTIM)
    topology.get_as(2).add_prefix(Prefix.from_string("192.0.2.0/24"))
    return topology, ixp

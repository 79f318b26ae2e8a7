"""Route manipulation at an IXP route server (Section 5.3, Section 7.5).

The attackee announces its prefix to the route server with the
"announce to AS4" community.  The attacker announces the same prefix
(hijack) — or its own announcement of it — carrying *both* the
"announce to AS4" and the "do NOT announce to AS4" communities.  The
conflict is resolved by the route server's documented evaluation order;
at the IXP the paper tested, suppression wins, so AS4 ends up with no
route to the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.scenario import AttackOutcome, ScenarioRoles
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.route import Announcement
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, register
from repro.routing.route_server import RouteServer
from repro.topology.ixp import Ixp
from repro.topology.topology import Topology


@dataclass
class ManipulationResult(AttackOutcome):
    """Outcome of the route-manipulation attack."""

    attackee_route_before: bool = False
    attackee_route_after: bool = False

    @property
    def route_withdrawn(self) -> bool:
        """True if the victim member lost the route because of the attack."""
        return self.attackee_route_before and not self.attackee_route_after


class RouteManipulationAttack:
    """Suppress the redistribution of a member's prefix at an IXP route server."""

    def __init__(
        self,
        topology: Topology,
        ixp: Ixp,
        roles: ScenarioRoles,
        victim_prefix: Prefix,
        #: The member the attackee wants to reach (attackee-1 in Figure 9).
        victim_member_asn: int,
    ):
        self.topology = topology
        self.ixp = ixp
        self.roles = roles
        self.victim_prefix = victim_prefix
        self.victim_member_asn = victim_member_asn
        self.config = ixp.route_server_config

    def _member_announcement(
        self, member_asn: int, communities: CommunitySet
    ) -> Announcement:
        attributes = PathAttributes(as_path=ASPath.of(member_asn), communities=communities)
        return Announcement(
            prefix=self.victim_prefix,
            attributes=attributes,
            sender_asn=member_asn,
            origin_asn=member_asn,
        )

    def run(self) -> ManipulationResult:
        """Execute the attack against a fresh route-server instance."""
        roles = self.roles
        server = RouteServer(self.ixp)

        # Step 1: the attackee selectively announces to the victim member.
        announce_community = self.config.announce_to(self.victim_member_asn)
        server.receive(
            self._member_announcement(roles.attackee_asn, CommunitySet.of(announce_community))
        )
        route_before = server.member_has_route(self.victim_member_asn, self.victim_prefix)

        # Step 2: the attacker (hijacking the prefix at the IXP) sends the
        # conflicting combination: announce-to + do-not-announce-to.
        suppress_community = self.config.suppress_to(self.victim_member_asn)
        server.receive(
            self._member_announcement(
                roles.attacker_asn, CommunitySet.of(announce_community, suppress_community)
            )
        )
        route_after = server.member_has_route(self.victim_member_asn, self.victim_prefix)

        # The attack succeeds when the conflicting communities remove the
        # victim's visibility of the prefix (suppression evaluated first).
        succeeded = route_before and not route_after
        description = (
            f"route manipulation at {self.ixp.name}: AS{roles.attacker_asn} suppresses "
            f"{self.victim_prefix} towards AS{self.victim_member_asn}"
        )
        return ManipulationResult(
            succeeded=succeeded,
            roles=roles,
            description=description,
            details={
                "announce_community": str(announce_community),
                "suppress_community": str(suppress_community),
                "suppress_before_redistribute": self.config.suppress_before_redistribute,
            },
            attackee_route_before=route_before,
            attackee_route_after=route_after,
        )


@register("route-manipulation")
class RouteManipulationExperiment(Experiment):
    """The Figure 9 route-server suppression attack at an IXP."""

    description = "suppress a member's route at an IXP route server (Figure 9)"
    paper_section = "Section 5.3"
    default_params = {"member_count": 6, "victim_prefix": "203.0.113.0/24"}

    def build(self, ctx: ExperimentContext) -> None:
        from repro.attacks.scenario import build_figure9_ixp

        self.reject_topology_spec(ctx)
        # The scenario's IXP has three fixed members (AS1, AS2 and AS4).
        topology, ixp = build_figure9_ixp(member_count=self.int_param("member_count", 6, minimum=3))
        ctx.topology = topology
        ctx.scratch["ixp"] = ixp

    def execute(self, ctx: ExperimentContext) -> dict:
        from repro.attacks.scenario import ScenarioRoles

        ixp = ctx.scratch["ixp"]
        roles = ScenarioRoles(
            attacker_asn=2, attackee_asn=1, community_target_asn=ixp.route_server_asn
        )
        attack = RouteManipulationAttack(
            ctx.require_topology(),
            ixp,
            roles,
            victim_prefix=self.prefix_param("victim_prefix"),
            victim_member_asn=4,
        )
        outcome = attack.run()
        ctx.scratch["outcome"] = outcome
        return {
            "succeeded": outcome.succeeded,
            "description": outcome.description,
            "route_before": outcome.attackee_route_before,
            "route_after": outcome.attackee_route_after,
            "route_withdrawn": outcome.route_withdrawn,
            "details": outcome.details,
        }

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return bool(metrics["succeeded"])

    def render_text(self, result: ExperimentResult) -> str:
        metrics = result.metrics
        return "\n".join(
            [
                metrics["description"],
                f"  victim saw the route before: {metrics['route_before']}",
                f"  victim sees the route after: {metrics['route_after']}",
                f"  attack succeeded:            {metrics['succeeded']}",
            ]
        )

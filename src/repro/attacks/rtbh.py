"""Remotely triggered blackholing attacks (Section 5.1, Section 7.3).

Two variants, mirroring Figure 7:

* **Without hijack** (Figure 7a): the attacker is on the announcement
  path of the victim prefix and adds the community target's blackhole
  community when passing the route on.  Because RTBH implementations
  typically prefer blackhole-tagged routes before normal best-path
  selection, the tagged (longer) path wins at the target and traffic to
  the victim is discarded there.
* **With hijack** (Figure 7b): the attacker originates the victim's
  prefix (or a more specific /32 of it) tagged with the blackhole
  community, so the target — and everyone whose traffic crosses it —
  drops traffic to the victim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.scenario import AttackOutcome, ScenarioRoles
from repro.bgp.community import BLACKHOLE, Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.exceptions import AttackError
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, register
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology


@dataclass
class RtbhResult(AttackOutcome):
    """Outcome of an RTBH attack: where traffic is dropped and who lost reachability."""

    blackholed_at: list[int] = field(default_factory=list)
    unreachable_from: list[int] = field(default_factory=list)
    reachable_before: list[int] = field(default_factory=list)
    attack_prefix: Prefix | None = None
    target_next_hop: str = ""


class RtbhAttack:
    """Drives a remotely triggered blackholing attack over a topology."""

    def __init__(
        self,
        topology: Topology,
        roles: ScenarioRoles,
        victim_prefix: Prefix,
        use_hijack: bool,
        blackhole_community: Community | None = None,
    ):
        self.topology = topology
        self.roles = roles
        self.victim_prefix = victim_prefix
        self.use_hijack = use_hijack
        target = topology.get_as(roles.community_target_asn)
        if blackhole_community is not None:
            self.blackhole_community = blackhole_community
        elif target.services is not None and target.services.blackhole_communities():
            self.blackhole_community = target.services.blackhole_communities()[0]
        else:
            raise AttackError(
                f"community target AS{roles.community_target_asn} offers no blackhole community"
            )

    def _attack_prefix(self) -> Prefix:
        """The prefix announced in the hijack variant: a /32 inside the victim prefix."""
        if self.victim_prefix.is_ipv4 and self.victim_prefix.length < 32:
            return self.victim_prefix.subprefix(32, 1)
        return self.victim_prefix

    def _hijack_overlap(self, attack_prefix: Prefix) -> dict:
        """Who the hijack actually collides with, via the topology's origin table.

        ``covering`` yields the origins of the registered allocations the
        attack prefix sits inside (the most specific one is the
        legitimate origin the IRR would name); ``covered`` yields those
        of any more-specific registrations the announcement would mask.
        """
        table = self.topology.origin_table()
        covering = table.covering(attack_prefix)
        overlapping = sorted(set(covering) | set(table.covered(attack_prefix)))
        legitimate = covering[-1] if covering else None
        return {
            "legitimate_origin": legitimate,
            "overlapping_origins": overlapping,
            "is_hijack_of_registered_space": bool(
                self.use_hijack
                and overlapping
                and overlapping != [self.roles.attacker_asn]
            ),
        }

    def _vantage_points(self, explicit: list[int] | None) -> list[int]:
        if explicit is not None:
            return explicit
        return [
            asys.asn
            for asys in self.topology.stub_ases()
            if asys.asn not in (self.roles.attacker_asn, self.roles.attackee_asn)
        ]

    def run(self, vantage_points: list[int] | None = None) -> RtbhResult:
        """Execute the attack and return the measured outcome."""
        roles = self.roles
        vantage_points = self._vantage_points(vantage_points)
        victim_address = self.victim_prefix.host()

        # Baseline: the attackee announces its prefix, nobody attacks.
        baseline = BgpSimulator(self.topology)
        baseline.announce(roles.attackee_asn, self.victim_prefix)
        baseline_plane = DataPlane(baseline)
        family = self.victim_prefix.family
        reachable_before = [
            asn
            for asn in vantage_points
            if baseline_plane.ping(asn, victim_address, family).reachable
        ]

        # The attack run.
        attacked = BgpSimulator(self.topology)
        communities = CommunitySet.of(self.blackhole_community, BLACKHOLE)
        if self.use_hijack:
            # Victim announcement and hijack converge in one batched pass.
            attack_prefix = self._attack_prefix()
            attacked.announce_many(
                [
                    (roles.attackee_asn, self.victim_prefix),
                    (roles.attacker_asn, attack_prefix, communities),
                ]
            )
        else:
            # The attacker is on the path and adds the community when passing
            # the victim's route on to every neighbor.
            attack_prefix = self.victim_prefix
            attacker_router = attacked.router(roles.attacker_asn)
            for neighbor in attacker_router.neighbors():
                attacker_router.export_community_additions[neighbor] = communities
            attacked.announce(roles.attackee_asn, self.victim_prefix)
        attacked_plane = DataPlane(attacked)

        blackholed_at = attacked.ases_with_blackholed_route(attack_prefix)
        if attack_prefix.contains_address(victim_address):
            probe_address = victim_address
        else:
            probe_address = attack_prefix.host(0)
        unreachable_from = [
            asn
            for asn in reachable_before
            if not attacked_plane.ping(asn, probe_address, family).reachable
        ]
        target_drops = roles.community_target_asn in blackholed_at
        succeeded = target_drops or bool(unreachable_from)
        target_next_hop = self._looking_glass_next_hop(attacked, attack_prefix)
        description = (
            f"RTBH attack by AS{roles.attacker_asn} against {self.victim_prefix} "
            f"using AS{roles.community_target_asn}'s community {self.blackhole_community}"
            f" ({'hijack' if self.use_hijack else 'no hijack'})"
        )
        return RtbhResult(
            succeeded=succeeded,
            roles=roles,
            description=description,
            details={
                "blackhole_community": str(self.blackhole_community),
                "attack_prefix": str(attack_prefix),
                "hijack": self.use_hijack,
                "target_drops_traffic": target_drops,
                "vantage_points": len(vantage_points),
                **self._hijack_overlap(attack_prefix),
            },
            blackholed_at=blackholed_at,
            unreachable_from=unreachable_from,
            reachable_before=reachable_before,
            attack_prefix=attack_prefix,
            target_next_hop=target_next_hop,
        )

    def _looking_glass_next_hop(self, simulator: BgpSimulator, prefix: Prefix) -> str:
        """What the target's looking glass reports for the attack prefix."""
        best = simulator.best_route(self.roles.community_target_asn, prefix)
        if best is None:
            return "no route"
        if best.blackholed:
            return "null0 (discard)"
        return f"via AS{best.learned_from}"


@register("rtbh")
class RtbhLabExperiment(Experiment):
    """The Figure 7 remotely-triggered-blackholing scenario (both variants)."""

    description = "RTBH on the Figure 7 topology, with or without hijack"
    paper_section = "Section 5.1"
    default_params = {"hijack": False, "victim_prefix": "203.0.113.0/24"}

    def build(self, ctx: ExperimentContext) -> None:
        from repro.attacks.scenario import build_figure7_topology

        self.reject_topology_spec(ctx)
        ctx.topology = build_figure7_topology()

    def execute(self, ctx: ExperimentContext) -> dict:
        from repro.attacks.scenario import ScenarioRoles

        roles = ScenarioRoles(attacker_asn=2, attackee_asn=1, community_target_asn=3)
        attack = RtbhAttack(
            ctx.require_topology(),
            roles,
            victim_prefix=self.prefix_param("victim_prefix"),
            use_hijack=self.bool_param("hijack"),
        )
        outcome = attack.run()
        ctx.scratch["outcome"] = outcome
        return {
            "succeeded": outcome.succeeded,
            "description": outcome.description,
            "attack_prefix": str(outcome.attack_prefix),
            "target_next_hop": outcome.target_next_hop,
            "blackholed_at": sorted(outcome.blackholed_at),
            "unreachable_from": sorted(outcome.unreachable_from),
            "reachable_before": sorted(outcome.reachable_before),
            "details": outcome.details,
        }

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return bool(metrics["succeeded"])

    def render_text(self, result: ExperimentResult) -> str:
        metrics = result.metrics
        return "\n".join(
            [
                metrics["description"],
                f"  attack prefix:          {metrics['attack_prefix']}",
                f"  target's looking glass: {metrics['target_next_hop']}",
                f"  ASes dropping traffic:  {metrics['blackholed_at']}",
                f"  vantage points cut off: {metrics['unreachable_from']}",
                f"  attack succeeded:       {metrics['succeeded']}",
            ]
        )

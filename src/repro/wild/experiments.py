"""The Section 7.3 remotely-triggered-blackholing experiment over a generated Internet.

The experiment follows the paper's protocol step by step:

1. announce a /24 sub-prefix of the platform's allocation (the
   non-hijack variant), or a /24 from address space we have permission
   to hijack (after registering it in the IRR, for the hijack variant),
   and pick from the converged routes a provider that offers RTBH and
   sits at least two AS hops from the injection point;
2. re-announce the /24 tagged with the target's blackhole community;
3. validate on the control plane (target's looking glass shows the
   null next hop) and on the data plane (Atlas probes that could reach
   the prefix before can no longer).
"""

from __future__ import annotations

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
from repro.exceptions import AttackError
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, Param, register
from repro.policy.filters import IrrDatabase
from repro.probing.atlas import AtlasPlatform
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology
from repro.wild.peering import InjectionPlatform


#: The address block the research network has permission to hijack; the
#: hijack variant announces its first /24 after registering it in the IRR.
HIJACK_SPACE = Prefix.from_string("203.0.112.0/20")


class RtbhWildExperiment:
    """Drive the RTBH experiment from an injection platform over a generated topology."""

    def __init__(
        self,
        topology: Topology,
        platform: InjectionPlatform,
        atlas: AtlasPlatform,
        min_hops_to_target: int = 2,
    ):
        self.topology = topology
        self.platform = platform
        self.atlas = atlas
        self.irr = IrrDatabase()
        self.min_hops_to_target = min_hops_to_target

    # ------------------------------------------------------------ target choice
    def find_target(self, simulator: BgpSimulator, prefix: Prefix) -> tuple[int, int]:
        """Find an RTBH-offering provider at least ``min_hops_to_target`` hops away.

        The distance is measured on the converged control plane: the
        length of the provider's best route for the platform's
        ``prefix`` in ``simulator``.  Returns (target ASN, hop
        distance).  Raises :class:`AttackError` when no such provider
        exists (e.g. none holds a route to the prefix).
        """
        candidates: list[tuple[int, int]] = []
        for asys in self.topology.transit_ases():
            if asys.services is None or not asys.services.blackhole_communities():
                continue
            best = simulator.best_route(asys.asn, prefix)
            if best is None:
                continue
            hops = len(best.attributes.as_path.unique_asns())
            if hops >= self.min_hops_to_target:
                candidates.append((asys.asn, hops))
        if not candidates:
            raise AttackError("no RTBH-offering provider reachable at the required distance")
        # Prefer the closest qualifying target (the paper picks one two hops away).
        candidates.sort(key=lambda item: (item[1], item[0]))
        return candidates[0]

    # ---------------------------------------------------------------- protocol
    def run(self, use_hijack: bool = False, hijack_space: Prefix | None = None) -> dict:
        """Run the experiment; return the JSON-safe record ``rtbh-wild`` stores.

        ``use_hijack`` selects the Figure 7(b)-style variant, which
        announces from ``hijack_space``.
        """
        if use_hijack:
            if hijack_space is None:
                raise AttackError("the hijack variant needs the permissioned hijack space")
            attack_prefix = hijack_space.subprefix(24, 0) if hijack_space.length < 24 else hijack_space
            # The research network's provider validates against the IRR, so the
            # experiment first registers a route object for the hijacked space.
            self.irr.register(attack_prefix, self.platform.asn)
        else:
            attack_prefix = self.platform.allocated_prefixes[0].subprefix(24, 1)

        # Step 1: announce without the blackhole community, choose the
        # target from the converged routes, and measure the baseline.
        simulator = BgpSimulator(self.topology)
        self.platform.announce(simulator, attack_prefix, hijack=use_hijack)
        target_asn, hops = self.find_target(simulator, attack_prefix)
        target_services = self.topology.get_as(target_asn).services
        assert target_services is not None  # guaranteed by find_target
        community = target_services.blackhole_communities()[0]
        dataplane = DataPlane(simulator)
        before = self.atlas.measure(dataplane, attack_prefix)

        # Step 2: re-announce with the blackhole community attached; patch
        # only the FIB entries the re-announcement actually changed.
        communities = CommunitySet.of(community, BLACKHOLE)
        report = self.platform.announce(
            simulator, attack_prefix, communities=communities, hijack=use_hijack
        )
        dataplane.rebuild(report)
        after = self.atlas.measure(dataplane, attack_prefix)
        lost = before - after

        # Step 3: what the target's looking glass shows for the prefix.
        best = simulator.best_route(target_asn, attack_prefix)
        if best is None:
            next_hop = "no route"
        else:
            next_hop = "null0" if best.blackholed else f"AS{best.learned_from}"
        return {
            "succeeded": next_hop == "null0" or bool(lost),
            "platform": self.platform.name,
            "target_asn": target_asn,
            "target_hops_from_injection": hops,
            "attack_prefix": str(attack_prefix),
            "hijack": use_hijack,
            "community": str(community),
            "accepted_at_target": best is not None,
            "target_next_hop": next_hop,
            "probes_reachable_before": len(before),
            "probes_reachable_after": len(after),
            "probes_lost": len(lost),
            "irr_updated": use_hijack,
        }


@register("rtbh-wild")
class WildRtbhExperiment(Experiment):
    """The Section 7.3 RTBH protocol over a generated Internet.

    Builds the topology from the spec, attaches the PEERING-like
    injection platform and the Atlas probes, then drives
    :class:`RtbhWildExperiment` end to end.  The hijack variant
    additionally carves the permissioned hijack space out of the
    research network's allocation and registers it in the IRR.
    """

    description = "RTBH from an injection platform over a generated Internet"
    paper_section = "Section 7.3"
    default_topology = {"tier1_count": 3, "transit_count": 25, "stub_count": 90}
    default_platforms = ("peering", "atlas")
    parameters = (
        Param("probes", 100, "int", minimum=1),
        Param("hijack", False, "bool"),
        Param("min_hops_to_target", 2, "int"),
    )

    @classmethod
    def default_spec(cls, seed=None, scale=None, **params):
        """The hijack variant runs from the research network (the only
        platform whose AUP permits hijacking), and the spec records it."""
        spec = super().default_spec(seed=seed, scale=scale, **params)
        if spec.params.get("hijack"):
            spec = spec.replace(platforms=("research", "atlas"))
        return spec

    def attach_platform(self, ctx: ExperimentContext, platform_name: str) -> None:
        if platform_name == "research" and self.bool_param("hijack"):
            # Attach with the permissioned hijack space the paper had
            # explicit permission to announce (registered in the IRR later).
            from repro.wild.peering import attach_research_network

            ctx.platforms[platform_name] = attach_research_network(
                ctx.require_topology(), permissioned_hijack_space=HIJACK_SPACE
            )
        else:
            super().attach_platform(ctx, platform_name)

    def execute(self, ctx: ExperimentContext) -> dict:
        use_hijack = self.bool_param("hijack")
        experiment = RtbhWildExperiment(
            ctx.require_topology(),
            ctx.platform("research" if use_hijack else "peering"),
            ctx.platform("atlas"),
            min_hops_to_target=self.int_param("min_hops_to_target"),
        )
        return experiment.run(use_hijack=use_hijack, hijack_space=HIJACK_SPACE)

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        return bool(metrics["succeeded"])

    def render_text(self, result: ExperimentResult) -> str:
        metrics = result.metrics
        return "\n".join(
            [
                f"RTBH in the wild from {metrics['platform']}"
                f" ({'hijack' if metrics['hijack'] else 'no hijack'})",
                f"  community target:       AS{metrics['target_asn']}"
                f" ({metrics['target_hops_from_injection']} AS hops away)",
                f"  blackhole community:    {metrics['community']}",
                f"  announced prefix:       {metrics['attack_prefix']}",
                f"  target looking glass:   {metrics['target_next_hop']}",
                f"  probes reaching before: {metrics['probes_reachable_before']}",
                f"  probes reaching after:  {metrics['probes_reachable_after']}",
                f"  attack succeeded:       {metrics['succeeded']}",
            ]
        )

"""Propagation checking with a benign community (Section 7.2).

Before running any attack, the paper announces a prefix tagged with a
*benign* community — the injection point's own ASN with an unused value
— and checks at the route collectors which transit providers forward the
prefix with the community intact.  The same procedure runs here over the
simulated Internet, for both injection platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import Community, CommunitySet
from repro.bgp.prefix import Prefix
from repro.collectors.platform import CollectorDeployment
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, Param, register
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology
from repro.wild.peering import InjectionPlatform

#: A low-order community value not observed in the wild (the paper uses one too).
BENIGN_COMMUNITY_VALUE = 4242


@dataclass
class PropagationCheckResult:
    """Which ASes forwarded the benign community, as seen at the collectors."""

    platform_name: str
    benign_community: Community
    test_prefix: Prefix
    #: Transit ASes seen forwarding the prefix *with* the community intact.
    forwarding_transit_ases: set[int] = field(default_factory=set)
    #: All transit/origin ASes seen on any path towards the test prefix.
    ases_on_paths: set[int] = field(default_factory=set)
    #: Collector peers at which the community was observed.
    observing_peers: set[int] = field(default_factory=set)

    @property
    def forwarding_count(self) -> int:
        """Number of transit providers forwarding the community."""
        return len(self.forwarding_transit_ases)

    @property
    def coverage_fraction(self) -> float:
        """Fraction of on-path ASes seen forwarding the community."""
        if not self.ases_on_paths:
            return 0.0
        return len(self.forwarding_transit_ases) / len(self.ases_on_paths)


def run_propagation_check(
    topology: Topology,
    platform: InjectionPlatform,
    deployment: CollectorDeployment,
    community_value: int,
) -> PropagationCheckResult:
    """Announce a benign-community-tagged prefix from ``platform`` and measure propagation."""
    asn_part = platform.asn if platform.asn <= 0xFFFF else 0
    benign = Community(asn_part, community_value)
    test_prefix = platform.allocated_prefixes[0].subprefix(24, 0)

    simulator = BgpSimulator(topology)
    platform.announce(simulator, test_prefix, communities=CommunitySet.of(benign))
    archive = deployment.collect_from_simulator(simulator)

    result = PropagationCheckResult(
        platform_name=platform.name, benign_community=benign, test_prefix=test_prefix
    )
    for observation in archive:
        if observation.prefix != test_prefix:
            continue
        path = observation.path_without_prepending
        # ASes on the announcement path excluding the injection AS itself.
        result.ases_on_paths.update(a for a in path if a != platform.asn)
        if benign in observation.communities:
            result.observing_peers.add(observation.peer_asn)
            # Every AS between the injection point and the collector peer
            # (inclusive of the peer) relayed the community.
            if platform.asn in path:
                injection_index = path.index(platform.asn)
                for index in range(0, injection_index):
                    result.forwarding_transit_ases.add(path[index])
    return result


@register("propagation-check")
class PropagationCheckExperiment(Experiment):
    """The Section 7.2 propagation check, run for both injection platforms."""

    description = "benign-community propagation check from both injection platforms"
    paper_section = "Section 7.2"
    default_topology = {"tier1_count": 3, "transit_count": 30, "stub_count": 120}
    default_platforms = ("peering", "research", "collectors")
    parameters = (Param("community_value", BENIGN_COMMUNITY_VALUE, "int", maximum=0xFFFF),)

    def execute(self, ctx: ExperimentContext) -> dict:
        deployment = ctx.platform("collectors")
        community_value = self.int_param("community_value")
        checks: list[dict] = []
        # The research network first, then PEERING — the order the paper
        # (and the legacy CLI subcommand) reports them in.
        for platform in (ctx.platform("research"), ctx.platform("peering")):
            check = run_propagation_check(
                ctx.require_topology(),
                platform,
                deployment,
                community_value=community_value,
            )
            ctx.scratch[platform.name] = check
            checks.append(
                {
                    "platform": check.platform_name,
                    "benign_community": str(check.benign_community),
                    "test_prefix": str(check.test_prefix),
                    "forwarding_count": check.forwarding_count,
                    "ases_on_paths": len(check.ases_on_paths),
                    "observing_peers": len(check.observing_peers),
                    "coverage_fraction": check.coverage_fraction,
                }
            )
        return {"checks": checks}

    def validate(self, ctx: ExperimentContext, metrics: dict) -> bool:
        # The announced prefix must at least have reached the collectors
        # from every platform; forwarding zero communities is a finding,
        # an empty path set is a broken run.
        return all(check["ases_on_paths"] > 0 for check in metrics["checks"])

    def render_text(self, result: ExperimentResult) -> str:
        return "\n".join(
            f"{check['platform']}: benign community {check['benign_community']} on "
            f"{check['test_prefix']} forwarded by {check['forwarding_count']} transit "
            f"providers (of {check['ases_on_paths']} on-path ASes)"
            for check in result.metrics["checks"]
        )

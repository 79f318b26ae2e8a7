"""Propagation checking with a benign community (Section 7.2).

Before running any attack, the paper announces a prefix tagged with a
*benign* community — the injection point's own ASN with an unused value
— and checks at the route collectors which transit providers forward the
prefix with the community intact.  The same procedure runs here over the
simulated Internet, for both injection platforms.
"""

from __future__ import annotations

from repro.bgp.community import Community, CommunitySet
from repro.collectors.platform import CollectorDeployment
from repro.experiments import Experiment, ExperimentContext, ExperimentResult, Param, register
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology
from repro.wild.peering import InjectionPlatform

#: A low-order community value not observed in the wild (the paper uses one too).
BENIGN_COMMUNITY_VALUE = 4242


def run_propagation_check(
    topology: Topology,
    platform: InjectionPlatform,
    deployment: CollectorDeployment,
    community_value: int,
) -> dict:
    """Announce a benign-community-tagged prefix from ``platform`` and measure propagation.

    Returns the JSON-safe record ``propagation-check`` stores for the platform.
    """
    asn_part = platform.asn if platform.asn <= 0xFFFF else 0
    benign = Community(asn_part, community_value)
    test_prefix = platform.allocated_prefixes[0].subprefix(24, 0)

    simulator = BgpSimulator(topology)
    platform.announce(simulator, test_prefix, communities=CommunitySet.of(benign))
    archive = deployment.collect_from_simulator(simulator)

    # Transit ASes seen forwarding the prefix *with* the community intact,
    # every AS on any path towards it, and the collector peers that saw it.
    forwarding: set[int] = set()
    on_paths: set[int] = set()
    observing_peers: set[int] = set()
    for observation in archive:
        if observation.prefix != test_prefix:
            continue
        path = observation.path_without_prepending
        # ASes on the announcement path excluding the injection AS itself.
        on_paths.update(a for a in path if a != platform.asn)
        if benign in observation.communities:
            observing_peers.add(observation.peer_asn)
            # Every AS between the injection point and the collector peer
            # (inclusive of the peer) relayed the community.
            if platform.asn in path:
                forwarding.update(path[: path.index(platform.asn)])
    return {
        "platform": platform.name,
        "benign_community": str(benign),
        "test_prefix": str(test_prefix),
        "forwarding_count": len(forwarding),
        "ases_on_paths": len(on_paths),
        "observing_peers": len(observing_peers),
        "coverage_fraction": len(forwarding) / len(on_paths) if on_paths else 0.0,
    }


@register("propagation-check")
class PropagationCheckExperiment(Experiment):
    """The Section 7.2 propagation check, run for both injection platforms."""

    description = "benign-community propagation check from both injection platforms"
    paper_section = "Section 7.2"
    default_topology = {"tier1_count": 3, "transit_count": 30, "stub_count": 120}
    default_platforms = ("peering", "research", "collectors")
    parameters = (Param("community_value", BENIGN_COMMUNITY_VALUE, "int", maximum=0xFFFF),)

    def execute(self, ctx: ExperimentContext) -> dict:
        # The research network first, then PEERING: the order the paper
        # reports them in.
        return {
            "checks": [
                run_propagation_check(
                    ctx.require_topology(),
                    ctx.platform(name),
                    ctx.platform("collectors"),
                    community_value=self.int_param("community_value"),
                )
                for name in ("research", "peering")
            ]
        }

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

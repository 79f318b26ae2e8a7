"""Community usage statistics: Table 1, Figure 4(a), Figure 4(b).

All functions operate on an :class:`~repro.collectors.observation.ObservationArchive`
(Table 1 together with the topology it was observed over) and return
plain data structures the report builder and the benchmarks render.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.community import Community
from repro.collectors.observation import ArchiveTally, ObservationArchive
from repro.topology.asys import AsRole
from repro.topology.graph import classify_roles
from repro.topology.topology import Topology
from repro.utils.stats import Ecdf, fraction


@dataclass(frozen=True)
class PlatformOverview:
    """One row of Table 1."""

    platform: str
    messages: int
    ipv4_prefixes: int
    ipv6_prefixes: int
    collectors: int
    peer_ases: int
    communities: int
    ases_observed: int
    origin_ases: int
    transit_ases: int
    stub_ases: int


def _overview_for(name: str, tally: ArchiveTally, roles: dict[int, AsRole]) -> PlatformOverview:
    ipv4 = sum(1 for p in tally.prefixes if p.is_ipv4)
    path_asns: set[int] = set()
    origin_asns: set[int] = set()
    communities: set[Community] = set()
    for route in tally.routes:
        path = route.path
        path_asns.update(path)
        if path:
            origin_asns.add(path[-1])
        communities.update(community for community, _ in route.taggers)
    transit_asns = {asn for asn in path_asns if roles.get(asn) in (AsRole.TRANSIT, AsRole.TIER1)}
    stub_asns = path_asns - transit_asns
    return PlatformOverview(
        platform=name,
        messages=tally.messages,
        ipv4_prefixes=ipv4,
        ipv6_prefixes=len(tally.prefixes) - ipv4,
        collectors=len(tally.collectors),
        peer_ases=len(tally.peers),
        communities=len(communities),
        ases_observed=len(path_asns),
        origin_ases=len(origin_asns),
        transit_ases=len(transit_asns),
        stub_ases=len(stub_asns),
    )


def dataset_overview(archive: ObservationArchive, topology: Topology) -> list[PlatformOverview]:
    """Compute Table 1: one row per platform plus a Total row; the topology's
    roles tell transit ASes from stubs."""
    roles = classify_roles(topology)
    return [
        _overview_for("Total" if platform is None else platform, tally, roles)
        for platform, tally in archive.tallies().items()
    ]


def updates_with_communities_by_collector(
    archive: ObservationArchive,
) -> dict[str, dict[str, float]]:
    """Compute Figure 4(a): per platform, per collector, the fraction of
    announcements carrying at least one community (withdrawals carry none
    by construction and are not counted)."""
    result: dict[str, dict[str, float]] = {}
    for (platform, collector), (announced, tagged) in archive.tallies()[None].collectors.items():
        if announced:
            result.setdefault(platform, {})[collector] = fraction(tagged, announced)
    return result


def overall_update_community_fraction(archive: ObservationArchive) -> float:
    """Return the overall fraction of announcements with at least one community
    (>75 % in the paper); withdrawals are not announcements and do not count."""
    routes = archive.route_counts()
    tagged = sum(count for route, count in routes.items() if route.taggers)
    return fraction(tagged, sum(routes.values()))


@dataclass(frozen=True)
class PerUpdateDistributions:
    """Figure 4(b): distributions of communities and associated ASes per update."""

    communities_per_update: Ecdf
    asns_per_update: Ecdf

    def fraction_with_more_than(self, communities: int) -> float:
        """Fraction of updates carrying more than ``communities`` communities."""
        return self.communities_per_update.survival(communities)

    def fraction_with_multiple_asns(self) -> float:
        """Fraction of updates whose communities reference more than one AS."""
        return self.asns_per_update.survival(1)


def communities_per_update_ecdf(archive: ObservationArchive) -> PerUpdateDistributions:
    """Compute Figure 4(b) over every announcement in the archive."""
    community_counts: list[int] = []
    asn_counts: list[int] = []
    for route, count in archive.route_counts().items():
        community_counts += [len(route.taggers)] * count
        asn_counts += [len({community.asn for community, _ in route.taggers})] * count
    return PerUpdateDistributions(
        communities_per_update=Ecdf(community_counts),
        asns_per_update=Ecdf(asn_counts),
    )


def unique_community_count(archive: ObservationArchive) -> int:
    """Return the number of distinct communities observed (63K in the paper)."""
    return len(archive.unique_communities())


def community_service_as_count(archive: ObservationArchive) -> int:
    """Return the number of ASes that appear as the ASN part of some community.

    This is the paper's "more than 5K ASes offer community-based
    services" statistic (computed under the ``AS:value`` convention).
    """
    return len(archive.observed_community_asns())

"""Report builder: render every reproduced table and figure as text tables.

The benchmark harness and the CLI both go through this module so the
rows printed next to the paper's tables always come from the same code
path as the unit-tested analysis functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectors.observation import ObservationArchive
from repro.datasets.giotsas import BlackholeCommunityList
from repro.measurement.blackhole import identify_blackhole_communities
from repro.measurement.filtering import infer_filtering
from repro.measurement.propagation import (
    observed_as_summary,
    propagation_distance_ecdf,
    relative_distance_by_path_length,
    top_values,
    transit_forwarders,
)
from repro.measurement.timeseries import growth_table
from repro.measurement.usage import (
    communities_per_update_ecdf,
    dataset_overview,
    overall_update_community_fraction,
    updates_with_communities_by_collector,
)
from repro.topology.topology import Topology
from repro.utils.tables import Table


@dataclass
class MeasurementReport:
    """Computes and renders the full Section 4 report for one archive."""

    archive: ObservationArchive
    topology: Topology
    blackhole_list: BlackholeCommunityList

    # ----------------------------------------------------------------- tables
    def table1(self) -> Table:
        """Table 1: dataset overview per platform."""
        table = Table(
            [
                "Source",
                "Messages",
                "IPv4 pfx",
                "IPv6 pfx",
                "Collectors",
                "AS peers",
                "Communities",
                "ASes",
                "Origin",
                "Transit",
                "Stub",
            ],
            title="Table 1: BGP dataset overview",
        )
        for row in dataset_overview(self.archive, self.topology):
            table.add_row(
                [
                    row.platform,
                    row.messages,
                    row.ipv4_prefixes,
                    row.ipv6_prefixes,
                    row.collectors,
                    row.peer_ases,
                    row.communities,
                    row.ases_observed,
                    row.origin_ases,
                    row.transit_ases,
                    row.stub_ases,
                ]
            )
        return table

    def table2(self) -> Table:
        """Table 2: ASes with observed communities."""
        table = Table(
            ["Source", "Total", "w/o collector peer", "on-path", "off-path", "off-path w/o private"],
            title="Table 2: ASes with observed BGP communities",
        )
        for row in observed_as_summary(self.archive):
            table.add_row(
                [
                    row.platform,
                    row.total,
                    row.without_collector_peer,
                    row.on_path,
                    row.off_path,
                    row.off_path_without_private,
                ]
            )
        return table

    # ---------------------------------------------------------------- figures
    def figure3(self) -> Table:
        """Figure 3: community use over time."""
        table = Table(
            ["Year", "ASes in communities", "Unique communities", "Absolute communities", "Table entries"],
            title="Figure 3: BGP communities use over time",
        )
        for snapshot in growth_table(self.archive):
            table.add_row(
                [
                    str(snapshot.year),
                    snapshot.unique_ases_in_communities,
                    snapshot.unique_communities,
                    snapshot.absolute_communities,
                    snapshot.bgp_table_entries,
                ]
            )
        return table

    def figure4a(self) -> Table:
        """Figure 4(a): fraction of updates with communities per collector."""
        table = Table(
            ["Platform", "Collector", "% updates with communities"],
            title="Figure 4(a): updates with communities by collector",
        )
        per_platform = updates_with_communities_by_collector(self.archive)
        for platform in sorted(per_platform):
            for collector in sorted(per_platform[platform]):
                table.add_row(
                    [platform, collector, round(100 * per_platform[platform][collector], 1)]
                )
        table.add_row(
            ["ALL", "overall", round(100 * overall_update_community_fraction(self.archive), 1)]
        )
        return table

    def figure4b(self) -> Table:
        """Figure 4(b): communities and associated ASes per update."""
        distributions = communities_per_update_ecdf(self.archive)
        table = Table(
            ["Quantity", "Value"],
            title="Figure 4(b): communities per BGP update",
        )
        table.add_row(["fraction of updates with >2 communities", round(distributions.fraction_with_more_than(2), 3)])
        table.add_row(["fraction of updates with >50 communities", round(distributions.fraction_with_more_than(50), 5)])
        table.add_row(["fraction with communities of >1 AS", round(distributions.fraction_with_multiple_asns(), 3)])
        return table

    def figure5a(self) -> Table:
        """Figure 5(a): propagation distance of all vs blackhole communities."""
        distances = propagation_distance_ecdf(self.archive, set(self.blackhole_list.communities()))
        table = Table(
            ["Hop count", "fraction (all)", "fraction (blackhole)"],
            title="Figure 5(a): community propagation distance ECDF",
        )
        for hops in range(0, 12):
            table.add_row(
                [
                    hops,
                    round(distances.all_communities.at(hops), 3),
                    round(distances.blackhole_communities.at(hops), 3),
                ]
            )
        return table

    def figure5b(self) -> Table:
        """Figure 5(b): relative propagation distance by AS-path length."""
        per_length = relative_distance_by_path_length(self.archive)
        table = Table(
            ["AS path length", "samples", "median relative distance", "fraction > 0.5"],
            title="Figure 5(b): relative propagation distance by path length",
        )
        for length, ecdf in per_length.items():
            table.add_row(
                [
                    length,
                    len(ecdf),
                    round(ecdf.quantile(0.5), 3) if len(ecdf) else 0.0,
                    round(ecdf.survival(0.5), 3) if len(ecdf) else 0.0,
                ]
            )
        return table

    def figure5c(self) -> Table:
        """Figure 5(c): top-10 community values, on- vs off-path."""
        ranking = top_values(self.archive, n=10)
        table = Table(
            ["Rank", "off-path value", "off-path share", "on-path value", "on-path share"],
            title="Figure 5(c): top-10 community values",
        )
        for rank in range(10):
            off = ranking.off_path[rank] if rank < len(ranking.off_path) else ("-", 0.0)
            on = ranking.on_path[rank] if rank < len(ranking.on_path) else ("-", 0.0)
            table.add_row([rank + 1, off[0], round(100 * off[1], 2), on[0], round(100 * on[1], 2)])
        return table

    def figure6(self) -> Table:
        """Figure 6: filtering vs forwarding indications."""
        inference = infer_filtering(self.archive)
        table = Table(
            ["Quantity", "Value"],
            title="Figure 6: community forwarding behaviour",
        )
        table.add_row(["AS edges observed", inference.total_edges_observed])
        table.add_row(["forwarding fraction (all edges)", round(inference.forwarding_fraction(), 3)])
        table.add_row(["filtering fraction (all edges)", round(inference.filtering_fraction(), 3)])
        table.add_row(
            ["forwarding fraction (edges with >=100 paths)", round(inference.forwarding_fraction(100), 3)]
        )
        table.add_row(
            ["filtering fraction (edges with >=100 paths)", round(inference.filtering_fraction(100), 3)]
        )
        table.add_row(["scatter points (>=100 paths)", len(inference.scatter_points())])
        return table

    def section43_transit_forwarders(self) -> Table:
        """§4.3: transit ASes that relay foreign communities."""
        summary = transit_forwarders(self.archive)
        table = Table(["Quantity", "Value"], title="Section 4.3: transit community forwarders")
        table.add_row(["transit ASes observed", summary.transit_count])
        table.add_row(["transit ASes forwarding foreign communities", summary.forwarder_count])
        table.add_row(["fraction", round(summary.forwarder_fraction, 3)])
        return table

    def blackhole_summary(self) -> Table:
        """Blackhole community inventory used by Figure 5(a) and Section 7.6."""
        communities = identify_blackhole_communities(self.archive, self.blackhole_list)
        table = Table(["Quantity", "Value"], title="Blackhole communities observed")
        table.add_row(["distinct blackhole communities", len(communities)])
        table.add_row(["verified list size", len(self.blackhole_list.verified())])
        table.add_row(["inferred list size", len(self.blackhole_list.inferred())])
        return table

    # ------------------------------------------------------------------- full
    def full_report(self) -> str:
        """Render every table and figure and return the combined text."""
        sections = [
            self.table1(),
            self.table2(),
            self.figure3(),
            self.figure4a(),
            self.figure4b(),
            self.figure5a(),
            self.figure5b(),
            self.figure5c(),
            self.figure6(),
            self.section43_transit_forwarders(),
            self.blackhole_summary(),
        ]
        return "\n\n".join(table.render() for table in sections)

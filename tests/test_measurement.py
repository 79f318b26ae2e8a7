"""Tests for the measurement pipeline (the paper's Section 4 analyses)."""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.scenario import build_figure2_topology
from repro.bgp.community import BLACKHOLE, Community, CommunitySet, is_private_asn
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive, RouteObservation
from repro.datasets.giotsas import BlackholeCommunityList
from repro.measurement.blackhole import identify_blackhole_communities
from repro.measurement.filtering import EdgeIndications, FilteringInference, infer_filtering
from repro.measurement.propagation import (
    CommunityClassification,
    ObservedAsSummary,
    TopValues,
    TransitForwarderSummary,
    classify_communities,
    observed_as_summary,
    propagation_distance_ecdf,
    relative_distance_by_path_length,
    top_values,
    transit_forwarders,
)
from repro.measurement.report import MeasurementReport
from repro.measurement.timeseries import YearlySnapshot, growth_table, snapshot_from_archive
from repro.measurement.usage import (
    PlatformOverview,
    communities_per_update_ecdf,
    community_service_as_count,
    dataset_overview,
    overall_update_community_fraction,
    unique_community_count,
    updates_with_communities_by_collector,
)
from repro.topology.asys import AsRole
from repro.topology.graph import classify_roles


def observation(
    path: tuple[int, ...],
    communities: tuple[str, ...],
    peer: int | None = None,
    platform: str = "RIS",
    collector: str = "ris-00",
    prefix: str = "203.0.113.0/24",
) -> RouteObservation:
    return RouteObservation(
        platform=platform,
        collector_id=collector,
        peer_asn=peer if peer is not None else path[0],
        prefix=Prefix.from_string(prefix),
        as_path=path,
        communities=CommunitySet.of(*communities),
    )


class TestClassification:
    def test_on_and_off_path(self):
        archive = ObservationArchive([observation((5, 4, 3, 2, 1), ("1:100", "3:200", "99:666"))])
        items = classify_communities(archive)
        by_community = {str(i.community): i for i in items}
        assert by_community["1:100"].on_path
        assert by_community["1:100"].hops_travelled == 5  # origin + edge to the collector
        assert by_community["3:200"].hops_travelled == 3
        assert not by_community["99:666"].on_path
        assert by_community["99:666"].hops_travelled is None

    def test_conservative_vs_optimistic_attribution(self):
        # AS3 appears twice (not prepending: once near the peer, once deeper).
        archive = ObservationArchive([observation((3, 4, 3, 2, 1), ("3:1",))])
        conservative = classify_communities(archive, conservative=True)[0]
        optimistic = classify_communities(archive, conservative=False)[0]
        assert conservative.hops_travelled < optimistic.hops_travelled

    def test_prepending_is_collapsed(self):
        archive = ObservationArchive([observation((5, 4, 4, 4, 1), ("4:1",))])
        item = classify_communities(archive)[0]
        assert item.hops_travelled == 2


class TestTable1AndFigure4:
    def test_dataset_overview_rows(self, archive, dataset):
        rows = dataset_overview(archive, dataset.topology)
        names = [row.platform for row in rows]
        assert names[-1] == "Total"
        assert set(names[:-1]) == {"IS", "PCH", "RIS", "RV"}
        total = rows[-1]
        assert total.messages == len(archive)
        assert total.ipv4_prefixes > total.ipv6_prefixes > 0
        assert total.communities == unique_community_count(archive)
        assert total.transit_ases > 0
        assert total.stub_ases > 0
        for row in rows[:-1]:
            assert row.messages <= total.messages
            assert row.communities <= total.communities

    def test_updates_with_communities_by_collector(self, archive):
        per_platform = updates_with_communities_by_collector(archive)
        assert set(per_platform) == set(archive.platforms())
        for collectors in per_platform.values():
            for fraction in collectors.values():
                assert 0.0 <= fraction <= 1.0

    def test_community_service_as_count(self, archive):
        assert community_service_as_count(archive) > 50


class TestTable2AndFigure5:
    def test_observed_as_summary(self, archive):
        rows = observed_as_summary(archive)
        total = rows[-1]
        assert total.platform == "Total"
        assert total.total >= total.on_path
        assert total.total >= total.off_path
        assert total.without_collector_peer <= total.total

    def test_propagation_distance_shape(self, archive, dataset):
        blackholes = set(dataset.blackhole_list.communities())
        distances = propagation_distance_ecdf(archive, blackholes)
        assert len(distances.all_communities) > 100
        assert len(distances.blackhole_communities) >= 1

    def test_relative_distance_by_path_length(self, archive):
        per_length = relative_distance_by_path_length(archive)
        assert per_length
        for length, ecdf in per_length.items():
            assert 3 <= length <= 10
            assert all(0.0 < x <= 1.0 for x in ecdf.values)


class TestFigure6Filtering:
    def test_inference_on_handcrafted_case(self):
        # A1: path 4-3-2-1 carries 2:7 (added by AS2, forwarded by AS3 to AS4).
        # A2: path 5-3-2-1 lacks it although AS3 is known to forward it.
        archive = ObservationArchive(
            [
                observation((4, 3, 2, 1), ("2:7",)),
                observation((5, 3, 2, 1), (), peer=5),
            ]
        )
        inference = infer_filtering(archive)
        forwarded_edge = inference.edges[(3, 4)]
        assert forwarded_edge.forwarded >= 1
        filtered_edge = inference.edges[(3, 5)]
        assert filtered_edge.filtered >= 1
        added_edge = inference.edges[(2, 3)]
        assert added_edge.added >= 1

    def test_inference_fractions(self, archive):
        inference = infer_filtering(archive)
        assert inference.total_edges_observed > 50
        # Requiring >=100 observed paths keeps the fractions well defined.
        assert 0.0 <= inference.forwarding_fraction(100) <= 1.0
        assert inference.edges_with_evidence(min_paths=1)
        assert inference.scatter_points() == [
            (e.forwarded, e.filtered) for e in inference.edges_with_evidence(min_paths=100)
        ]


class TestBlackholeAnalysis:
    def test_identification_rules(self):
        archive = ObservationArchive(
            [observation((3, 2, 1), ("65535:666", "2:666", "2:100"))]
        )
        communities = identify_blackhole_communities(archive, BlackholeCommunityList())
        assert BLACKHOLE in communities
        assert Community(2, 666) in communities
        assert Community(2, 100) not in communities

    def test_verified_list_extends_identification(self, archive, dataset):
        with_list = identify_blackhole_communities(archive, dataset.blackhole_list)
        without_list = identify_blackhole_communities(archive, BlackholeCommunityList())
        assert without_list <= with_list

    def test_blackhole_tagged_observations(self, archive, dataset):
        blackholes = identify_blackhole_communities(archive, dataset.blackhole_list)
        tagged = ObservationArchive(
            o for o in archive if any(c in blackholes for c in o.communities)
        )
        assert 0 < len(tagged) < len(archive)
        # Genuine RTBH announcements (the ground-truth /32 host routes) are
        # part of the blackhole-tagged slice of the archive.
        prefixes = tagged.prefixes()
        assert any(p.is_ipv4 and p.length == 32 for p in prefixes)
        assert any(p in prefixes for p in dataset.ground_truth.blackhole_prefixes)
        assert identify_blackhole_communities(tagged, dataset.blackhole_list) == blackholes


class TestTimeseriesAndReport:
    def test_snapshot_from_archive(self, archive):
        snapshot = snapshot_from_archive(archive)
        assert snapshot.year == 2018
        assert snapshot.unique_communities == unique_community_count(archive)
        assert snapshot.bgp_table_entries == len(archive.prefixes())

    def test_growth_table_is_anchored(self, archive):
        series = growth_table(archive)
        assert series[-1].unique_communities == unique_community_count(archive)
        assert series[0].unique_communities < series[-1].unique_communities

    def test_full_report_renders_every_section(self, archive, dataset):
        report = MeasurementReport(archive, dataset.topology, dataset.blackhole_list)
        text = report.full_report()
        for marker in (
            "Table 1",
            "Table 2",
            "Figure 3",
            "Figure 4(a)",
            "Figure 4(b)",
            "Figure 5(a)",
            "Figure 5(b)",
            "Figure 5(c)",
            "Figure 6",
            "Section 4.3",
            "Blackhole communities observed",
        ):
            assert marker in text


# ------------------------------------------------ per-observation loop oracles
# The analyses as they were written before the archive memoised per-route
# facts: every observation recomputes its collapsed path and position map.
def classify_oracle(archive: ObservationArchive, conservative: bool) -> list[CommunityClassification]:
    classifications = []
    for item in archive:
        position_of: dict[int, int] = {}
        for index, asn in enumerate(item.path_without_prepending):
            if not conservative or asn not in position_of:
                position_of[asn] = index
        for community in item.communities:
            index = position_of.get(community.asn)
            classifications.append(
                CommunityClassification(
                    community=community,
                    observation=item,
                    on_path=index is not None,
                    hops_travelled=None if index is None else index + 1,
                    tagger_index=index,
                )
            )
    return classifications


def transit_forwarders_oracle(archive: ObservationArchive) -> TransitForwarderSummary:
    transit_ases: set[int] = set()
    forwarders: set[int] = set()
    for item in archive:
        path = item.path_without_prepending
        if len(path) < 2:
            continue
        transit_ases.update(path[1:-1])
        for classified in classify_oracle(ObservationArchive([item]), conservative=True):
            if classified.on_path:
                forwarders.update(path[1 : classified.tagger_index])
    return TransitForwarderSummary(forwarders & transit_ases, transit_ases)


def infer_filtering_oracle(archive: ObservationArchive) -> FilteringInference:
    inference = FilteringInference()

    def edge(upstream: int, downstream: int) -> EdgeIndications:
        return inference.edges.setdefault(
            (upstream, downstream), EdgeIndications(edge=(upstream, downstream))
        )

    by_prefix = defaultdict(list)
    for item in archive:
        by_prefix[item.prefix].append(item)
        path = item.path_without_prepending
        for downstream, upstream in zip(path, path[1:]):
            edge(upstream, downstream).paths_observed += 1
    inference.total_edges_observed = len(inference.edges)
    for observations in by_prefix.values():
        forwarding_evidence: dict[Community, set[int]] = defaultdict(set)
        for item in observations:
            path = item.path_without_prepending
            for classified in classify_oracle(ObservationArchive([item]), conservative=True):
                tagger_index = classified.tagger_index
                if not tagger_index:
                    continue
                edge(path[tagger_index], path[tagger_index - 1]).added += 1
                for index in range(tagger_index - 1, 0, -1):
                    edge(path[index], path[index - 1]).forwarded += 1
                    forwarding_evidence[classified.community].add(path[index])
        for item in observations:
            path = item.path_without_prepending
            for community, forwarders in forwarding_evidence.items():
                if community in item.communities:
                    continue
                for index in range(1, len(path)):
                    if path[index] in forwarders:
                        edge(path[index], path[index - 1]).filtered += 1
    return inference


def dataset_overview_oracle(archive: ObservationArchive, topology) -> list[PlatformOverview]:
    roles = classify_roles(topology)

    def row(name: str, items: list[RouteObservation]) -> PlatformOverview:
        prefixes = {item.prefix for item in items}
        path_asns: set[int] = set()
        origin_asns: set[int] = set()
        for item in items:
            path = item.path_without_prepending
            path_asns.update(path)
            if path:
                origin_asns.add(path[-1])
        transit = {a for a in path_asns if roles.get(a) in (AsRole.TRANSIT, AsRole.TIER1)}
        return PlatformOverview(
            platform=name,
            messages=len(items),
            ipv4_prefixes=sum(1 for p in prefixes if p.is_ipv4),
            ipv6_prefixes=sum(1 for p in prefixes if not p.is_ipv4),
            collectors=len({(item.platform, item.collector_id) for item in items}),
            peer_ases=len({item.peer_asn for item in items}),
            communities=len({c for item in items for c in item.communities}),
            ases_observed=len(path_asns),
            origin_ases=len(origin_asns),
            transit_ases=len(transit),
            stub_ases=len(path_asns - transit),
        )

    platforms = sorted({item.platform for item in archive})
    return [row(p, [o for o in archive if o.platform == p]) for p in platforms] + [
        row("Total", list(archive))
    ]


def observed_as_summary_oracle(archive: ObservationArchive) -> list[ObservedAsSummary]:
    def row(name: str, items: list[RouteObservation]) -> ObservedAsSummary:
        on_path: set[int] = set()
        off_path: set[int] = set()
        for classified in classify_oracle(ObservationArchive(items), conservative=True):
            (on_path if classified.on_path else off_path).add(classified.community.asn)
        every = on_path | off_path
        off_only = off_path - on_path
        return ObservedAsSummary(
            platform=name,
            total=len(every),
            without_collector_peer=len(every - {item.peer_asn for item in items}),
            on_path=len(on_path),
            off_path=len(off_only),
            off_path_without_private=len({a for a in off_only if not is_private_asn(a)}),
        )

    platforms = sorted({item.platform for item in archive})
    return [row(p, [o for o in archive if o.platform == p]) for p in platforms] + [
        row("Total", list(archive))
    ]


def snapshot_oracle(archive: ObservationArchive) -> YearlySnapshot:
    return YearlySnapshot(
        year=2018,
        unique_ases_in_communities=len({c.asn for item in archive for c in item.communities}),
        unique_communities=len({c for item in archive for c in item.communities}),
        absolute_communities=sum(len(item.communities) for item in archive),
        bgp_table_entries=len({item.prefix for item in archive}),
    )


def updates_by_collector_oracle(archive: ObservationArchive) -> dict[str, dict[str, float]]:
    totals: dict[tuple[str, str], int] = defaultdict(int)
    tagged: dict[tuple[str, str], int] = defaultdict(int)
    for item in archive:
        if not item.withdrawn:
            totals[item.platform, item.collector_id] += 1
            tagged[item.platform, item.collector_id] += bool(item.communities)
    result: dict[str, dict[str, float]] = defaultdict(dict)
    for (platform, collector), total in totals.items():
        result[platform][collector] = tagged[platform, collector] / total
    return dict(result)


def overall_fraction_oracle(archive: ObservationArchive) -> float:
    announcements = [item for item in archive if not item.withdrawn]
    tagged = sum(1 for item in announcements if item.communities)
    return tagged / len(announcements) if announcements else 0.0


def per_update_oracle(archive: ObservationArchive) -> tuple[list[float], list[float]]:
    announcements = [item for item in archive if not item.withdrawn]
    return (
        sorted(float(len(item.communities)) for item in announcements),
        sorted(float(len({c.asn for c in item.communities})) for item in announcements),
    )


def propagation_distance_oracle(
    archive: ObservationArchive, blackholes: set[Community], conservative: bool
) -> tuple[list[float], list[float]]:
    farthest: dict[Community, int] = {}
    for classified in classify_oracle(archive, conservative):
        if classified.on_path:
            community = classified.community
            farthest[community] = max(farthest.get(community, 0), classified.hops_travelled)
    blackhole = [
        d for c, d in farthest.items() if c.has_blackhole_value or c in blackholes
    ]
    return sorted(map(float, farthest.values())), sorted(map(float, blackhole))


def relative_distance_oracle(archive: ObservationArchive) -> dict[int, list[float]]:
    per_length: dict[int, list[float]] = defaultdict(list)
    for item in archive:
        length = len(item.path_without_prepending)
        if not 3 <= length <= 10:
            continue
        for classified in classify_oracle(ObservationArchive([item]), conservative=True):
            if classified.tagger_index:
                per_length[length].append(min(1.0, classified.hops_travelled / length))
    return {length: sorted(values) for length, values in sorted(per_length.items())}


def top_values_oracle(archive: ObservationArchive, n: int) -> TopValues:
    on_path: dict[int, int] = {}
    off_path: dict[int, int] = {}
    for classified in classify_oracle(archive, conservative=True):
        counts = on_path if classified.on_path else off_path
        counts[classified.community.value] = counts.get(classified.community.value, 0) + 1

    def ranked(counts: dict[int, int]) -> list[tuple[int, float]]:
        total = sum(counts.values())
        # A stable sort keeps ties in order of first insertion.
        order = sorted(counts.items(), key=lambda item: item[1], reverse=True)[:n]
        return [(value, count / total) for value, count in order]

    return TopValues(on_path=ranked(on_path), off_path=ranked(off_path))


def withdrawal(platform: str, collector: str, peer: int, prefix: str) -> RouteObservation:
    return RouteObservation(
        platform=platform,
        collector_id=collector,
        peer_asn=peer,
        prefix=Prefix.from_string(prefix),
        as_path=(),
        withdrawn=True,
    )


_PLATFORM_COLLECTORS = st.sampled_from(
    [("RIS", "ris-00"), ("RIS", "ris-01"), ("RV", "rv-00"), ("PCH", "pch-00")]
)
_PREFIXES = st.sampled_from(["203.0.113.0/24", "198.51.100.0/24", "2001:db8::/32"])

#: Short paths over six ASNs: prepending, repeats (first != last occurrence)
#: and duplicate routes are all common; so are shared prefixes, several
#: platforms and collectors, and withdrawals.
_ARCHIVES = st.lists(
    st.one_of(
        st.builds(
            lambda where, path, **fields: observation(
                path, peer=path[0] if path else 6, platform=where[0], collector=where[1], **fields
            ),
            _PLATFORM_COLLECTORS,
            # An empty path is an announcement that shares its route with a withdrawal.
            path=st.lists(st.integers(1, 6), max_size=6).map(tuple),
            communities=st.lists(
                st.sampled_from(["1:10", "2:20", "3:666", "4:40", "6:60", "64512:7", "9:9"]),
                max_size=4,
            ).map(tuple),
            prefix=_PREFIXES,
        ),
        st.builds(
            lambda where, peer, prefix: withdrawal(where[0], where[1], peer, prefix),
            _PLATFORM_COLLECTORS,
            st.integers(1, 6),
            _PREFIXES,
        ),
    ),
    max_size=12,
)

#: Blackhole communities a verified list could name, for Figure 5(a).
_VERIFIED = {Community(4, 40)}


def check_every_analysis(archive: ObservationArchive, oracle: ObservationArchive) -> None:
    """Every Section 4 analysis over ``archive`` equals its per-observation loop over ``oracle``."""
    topology = build_figure2_topology()
    assert dataset_overview(archive, topology) == dataset_overview_oracle(oracle, topology)
    assert observed_as_summary(archive) == observed_as_summary_oracle(oracle)
    assert snapshot_from_archive(archive) == snapshot_oracle(oracle)
    assert updates_with_communities_by_collector(archive) == updates_by_collector_oracle(oracle)
    assert overall_update_community_fraction(archive) == overall_fraction_oracle(oracle)
    distributions = communities_per_update_ecdf(archive)
    assert (
        distributions.communities_per_update.values,
        distributions.asns_per_update.values,
    ) == per_update_oracle(oracle)
    for conservative in (True, False):
        distances = propagation_distance_ecdf(archive, _VERIFIED, conservative)
        assert (
            distances.all_communities.values,
            distances.blackhole_communities.values,
        ) == propagation_distance_oracle(oracle, _VERIFIED, conservative)
    per_length = relative_distance_by_path_length(archive)
    expected = relative_distance_oracle(oracle)
    assert {length: ecdf.values for length, ecdf in per_length.items()} == expected
    assert list(per_length) == list(expected)
    for n in (2, 10):
        assert top_values(archive, n) == top_values_oracle(oracle, n)


def edge_rows(inference: FilteringInference) -> list[tuple]:
    return [
        (key, e.edge, e.forwarded, e.filtered, e.added, e.paths_observed)
        for key, e in inference.edges.items()
    ]


class TestDerivedFactsMatchThePerObservationLoops:
    @settings(deadline=None)
    @given(_ARCHIVES)
    def test_classification_both_attributions(self, rows):
        archive = ObservationArchive(rows)
        for conservative in (True, False):
            assert classify_communities(archive, conservative) == classify_oracle(
                archive, conservative
            )

    @settings(deadline=None)
    @given(_ARCHIVES)
    def test_forwarders_and_filtering(self, rows):
        archive = ObservationArchive(rows)
        assert transit_forwarders(archive) == transit_forwarders_oracle(archive)
        inference, expected = infer_filtering(archive), infer_filtering_oracle(archive)
        assert edge_rows(inference) == edge_rows(expected)  # same counts, same dict order
        assert inference.total_edges_observed == expected.total_edges_observed

    @settings(deadline=None)
    @given(_ARCHIVES)
    def test_every_section4_analysis(self, rows):
        check_every_analysis(ObservationArchive(rows), ObservationArchive(rows))

    def test_whole_dataset(self, archive, dataset):
        for conservative in (True, False):
            assert classify_communities(archive, conservative) == classify_oracle(
                archive, conservative
            )
        assert transit_forwarders(archive) == transit_forwarders_oracle(archive)
        assert edge_rows(infer_filtering(archive)) == edge_rows(infer_filtering_oracle(archive))
        assert dataset_overview(archive, dataset.topology) == dataset_overview_oracle(
            archive, dataset.topology
        )
        assert top_values(archive, 10) == top_values_oracle(archive, 10)

    @settings(deadline=None)
    @given(_ARCHIVES, _ARCHIVES)
    def test_an_add_after_a_query_shows_in_every_memoised_result(self, first, later):
        archive = ObservationArchive(first)
        rows = list(first)
        for row in [None, *later]:
            if row is not None:
                archive.add(row)
                rows.append(row)
            fresh = ObservationArchive(rows)
            assert classify_communities(archive) == classify_oracle(fresh, True)
            assert transit_forwarders(archive) == transit_forwarders_oracle(fresh)
            assert archive.unique_communities() == {c for o in rows for c in o.communities}
            assert observed_as_summary(archive) == observed_as_summary(fresh)
            assert edge_rows(infer_filtering(archive)) == edge_rows(infer_filtering_oracle(fresh))
            check_every_analysis(archive, fresh)

    def test_memoised_summaries_are_the_callers_own(self):
        archive = ObservationArchive([observation((5, 4, 3, 2, 1), ("1:100",))])
        transit_forwarders(archive).transit_ases.clear()
        transit_forwarders(archive).transit_forwarders.clear()
        assert transit_forwarders(archive) == transit_forwarders_oracle(archive)
        assert transit_forwarders(archive).transit_count == 3


class TestWithdrawalsAreNotUpdatesWithoutCommunities:
    def test_announcements_only_in_the_update_statistics(self):
        withdrawal = RouteObservation(
            platform="RIS",
            collector_id="ris-00",
            peer_asn=5,
            prefix=Prefix.from_string("203.0.113.0/24"),
            as_path=(),
            withdrawn=True,
        )
        announcements = [
            observation((5, 4, 1), ("1:100", "4:1")),
            observation((5, 3, 1), ("1:100",)),
            observation((5, 2, 1), ()),
            observation((7, 2, 1), ("2:2",), platform="RV", collector="rv-00"),
        ]
        mixed = ObservationArchive([withdrawal, *announcements, withdrawal, withdrawal, withdrawal])
        plain = ObservationArchive(announcements)
        assert overall_update_community_fraction(mixed) == 0.75
        assert updates_with_communities_by_collector(mixed) == {
            "RIS": {"ris-00": pytest.approx(2 / 3)},
            "RV": {"rv-00": 1.0},
        }
        for analysis in (
            overall_update_community_fraction,
            updates_with_communities_by_collector,
            lambda a: communities_per_update_ecdf(a).communities_per_update.values,
            lambda a: communities_per_update_ecdf(a).asns_per_update.values,
        ):
            assert analysis(mixed) == analysis(plain)
        # A withdrawal-only collector has no announcements to take a fraction of.
        assert updates_with_communities_by_collector(ObservationArchive([withdrawal])) == {}
        assert overall_update_community_fraction(ObservationArchive([withdrawal])) == 0.0

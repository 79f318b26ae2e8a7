"""Community propagation analyses: Table 2, Figure 5(a)–(c), §4.3 transit forwarders.

The central methodological choices follow the paper:

* communities are interpreted under the ``AS:value`` convention;
* a community is **on-path** if its ASN part appears on the (prepending-
  collapsed) AS path of the observation, otherwise **off-path**;
* the *conservative tagger attribution* assumes the on-path AS encoded
  in the community added it (not an earlier AS), which lower-bounds the
  propagation distance;
* private ASNs (RFC 6996) are reported separately because they are
  off-path by construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.bgp.community import Community, is_private_asn
from repro.collectors.observation import (
    ArchiveTally,
    ObservationArchive,
    RouteFacts,
    RouteObservation,
)
from repro.utils.stats import Ecdf, Histogram, fraction


@dataclass(frozen=True)
class CommunityClassification:
    """One observed community instance classified against its observation."""

    community: Community
    observation: RouteObservation
    on_path: bool
    #: Hops travelled from the (conservatively attributed) tagger to the
    #: collector, including the edge to the collector.  None for off-path.
    hops_travelled: int | None
    #: Position of the tagger on the prepending-collapsed path (0 = collector peer).
    tagger_index: int | None


def _taggers(
    route: RouteFacts, conservative: bool
) -> Iterable[tuple[Community, int | None]]:
    """``(community, tagger position or None)`` per community of one route."""
    if conservative:
        return route.taggers
    return [(community, route.last.get(community.asn)) for community, _ in route.taggers]


def classify_communities(
    archive: ObservationArchive, conservative: bool = True
) -> list[CommunityClassification]:
    """Classify every (community, observation) pair as on-/off-path with distances.

    With ``conservative=True`` (the paper's choice) the tagger is the
    path occurrence of the community's ASN *closest to the collector*,
    which minimises the inferred distance.  With ``conservative=False``
    the occurrence closest to the origin is used (optimistic
    attribution) — the ablation benchmark compares the two.
    """
    classifications: list[CommunityClassification] = []
    for observation, route in zip(archive, archive.route_facts()):
        for community, index in _taggers(route, conservative):
            # Hops from the tagger to the observation point, plus the edge
            # from the collector peer to the collector itself.
            classifications.append(
                CommunityClassification(
                    community=community,
                    observation=observation,
                    on_path=index is not None,
                    hops_travelled=None if index is None else index + 1,
                    tagger_index=index,
                )
            )
    return classifications


# --------------------------------------------------------------------- Table 2
@dataclass(frozen=True)
class ObservedAsSummary:
    """One row of Table 2: ASes appearing as community ASN parts."""

    platform: str
    total: int
    without_collector_peer: int
    on_path: int
    off_path: int
    off_path_without_private: int


def _summary_for(name: str, tally: ArchiveTally) -> ObservedAsSummary:
    on_path_asns: set[int] = set()
    off_path_asns: set[int] = set()
    for route in tally.routes:
        for community, index in route.taggers:
            (off_path_asns if index is None else on_path_asns).add(community.asn)
    all_asns = on_path_asns | off_path_asns
    off_path_only = off_path_asns - on_path_asns
    return ObservedAsSummary(
        platform=name,
        total=len(all_asns),
        without_collector_peer=len(all_asns - tally.peers),
        on_path=len(on_path_asns),
        off_path=len(off_path_only),
        off_path_without_private=len({a for a in off_path_only if not is_private_asn(a)}),
    )


def observed_as_summary(archive: ObservationArchive) -> list[ObservedAsSummary]:
    """Compute Table 2: one row per platform plus a Total row."""
    return [
        _summary_for("Total" if platform is None else platform, tally)
        for platform, tally in archive.tallies().items()
    ]


# ------------------------------------------------------------------ Figure 5(a)
@dataclass(frozen=True)
class PropagationDistances:
    """Figure 5(a): hop-distance ECDFs of all communities vs blackholing communities."""

    all_communities: Ecdf
    blackhole_communities: Ecdf


def propagation_distance_ecdf(
    archive: ObservationArchive,
    blackhole_communities: set[Community] | None = None,
    conservative: bool = True,
) -> PropagationDistances:
    """Compute Figure 5(a).

    The distance of a community is the *maximum* hop count over all
    observations of that community (how far it is seen to propagate).
    A community counts as a blackholing community if its value part is
    666 (RFC 7999 convention) or if it is in the supplied verified list.
    """
    blackhole_communities = blackhole_communities or set()
    per_community: dict[Community, int] = {}
    for route in archive.route_counts():
        for community, index in _taggers(route, conservative):
            if index is not None and index >= per_community.get(community, 0):
                per_community[community] = index + 1
    all_distances = list(per_community.values())
    blackhole_distances = [
        distance
        for community, distance in per_community.items()
        if community.has_blackhole_value or community in blackhole_communities
    ]
    return PropagationDistances(
        all_communities=Ecdf(all_distances),
        blackhole_communities=Ecdf(blackhole_distances),
    )


# ------------------------------------------------------------------ Figure 5(b)
def relative_distance_by_path_length(
    archive: ObservationArchive,
    min_path_length: int = 3,
    max_path_length: int = 10,
) -> dict[int, Ecdf]:
    """Compute Figure 5(b): relative propagation distance grouped by AS-path length.

    Communities whose ASN equals the collector peer (the monitor's
    neighbor) are excluded, but the edge to the monitor is included in
    the distance — both choices taken from the paper.
    """
    per_length: dict[int, list[float]] = defaultdict(list)
    for route, count in archive.route_counts().items():
        path_length = len(route.path)
        if not min_path_length <= path_length <= max_path_length:
            continue
        for _community, index in route.taggers:
            # Off-path (None) has no distance; position 0 is the community
            # of the monitor's direct peer: excluded.
            if index:
                per_length[path_length] += [min(1.0, (index + 1) / path_length)] * count
    return {length: Ecdf(values) for length, values in sorted(per_length.items())}


# ------------------------------------------------------------------ Figure 5(c)
@dataclass(frozen=True)
class TopValues:
    """Figure 5(c): the most popular community *values*, split on-/off-path."""

    on_path: list[tuple[int, float]]
    off_path: list[tuple[int, float]]

    def on_path_values(self) -> list[int]:
        """Just the on-path value ranking."""
        return [value for value, _share in self.on_path]

    def off_path_values(self) -> list[int]:
        """Just the off-path value ranking."""
        return [value for value, _share in self.off_path]


def top_values(archive: ObservationArchive, n: int = 10) -> TopValues:
    """Compute the top-``n`` community values for on-path and off-path communities."""
    on_path_histogram = Histogram()
    off_path_histogram = Histogram()
    for route, count in archive.route_counts().items():
        for community, index in route.taggers:
            target = off_path_histogram if index is None else on_path_histogram
            target.add(community.value, count)

    def ranked(histogram: Histogram) -> list[tuple[int, float]]:
        total = histogram.total()
        return [(value, fraction(count, total)) for value, count in histogram.top(n)]

    return TopValues(on_path=ranked(on_path_histogram), off_path=ranked(off_path_histogram))


# --------------------------------------------------------------- §4.3 forwarders
@dataclass(frozen=True)
class TransitForwarderSummary:
    """§4.3: how many transit ASes relay communities of other ASes."""

    transit_forwarders: set[int]
    transit_ases: set[int]

    @property
    def forwarder_count(self) -> int:
        """Number of transit ASes seen forwarding foreign communities."""
        return len(self.transit_forwarders)

    @property
    def transit_count(self) -> int:
        """Number of transit ASes observed at all."""
        return len(self.transit_ases)

    @property
    def forwarder_fraction(self) -> float:
        """The paper's ~14 % headline number."""
        return fraction(self.forwarder_count, self.transit_count)


def transit_forwarders(archive: ObservationArchive) -> TransitForwarderSummary:
    """Find transit ASes that relay at least one community of another AS.

    Following the paper: an AS is a transit AS if it appears on some path
    as neither the origin nor the collector peer; collector-peer edges
    are excluded from the forwarding evidence; and AS2 counts as a
    forwarder if an update with path ``... AS3 AS2 AS1 ...`` carries a
    community ``AS1:X`` tagged by an AS strictly closer to the origin
    than AS2.  The scan is memoised on the archive; each call returns
    its own copy of the two sets.
    """
    summary = archive.derived(_scan_transit_forwarders)
    return TransitForwarderSummary(
        transit_forwarders=set(summary.transit_forwarders),
        transit_ases=set(summary.transit_ases),
    )


def _scan_transit_forwarders(archive: ObservationArchive) -> TransitForwarderSummary:
    transit_ases: set[int] = set()
    forwarders: set[int] = set()
    for route in archive.route_counts():
        path = route.path
        if len(path) < 2:
            continue
        # Transit role: on the path, neither origin nor the collector peer.
        transit_ases.update(path[1:-1])
        for _community, tagger_index in route.taggers:
            if tagger_index is not None:
                # Every AS strictly between the tagger and the collector peer
                # relayed a foreign community; the peer itself is excluded
                # because its session with the collector may be special.
                forwarders.update(path[1:tagger_index])
    return TransitForwarderSummary(
        transit_forwarders=forwarders & transit_ases, transit_ases=transit_ases
    )

"""Community filtering inference (Section 4.4, Figure 6).

For every prefix we compare all observations at the same time: if an AS
is seen forwarding a community on the edge towards one neighbor but the
same prefix reaches another neighbor without that community, we count a
*filtering indication* for the second edge and a *forwarding indication*
for the first.  The heuristic, its conservative tagger attribution and
its acknowledged biases all follow the paper.

Equal routes yield equal indications, so the inference works on
distinct routes weighted by their observation counts: the per-edge path
counts read the archive's memoised
:meth:`~repro.collectors.observation.ObservationArchive.route_counts`,
and the per-prefix comparison counts each prefix's routes once from the
memoised per-observation facts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.bgp.community import Community
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive, RouteFacts
from repro.utils.stats import fraction


@dataclass
class EdgeIndications:
    """Indication counters for one directed AS edge (from, to)."""

    edge: tuple[int, int]
    forwarded: int = 0
    filtered: int = 0
    added: int = 0
    #: Number of distinct AS paths on which the edge was observed.
    paths_observed: int = 0

    @property
    def has_evidence(self) -> bool:
        """True if the edge has at least one forwarding or filtering indication."""
        return self.forwarded > 0 or self.filtered > 0


@dataclass
class FilteringInference:
    """The result of the filtering inference over an archive."""

    edges: dict[tuple[int, int], EdgeIndications] = field(default_factory=dict)
    total_edges_observed: int = 0

    def edges_with_evidence(self, min_paths: int) -> list[EdgeIndications]:
        """Edges with at least one indication and ``min_paths`` observed paths."""
        return [
            e
            for e in self.edges.values()
            if e.has_evidence and e.paths_observed >= min_paths
        ]

    def forwarding_fraction(self, min_paths: int = 0) -> float:
        """Fraction of all observed edges with at least one forwarding indication."""
        if min_paths:
            universe = [e for e in self.edges.values() if e.paths_observed >= min_paths]
        else:
            universe = list(self.edges.values())
        forwarding = [e for e in universe if e.forwarded > 0]
        return fraction(len(forwarding), len(universe))

    def filtering_fraction(self, min_paths: int = 0) -> float:
        """Fraction of all observed edges with at least one filtering indication."""
        if min_paths:
            universe = [e for e in self.edges.values() if e.paths_observed >= min_paths]
        else:
            universe = list(self.edges.values())
        filtering = [e for e in universe if e.filtered > 0]
        return fraction(len(filtering), len(universe))

    def scatter_points(self) -> list[tuple[int, int]]:
        """Figure 6(b): (forwarding, filtering) indication counts per edge with
        evidence and at least 100 observed paths."""
        return [(e.forwarded, e.filtered) for e in self.edges_with_evidence(min_paths=100)]


def infer_filtering(archive: ObservationArchive) -> FilteringInference:
    """Run the Figure 6 filtering-inference heuristic over the archive.

    Every indication of a distinct route (a :class:`RouteFacts` row, in
    order of first appearance) is added ``count`` at a time.
    """
    inference = FilteringInference()
    edges = inference.edges
    facts = archive.route_facts()

    # Count, per directed edge, on how many observed paths it appeared.
    for route, count in archive.route_counts().items():
        path = route.path
        for downstream, upstream in zip(path, path[1:]):
            # The announcement travelled upstream -> downstream (origin towards peer).
            edge = (upstream, downstream)
            if edge not in edges:
                edges[edge] = EdgeIndications(edge=edge)
            edges[edge].paths_observed += count
    inference.total_edges_observed = len(edges)

    # The paper iterates per prefix and considers all updates "at the same time".
    by_prefix: dict[Prefix, Counter[RouteFacts]] = defaultdict(Counter)
    for observation, route in zip(archive, facts):
        by_prefix[observation.prefix][route] += 1

    for routes in by_prefix.values():
        # For each community, find where it was (conservatively) added and
        # which ASes were seen forwarding it onward.
        forwarded_by: dict[int, set[Community]] = defaultdict(set)
        for route, count in routes.items():
            path = route.path
            for community, tagger_index in route.taggers:
                if not tagger_index:
                    # Off-path, or tagged by the collector peer itself.
                    continue
                # The tagger added the community on the edge towards the next AS.
                edges[(path[tagger_index], path[tagger_index - 1])].added += count
                # Every AS between the tagger and the peer forwarded it onward.
                for index in range(tagger_index - 1, 0, -1):
                    edges[(path[index], path[index - 1])].forwarded += count
                    forwarded_by[path[index]].add(community)
        if not forwarded_by:
            continue

        # Filtering indications: an AS known to forward a community (for
        # this prefix) appears on another path whose observation does not
        # carry that community — one indication per such community.
        for route, count in routes.items():
            path = route.path
            present = {community for community, _index in route.taggers}
            for index in range(1, len(path)):
                forwarded = forwarded_by.get(path[index])
                if forwarded:
                    missing = len(forwarded - present)
                    if missing:
                        edges[(path[index], path[index - 1])].filtered += count * missing
    return inference

"""Synthetic April-2018-style BGP observation dataset.

The builder reproduces, over a generated topology, the *processes* that
create the community patterns the paper measures:

* origins tag their announcements with documented informational
  communities;
* intermediate ASes add ingress-location tags, action communities
  addressed to other ASes on the path, and off-path communities (IXP
  route-server communities, bundled tags, private-ASN tags);
* every AS applies its community *propagation policy* when exporting,
  so forward-all ASes pass foreign tags on while strip-all ASes drop
  them — the behaviour the measurement pipeline later infers;
* a fraction of prefixes additionally produce remotely-triggered
  blackhole announcements (/32s tagged with the provider's RTBH
  community) which operators treat specially and which therefore do not
  travel as far.

The builder records ground truth (who tagged what, which AS runs which
propagation behaviour) so the test-suite can check the measurement
pipeline against it.

Every draw is a function of the seed.  The builder builds each AS's
documented tag lists once, on its first tagging draw, and the pool of
16-bit ASNs an off-path community can name once per builder; the value
model splits its popularity tables once.  The caches only skip
rebuilding equal lists: every RNG call keeps its arguments and its
place in the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import Community, CommunitySet, BLACKHOLE
from repro.bgp.prefix import Prefix
from repro.collectors.observation import ObservationArchive, RouteObservation
from repro.collectors.platform import CollectorDeployment
from repro.datasets.communities_db import CommunityUsageModel
from repro.datasets.giotsas import BlackholeCommunityList, build_blackhole_list
from repro.exceptions import DatasetError
from repro.policy.community_policy import PropagationBehavior
from repro.topology.asys import AsRole
from repro.topology.graph import valley_free_paths
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng

#: Private-use 16-bit ASNs used for off-path private tagging (RFC 6996).
_PRIVATE_ASN_POOL = [64512, 64513, 64600, 65001, 65100, 65210, 65333, 65500]


@dataclass(frozen=True)
class TaggingEvent:
    """Ground truth: one community added to one announcement by one AS."""

    prefix: Prefix
    community: Community
    tagger_asn: int
    peer_asn: int
    on_path: bool


@dataclass
class GroundTruth:
    """Everything the generator knows that the measurement pipeline must infer."""

    tagging_events: list[TaggingEvent] = field(default_factory=list)
    #: asn -> propagation behaviour label of that AS.
    propagation_behavior: dict[int, PropagationBehavior] = field(default_factory=dict)
    #: Prefixes announced as blackhole (/32) announcements.
    blackhole_prefixes: set[Prefix] = field(default_factory=set)

    def forward_all_ases(self) -> set[int]:
        """ASes configured to forward every foreign community."""
        return {
            asn
            for asn, behavior in self.propagation_behavior.items()
            if behavior == PropagationBehavior.FORWARD_ALL
        }

    def strip_all_ases(self) -> set[int]:
        """ASes configured to strip every foreign community."""
        return {
            asn
            for asn, behavior in self.propagation_behavior.items()
            if behavior == PropagationBehavior.STRIP_ALL
        }


@dataclass
class DatasetParameters:
    """Knobs of the synthetic dataset builder."""

    #: Fraction of (collector-peer, prefix) pairs for which updates are generated.
    coverage: float = 0.8
    #: Updates generated per covered (peer, prefix) pair (1..max).
    max_updates_per_pair: int = 2
    #: Probability the origin AS tags its announcement with documented communities.
    origin_tag_probability: float = 0.75
    #: Probability an intermediate AS adds an ingress/location/informational tag.
    transit_tag_probability: float = 0.40
    #: Probability an intermediate AS adds an action community addressed to
    #: another AS on the path (prepend/local-pref requests).
    action_tag_probability: float = 0.12
    #: Probability an AS adds an off-path community (IXP, bundled, private ASN).
    offpath_tag_probability: float = 0.10
    #: Probability the AS a blackhole community is addressed to strips it after
    #: acting on it (which is why 666 is rare among on-path values, §4.3).
    blackhole_strip_probability: float = 0.75
    #: Probability an origin AS prepends itself (exercises prepending removal).
    prepend_probability: float = 0.10
    #: Fraction of stub ASes that also issue a blackhole announcement.
    blackhole_origin_fraction: float = 0.25
    #: Per-hop probability that a blackhole announcement is propagated further
    #: than the AS acting on it (operators treat RTBH announcements specially).
    blackhole_propagation_probability: float = 0.55
    #: Simulated collection window in seconds (one month, like the paper).
    window_seconds: int = 30 * 24 * 3600
    seed: int = 2018


@dataclass
class SyntheticDataset:
    """The generated dataset: observations plus ground truth and metadata."""

    archive: ObservationArchive
    topology: Topology
    deployment: CollectorDeployment
    ground_truth: GroundTruth
    blackhole_list: BlackholeCommunityList
    parameters: DatasetParameters

    def message_count(self) -> int:
        """Total number of generated update observations."""
        return len(self.archive)


class SyntheticDatasetBuilder:
    """Builds a :class:`SyntheticDataset` over a topology and collector deployment."""

    def __init__(
        self,
        topology: Topology,
        deployment: CollectorDeployment,
        parameters: DatasetParameters | None = None,
    ):
        self.topology = topology
        self.deployment = deployment
        self.parameters = parameters or DatasetParameters()
        self._rng = DeterministicRng(self.parameters.seed)
        self._usage = CommunityUsageModel(self._rng.child("usage"))
        self._ixp_rs_asns = [ixp.route_server_asn for ixp in topology.ixps.values()]
        #: The 16-bit ASNs an off-path community can name.
        self._asns16 = [asn for asn in topology.asns() if asn <= 0xFFFF]
        #: asn -> (its origin tags, its transit tags), built on first draw.
        self._tags: dict[int, tuple[list[Community], list[Community]]] = {}

    # ------------------------------------------------------------------ build
    def build(self) -> SyntheticDataset:
        """Generate the full dataset."""
        archive = ObservationArchive()
        ground_truth = GroundTruth()
        for asys in self.topology:
            if asys.propagation_policy is not None:
                ground_truth.propagation_behavior[asys.asn] = (
                    asys.propagation_policy.behavior
                )

        peer_lookup = self._peer_lookup()
        if not peer_lookup:
            raise DatasetError("collector deployment has no peers in the topology")

        origins = [a for a in self.topology if a.role != AsRole.IXP and a.prefixes]
        rng = self._rng.child("updates")
        for origin in origins:
            paths_from_origin = valley_free_paths(self.topology, origin.asn)
            self._generate_regular_updates(
                origin, paths_from_origin, peer_lookup, archive, ground_truth, rng
            )
            if origin.is_stub and rng.chance(self.parameters.blackhole_origin_fraction):
                self._generate_blackhole_updates(
                    origin, paths_from_origin, peer_lookup, archive, ground_truth, rng
                )

        blackhole_list = build_blackhole_list(self.topology, seed=self.parameters.seed + 1)
        return SyntheticDataset(
            archive=archive,
            topology=self.topology,
            deployment=self.deployment,
            ground_truth=ground_truth,
            blackhole_list=blackhole_list,
            parameters=self.parameters,
        )

    # ----------------------------------------------------------------- helpers
    def _peer_lookup(self) -> dict[int, list]:
        """Map peer ASN -> list of collectors peering with it."""
        lookup: dict[int, list] = {}
        for collector in self.deployment.all_collectors():
            for peer in collector.peer_asns:
                if peer in self.topology:
                    lookup.setdefault(peer, []).append(collector)
        return lookup

    def _documentation(self, asn: int):
        asys = self.topology.get_as(asn)
        offers_blackhole = (
            asys.services is not None and bool(asys.services.blackhole_communities())
        )
        return self._usage.documentation_for(asn, offers_blackhole)

    def _tag_choices(self, asn: int) -> tuple[list[Community], list[Community]]:
        """The documented communities ``asn`` tags with as origin and as transit."""
        tags = self._tags.get(asn)
        if tags is None:
            documentation = self._documentation(asn)
            informational = documentation.informational_communities()
            tags = self._tags[asn] = (
                informational,
                documentation.location_communities() + informational,
            )
        return tags

    def _off_path_community(self, path: list[int], rng: DeterministicRng) -> Community:
        """Draw an off-path community: IXP route server, private ASN, or bundled AS."""
        roll = rng.random()
        if roll < 0.4 and self._ixp_rs_asns:
            asn = rng.choice(self._ixp_rs_asns)
        elif roll < 0.65:
            asn = rng.choice(_PRIVATE_ASN_POOL)
        else:
            candidates = [a for a in self._asns16 if a not in path]
            asn = rng.choice(candidates) if candidates else rng.choice(_PRIVATE_ASN_POOL)
        return Community(asn, self._usage.off_path_value())

    def _action_community(self, path: list[int], position: int, rng: DeterministicRng) -> Community | None:
        """Draw an action community addressed to a *later* AS on the path."""
        later = path[:position]  # ASes the announcement has yet to reach (towards the peer)
        later = [a for a in later if a <= 0xFFFF]
        if not later:
            return None
        target = rng.choice(later)
        documentation = self._documentation(target)
        values = documentation.action_values or [self._usage.on_path_value()]
        return Community(target, rng.choice(values))

    # ------------------------------------------------------------ propagation
    def _propagate_along_path(
        self,
        prefix: Prefix,
        path: list[int],
        peer_asn: int,
        rng: DeterministicRng,
        ground_truth: GroundTruth,
        is_blackhole: bool = False,
        blackhole_community: Community | None = None,
    ) -> CommunitySet | None:
        """Walk the announcement from origin to collector peer, applying tagging and policies.

        ``path`` is in observation order (peer first, origin last).  The
        return value is the community set as exported by the peer to the
        collector, or None if (for blackhole announcements) propagation
        stopped before reaching the peer.
        """
        params = self.parameters
        ordered = list(reversed(path))  # origin ... peer
        carried = CommunitySet()

        for position, asn in enumerate(ordered):
            asys = self.topology.get_as(asn)
            added: list[Community] = []
            path_position_from_peer = len(ordered) - 1 - position

            if position == 0:
                # Origin tagging.
                if is_blackhole and blackhole_community is not None:
                    added.append(blackhole_community)
                    added.append(BLACKHOLE)
                if rng.chance(params.origin_tag_probability):
                    choices = self._tag_choices(asn)[0]
                    if choices:
                        added.extend(rng.sample(choices, rng.randint(1, len(choices))))
            else:
                if rng.chance(params.transit_tag_probability):
                    choices = self._tag_choices(asn)[1]
                    if choices:
                        added.extend(rng.sample(choices, rng.randint(1, min(2, len(choices)))))
                if rng.chance(params.action_tag_probability):
                    action = self._action_community(path, path_position_from_peer, rng)
                    if action is not None:
                        added.append(action)
            if rng.chance(params.offpath_tag_probability):
                added.append(self._off_path_community(path, rng))

            for community in added:
                ground_truth.tagging_events.append(
                    TaggingEvent(
                        prefix=prefix,
                        community=community,
                        tagger_asn=asn,
                        peer_asn=peer_asn,
                        on_path=community.asn in path,
                    )
                )
            carried = carried.add(*added) if added else carried

            # Export towards the next AS (or the collector when at the peer).
            next_asn = ordered[position + 1] if position + 1 < len(ordered) else None
            if is_blackhole and position > 0 and next_asn is not None:
                if not rng.chance(params.blackhole_propagation_probability):
                    return None
            if (
                is_blackhole
                and blackhole_community is not None
                and asn == blackhole_community.asn
                and rng.chance(params.blackhole_strip_probability)
            ):
                # The community target acted on the blackhole request and
                # scopes/strips the blackhole communities before re-exporting.
                carried = carried.filter(lambda c: not c.has_blackhole_value)
            policy = asys.propagation_policy
            if policy is not None:
                exporter_target = next_asn if next_asn is not None else -1
                carried = policy.outbound_communities(carried, asn, exporter_target)
        return carried

    # ----------------------------------------------------------------- updates
    def _generate_regular_updates(
        self,
        origin,
        paths_from_origin: dict[int, list[int]],
        peer_lookup: dict[int, list],
        archive: ObservationArchive,
        ground_truth: GroundTruth,
        rng: DeterministicRng,
    ) -> None:
        params = self.parameters
        for prefix in origin.prefixes:
            for peer_asn, collectors in peer_lookup.items():
                if peer_asn == origin.asn:
                    continue
                path = paths_from_origin.get(peer_asn)
                if path is None:
                    continue
                if not rng.chance(params.coverage):
                    continue
                update_count = rng.randint(1, params.max_updates_per_pair)
                for _ in range(update_count):
                    communities = self._propagate_along_path(
                        prefix, path, peer_asn, rng, ground_truth
                    )
                    if communities is None:
                        continue
                    observed_path = list(path)
                    if rng.chance(params.prepend_probability):
                        observed_path = observed_path + [origin.asn] * rng.randint(1, 2)
                    timestamp = rng.random() * params.window_seconds
                    for collector in collectors:
                        archive.add(
                            RouteObservation(
                                platform=collector.platform,
                                collector_id=collector.collector_id,
                                peer_asn=peer_asn,
                                prefix=prefix,
                                as_path=tuple(observed_path),
                                communities=communities,
                                timestamp=timestamp,
                            )
                        )

    def _generate_blackhole_updates(
        self,
        origin,
        paths_from_origin: dict[int, list[int]],
        peer_lookup: dict[int, list],
        archive: ObservationArchive,
        ground_truth: GroundTruth,
        rng: DeterministicRng,
    ) -> None:
        """Generate the /32 RTBH announcement of one attacked stub AS."""
        params = self.parameters
        ipv4_prefixes = [p for p in origin.prefixes if p.is_ipv4]
        if not ipv4_prefixes:
            return
        parent = rng.choice(ipv4_prefixes)
        victim = parent.subprefix(32, rng.randint(0, 255))
        ground_truth.blackhole_prefixes.add(victim)
        providers = self.topology.providers(origin.asn)
        if not providers:
            return
        provider = rng.choice(providers)
        provider_as = self.topology.get_as(provider)
        if provider_as.services is not None and provider_as.services.blackhole_communities():
            blackhole_community = provider_as.services.blackhole_communities()[0]
        else:
            blackhole_community = Community(provider, 666) if provider <= 0xFFFF else BLACKHOLE

        for peer_asn, collectors in peer_lookup.items():
            if peer_asn == origin.asn:
                continue
            path = paths_from_origin.get(peer_asn)
            if path is None:
                continue
            if not rng.chance(params.coverage):
                continue
            communities = self._propagate_along_path(
                victim,
                path,
                peer_asn,
                rng,
                ground_truth,
                is_blackhole=True,
                blackhole_community=blackhole_community,
            )
            if communities is None:
                continue
            timestamp = rng.random() * params.window_seconds
            for collector in collectors:
                archive.add(
                    RouteObservation(
                        platform=collector.platform,
                        collector_id=collector.collector_id,
                        peer_asn=peer_asn,
                        prefix=victim,
                        as_path=tuple(path),
                        communities=communities,
                        timestamp=timestamp,
                    )
                )


def build_default_dataset(
    topology: Topology | None = None,
    parameters: DatasetParameters | None = None,
) -> SyntheticDataset:
    """Convenience helper: generate a topology, deploy collectors, build the dataset."""
    from repro.topology.generator import TopologyGenerator

    if topology is None:
        topology = TopologyGenerator().generate()
    deployment = CollectorDeployment.default_deployment(topology)
    builder = SyntheticDatasetBuilder(topology, deployment, parameters)
    return builder.build()

"""Collector platforms and their deployment over a simulated Internet.

The paper combines four platforms — RIPE RIS, Route Views, Isolario and
PCH — each consisting of multiple collectors, each peering with many
ASes (PCH's speciality being route-server peerings at IXPs).  A
:class:`CollectorDeployment` places such platforms over a topology and
harvests :class:`RouteObservation` records either from a converged
:class:`~repro.routing.engine.BgpSimulator` or directly from a
synthetic-path generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.collectors.observation import ObservationArchive
from repro.exceptions import CollectorError
from repro.routing.engine import BgpSimulator
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng

#: The four platforms of the study with their approximate relative sizes
#: (collectors, peers per collector) scaled down from Table 1.
DEFAULT_PLATFORM_SHAPES = {
    "RIS": {"collectors": 4, "peers_per_collector": 12},
    "RV": {"collectors": 5, "peers_per_collector": 10},
    "IS": {"collectors": 2, "peers_per_collector": 14},
    "PCH": {"collectors": 8, "peers_per_collector": 6},
}


@dataclass
class Collector:
    """One route collector: an identifier and the ASes it peers with."""

    collector_id: str
    platform: str
    peer_asns: list[int] = field(default_factory=list)
    #: Collector ASN used when exporting MRT (does not participate in routing).
    collector_asn: int = 65010

    def __post_init__(self) -> None:
        if not self.collector_id:
            raise CollectorError("collector_id must not be empty")


@dataclass
class CollectorPlatform:
    """A collector platform: a name and its collectors."""

    name: str
    collectors: list[Collector] = field(default_factory=list)

    def peer_asns(self) -> set[int]:
        """Return every peer AS of any collector of the platform."""
        peers: set[int] = set()
        for collector in self.collectors:
            peers.update(collector.peer_asns)
        return peers

    def collector_count(self) -> int:
        """Number of collectors."""
        return len(self.collectors)


class CollectorDeployment:
    """All platforms deployed over one topology."""

    def __init__(self, platforms: Iterable[CollectorPlatform]):
        self.platforms: dict[str, CollectorPlatform] = {p.name: p for p in platforms}

    @classmethod
    def default_deployment(
        cls,
        topology: Topology,
        seed: int = 7,
        shapes: dict[str, dict[str, int]] | None = None,
    ) -> "CollectorDeployment":
        """Place the four standard platforms over a topology.

        RIS/RV/IS peer preferentially with transit ASes (full feeds);
        PCH peers with IXP members via route servers, mirroring the
        real deployments.
        """
        rng = DeterministicRng(seed).child("collector-deployment")
        shapes = shapes or DEFAULT_PLATFORM_SHAPES
        transit_asns = [a.asn for a in topology.transit_ases()]
        stub_asns = [a.asn for a in topology.stub_ases()]
        ixp_member_asns = sorted(
            {member for ixp in topology.ixps.values() for member in ixp.members}
        )
        platforms = []
        next_collector_asn = 65100
        for name, shape in shapes.items():
            collectors = []
            for index in range(shape["collectors"]):
                if name == "PCH" and ixp_member_asns:
                    pool = ixp_member_asns
                else:
                    # Mostly transit peers plus a few stubs, like real feeds.
                    pool = transit_asns + stub_asns[: max(1, len(stub_asns) // 10)]
                if not pool:
                    raise CollectorError("topology has no candidate collector peers")
                peer_count = min(shape["peers_per_collector"], len(pool))
                peers = rng.sample(pool, peer_count)
                collectors.append(
                    Collector(
                        collector_id=f"{name.lower()}-{index:02d}",
                        platform=name,
                        peer_asns=sorted(peers),
                        collector_asn=next_collector_asn,
                    )
                )
                next_collector_asn += 1
            platforms.append(CollectorPlatform(name=name, collectors=collectors))
        return cls(platforms)

    # ----------------------------------------------------------------- queries
    def all_collectors(self) -> list[Collector]:
        """Return every collector across all platforms."""
        return [c for p in self.platforms.values() for c in p.collectors]

    def all_peer_asns(self) -> set[int]:
        """Return every collector-peer AS across all platforms."""
        peers: set[int] = set()
        for platform in self.platforms.values():
            peers.update(platform.peer_asns())
        return peers

    def collector_count(self) -> int:
        """Total number of collectors."""
        return sum(p.collector_count() for p in self.platforms.values())

    # ------------------------------------------------------------- harvesting
    def collect_from_simulator(
        self,
        simulator: BgpSimulator,
        timestamp: float = 0.0,
        shards: int | None = None,
    ) -> ObservationArchive:
        """Harvest observations from a converged simulation.

        Each collector peer exports its full table to the collector
        exactly as it would to a customer, so the observation carries
        the communities the peer's propagation policy lets through.

        The work runs through :mod:`repro.collectors.harvest`: exports
        are memoised per peer (N collectors sharing a peer pay the
        policy chain once) and ``shards`` (a positive integer; ``None``
        inherits the simulator's) fans the (collector, peer) work-list
        over the simulator's worker pool — the archive is byte-identical
        to the serial loop for any shard count.
        """
        from repro.collectors.harvest import harvest_archive

        return harvest_archive(self, simulator, timestamp=timestamp, shards=shards)

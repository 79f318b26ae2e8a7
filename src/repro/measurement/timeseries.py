"""Longitudinal analysis: the Figure 3 growth table."""

from __future__ import annotations

from repro.collectors.observation import ObservationArchive
from repro.datasets.timeseries import GrowthModel, YearlySnapshot, historical_series
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


def growth_table(archive: ObservationArchive | None = None) -> list[YearlySnapshot]:
    """Compute the Figure 3 series.

    When an archive is given, its 2018 snapshot anchors the curve (so
    the figure is reproduced over the synthetic Internet); otherwise the
    paper's own 2018 numbers are used.
    """
    if archive is None:
        return historical_series()
    return GrowthModel().series(snapshot_from_archive(archive))

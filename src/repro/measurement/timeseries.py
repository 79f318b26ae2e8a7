"""Longitudinal analysis: the Figure 3 growth table."""

from __future__ import annotations

from repro.collectors.observation import ObservationArchive
from repro.datasets.timeseries import GrowthModel, YearlySnapshot, historical_series
from repro.measurement.usage import community_service_as_count, unique_community_count


def snapshot_from_archive(archive: ObservationArchive, year: int = 2018) -> YearlySnapshot:
    """Summarise an archive into the four Figure 3 quantities for one year."""
    absolute = sum(len(route.taggers) * count for route, count in archive.route_counts().items())
    return YearlySnapshot(
        year=year,
        unique_ases_in_communities=community_service_as_count(archive),
        unique_communities=unique_community_count(archive),
        absolute_communities=absolute,
        bgp_table_entries=len(archive.prefixes()),
    )


def growth_table(
    archive: ObservationArchive | None = None,
    model: GrowthModel | None = None,
    final_year: int = 2018,
) -> list[YearlySnapshot]:
    """Compute the Figure 3 series.

    When an archive is given, its 2018 snapshot anchors the curve (so
    the figure is reproduced over the synthetic Internet); otherwise the
    paper's own 2018 numbers are used.
    """
    model = model or GrowthModel(final_year=final_year)
    if archive is None:
        return historical_series(model=model)
    return model.series(snapshot_from_archive(archive, year=final_year))

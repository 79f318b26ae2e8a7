"""Longitudinal community-usage model (Figure 3).

Figure 3 of the paper plots, from 2010 to 2018, the number of unique
ASes appearing in communities, unique communities, absolute community
attachments, and BGP table entries, and the text notes an 18–20 %
increase in observable communities over the final year.  We model the
series as smooth exponential growth curves anchored to the 2018 values
observed in an archive (see :func:`repro.measurement.timeseries.growth_table`),
which reproduces the *shape* of the figure — monotone growth with the
community curves growing faster than the table itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class YearlySnapshot:
    """One year's headline counts (the four series of Figure 3)."""

    year: int
    unique_ases_in_communities: int
    unique_communities: int
    absolute_communities: int
    bgp_table_entries: int


@dataclass
class GrowthModel:
    """Exponential growth model anchored at a final-year snapshot."""

    final_year: int = 2018
    first_year: int = 2010
    #: Year-over-year growth of unique communities (the paper reports ~18–20 %).
    community_growth_rate: float = 0.18
    #: Year-over-year growth of ASes using communities.
    as_growth_rate: float = 0.12
    #: Year-over-year growth of absolute community attachments.
    absolute_growth_rate: float = 0.22
    #: Year-over-year growth of BGP table entries (much slower).
    table_growth_rate: float = 0.05

    def series(self, final_snapshot: YearlySnapshot) -> list[YearlySnapshot]:
        """Return yearly snapshots from ``first_year`` to ``final_year``."""
        if final_snapshot.year != self.final_year:
            raise DatasetError(
                f"final snapshot year {final_snapshot.year} does not match model "
                f"final year {self.final_year}"
            )
        if self.first_year >= self.final_year:
            raise DatasetError("first_year must precede final_year")
        snapshots: list[YearlySnapshot] = []
        for year in range(self.first_year, self.final_year + 1):
            age = self.final_year - year
            snapshots.append(
                YearlySnapshot(
                    year=year,
                    unique_ases_in_communities=max(
                        1, round(final_snapshot.unique_ases_in_communities / (1 + self.as_growth_rate) ** age)
                    ),
                    unique_communities=max(
                        1, round(final_snapshot.unique_communities / (1 + self.community_growth_rate) ** age)
                    ),
                    absolute_communities=max(
                        1, round(final_snapshot.absolute_communities / (1 + self.absolute_growth_rate) ** age)
                    ),
                    bgp_table_entries=max(
                        1, round(final_snapshot.bgp_table_entries / (1 + self.table_growth_rate) ** age)
                    ),
                )
            )
        return snapshots


"""The measurement pipeline: the paper's Section 4 analyses over route observations."""

from repro.measurement.usage import (
    PlatformOverview,
    dataset_overview,
    updates_with_communities_by_collector,
    communities_per_update_ecdf,
    unique_community_count,
)
from repro.measurement.propagation import (
    CommunityClassification,
    classify_communities,
    observed_as_summary,
    propagation_distance_ecdf,
    relative_distance_by_path_length,
    top_values,
    transit_forwarders,
)
from repro.measurement.filtering import (
    EdgeIndications,
    FilteringInference,
    infer_filtering,
)
from repro.measurement.blackhole import identify_blackhole_communities
from repro.measurement.timeseries import growth_table
from repro.measurement.report import MeasurementReport

__all__ = [
    "PlatformOverview",
    "dataset_overview",
    "updates_with_communities_by_collector",
    "communities_per_update_ecdf",
    "unique_community_count",
    "CommunityClassification",
    "classify_communities",
    "observed_as_summary",
    "propagation_distance_ecdf",
    "relative_distance_by_path_length",
    "top_values",
    "transit_forwarders",
    "EdgeIndications",
    "FilteringInference",
    "infer_filtering",
    "identify_blackhole_communities",
    "growth_table",
    "MeasurementReport",
]

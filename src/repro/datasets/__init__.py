"""Synthetic datasets calibrated to the paper's published distributions."""

from repro.datasets.communities_db import CommunityUsageModel, CommunityDocumentation
from repro.datasets.giotsas import BlackholeCommunityList, build_blackhole_list
from repro.datasets.synthetic import (
    DatasetParameters,
    SyntheticDataset,
    SyntheticDatasetBuilder,
)

__all__ = [
    "CommunityUsageModel",
    "CommunityDocumentation",
    "BlackholeCommunityList",
    "build_blackhole_list",
    "DatasetParameters",
    "SyntheticDataset",
    "SyntheticDatasetBuilder",
]

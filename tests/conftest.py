"""Shared fixtures: a small generated Internet and a synthetic dataset over it.

Session-scoped fixtures keep the suite fast: the topology and dataset
are generated once and shared read-only by the measurement and attack
tests.
"""

from __future__ import annotations

import pytest

from repro.collectors.platform import CollectorDeployment
from repro.datasets.synthetic import (
    DatasetParameters,
    SyntheticDatasetBuilder,
)
from repro.topology.generator import TopologyGenerator, TopologyParameters


SMALL_PARAMETERS = TopologyParameters(
    tier1_count=3,
    transit_count=20,
    stub_count=70,
    ixp_count=2,
    seed=42,
)


@pytest.fixture(scope="session")
def small_topology():
    """A small but fully featured generated Internet."""
    return TopologyGenerator(SMALL_PARAMETERS).generate()


@pytest.fixture(scope="session")
def deployment(small_topology):
    """The four collector platforms deployed over the small topology."""
    return CollectorDeployment.default_deployment(small_topology, seed=7)


@pytest.fixture(scope="session")
def dataset(small_topology, deployment):
    """A synthetic observation dataset over the small topology."""
    builder = SyntheticDatasetBuilder(
        small_topology, deployment, DatasetParameters(seed=2018)
    )
    return builder.build()


@pytest.fixture(scope="session")
def archive(dataset):
    """The observation archive of the shared dataset."""
    return dataset.archive


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/fixtures/golden/* from the current tree instead of comparing",
    )

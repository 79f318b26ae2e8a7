"""Shared fixtures: a small generated Internet, a synthetic dataset over
it, the registered experiments' results, and a guard that puts the
cyclic garbage collector back as the test found it.

Session-scoped fixtures keep the suite fast: the topology, the dataset
and each experiment run are produced once and shared read-only by the
measurement, attack, golden-file and paper-claims tests.
"""

from __future__ import annotations

import gc

import pytest

from repro.collectors.platform import CollectorDeployment
from repro.datasets.synthetic import (
    DatasetParameters,
    SyntheticDatasetBuilder,
)
from repro.experiments import get as get_experiment, run_experiment
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


@pytest.fixture(scope="session")
def experiment_result():
    """``experiment_result(name, seed, **params)``: one default-spec run per key and session,
    shared by the golden files and the paper-claims table."""
    results = {}

    def run(name: str, seed: int, **params):
        key = (name, seed, tuple(sorted(params.items())))
        if key not in results:
            results[key] = run_experiment(get_experiment(name).default_spec(seed=seed, **params))
        return results[key]

    return run


@pytest.fixture()
def collector_state():
    """Restore the cyclic collector's on/off state after the test."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/fixtures/golden/* from the current tree instead of comparing",
    )

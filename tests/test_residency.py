"""Pool leases (:mod:`repro.routing.residency`).

Every :meth:`PoolProvider.acquire` builds a fresh :class:`ShardPool` of
``min(shards, os.cpu_count())`` workers; the :class:`PoolLease` it
returns owns the router-config epoch state and shuts the pool down on
``release()`` or when the owning simulator is collected.  None of these
tests dispatches work, so no worker process starts.
"""

from __future__ import annotations

import gc
import os

from test_resident_service import harden_transit, make_events, small_topology

from repro.experiments import get, run_experiment
from repro.experiments.result import ExperimentStatus
from repro.routing import wire
from repro.routing.engine import BgpSimulator
from repro.routing.residency import PROVIDER
from repro.routing.shard import capture_router_config


def first_transit(topology) -> int:
    return next(asys.asn for asys in topology.transit_ases())


class TestPoolProvider:
    def test_acquire_builds_a_fresh_pool_every_call(self):
        simulator = BgpSimulator(small_topology())
        builds = PROVIDER.stats["builds"]
        first = PROVIDER.acquire(simulator, 2)
        second = PROVIDER.acquire(simulator, 2)
        try:
            assert PROVIDER.stats["builds"] == builds + 2
            assert first.pool is not second.pool
        finally:
            first.release()
            second.release()

    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        simulator = BgpSimulator(small_topology())
        lease = PROVIDER.acquire(simulator, 4)
        try:
            # Fewer workers, same partition: shard placement does not
            # depend on the host.
            assert (lease.pool.workers, lease.pool.shards) == (2, 4)
        finally:
            lease.release()

    def test_lease_starts_from_the_current_router_config(self):
        topology = small_topology()
        simulator = BgpSimulator(topology)
        harden_transit(simulator, make_events(topology, 4), first_transit(topology))
        lease = PROVIDER.acquire(simulator, 2)
        try:
            assert lease.pool.epoch == 0
            assert lease.config_blob() == wire.encode_config(capture_router_config(simulator))
            assert lease.refresh(simulator) is False
        finally:
            lease.release()


class TestPoolLease:
    def test_release_shuts_the_pool_down_and_is_idempotent(self):
        simulator = BgpSimulator(small_topology())
        lease = PROVIDER.acquire(simulator, 2)
        lease.release()
        assert lease.pool._snapshot_token is None
        assert all(executor is None for executor in lease.pool._executors)
        lease.release()
        assert lease.pool._snapshot_token is None

    def test_collecting_the_owner_releases_the_pool(self):
        simulator = BgpSimulator(small_topology())
        lease = PROVIDER.acquire(simulator, 2)
        assert lease._finalizer.alive
        del simulator
        gc.collect()
        assert not lease._finalizer.alive
        assert lease.pool._snapshot_token is None

    def test_refresh_bumps_the_epoch_only_when_the_config_changed(self):
        topology = small_topology()
        simulator = BgpSimulator(topology)
        lease = PROVIDER.acquire(simulator, 2)
        try:
            assert lease.refresh(simulator) is False
            assert lease.pool.epoch == 0
            harden_transit(simulator, make_events(topology, 4), first_transit(topology))
            assert lease.refresh(simulator) is True
            assert lease.pool.epoch == 1
            assert lease.refresh(simulator) is False
            assert lease.pool.epoch == 1
        finally:
            lease.release()

    def test_config_blob_is_encoded_once_per_epoch(self):
        topology = small_topology()
        simulator = BgpSimulator(topology)
        lease = PROVIDER.acquire(simulator, 2)
        try:
            before = lease.config_blob()
            assert lease.config_blob() is before
            harden_transit(simulator, make_events(topology, 4), first_transit(topology))
            lease.refresh(simulator)
            after = lease.config_blob()
            assert after != before
            assert after == wire.encode_config(capture_router_config(simulator))
            assert lease.config_blob() is after
        finally:
            lease.release()

    def test_invalidate_bumps_the_epoch_and_keeps_the_config(self):
        simulator = BgpSimulator(small_topology())
        lease = PROVIDER.acquire(simulator, 2)
        try:
            blob = lease.config_blob()
            lease.invalidate()
            assert lease.pool.epoch == 1
            assert lease.config_blob() is blob
            assert lease.refresh(simulator) is False
        finally:
            lease.release()


class TestExperimentResidency:
    def test_invalid_residency_parameter_is_an_error_result(self):
        """The deleted ``residency`` parameter is unknown: a spec that still
        carries it ends as an error result naming it."""
        spec = get("rtbh").default_spec(seed=7).with_params(residency="bogus")
        result = run_experiment(spec)
        assert result.status is ExperimentStatus.ERROR
        assert "residency" in (result.error or "")

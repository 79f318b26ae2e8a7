"""Runtime sync-protocol sanitizer: unit checks, hook wiring, conformance.

Three layers, mirroring how REPRO_SANITIZE is meant to be used:

* unit tests drive :func:`check_sync_header` / :func:`check_submit` /
  :func:`check_drain` directly and force every
  :class:`ProtocolViolationError`;
* hook tests flip the env var and prove the ``ShardPool`` /
  ``SimulatorService`` dispatch points actually call into the sanitizer
  (and stay silent when the flag is off);
* a conformance test re-runs the resident-service equivalence suite in a
  ``REPRO_SANITIZE=1`` subprocess — the shipped protocol itself must
  produce zero violations.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import SANITIZE_ENV, ProtocolViolationError
from repro.analysis.sanitizer import (
    check_drain,
    check_submit,
    check_sync_header,
    enabled,
)
from repro.bgp.prefix import Prefix
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.shard import ShardPool, stable_shard
from repro.routing.stream import SimulatorService
from repro.topology.generator import TopologyGenerator, TopologyParameters

REPO_ROOT = Path(__file__).parent.parent


def small_topology():
    parameters = TopologyParameters(
        tier1_count=2, transit_count=4, stub_count=10, ixp_count=0, seed=11
    )
    return TopologyGenerator(parameters).generate()


def make_events(topology, count=24):
    ases = sorted(asys.asn for asys in topology)
    base = Prefix.from_string("10.0.0.0/8").network
    return [
        RoutingEvent(origin_asn=ases[index % len(ases)], prefix=Prefix.ipv4(base + (index << 8), 24))
        for index in range(count)
    ]


def idle_pool(workers=2):
    """A pool whose workers are never started — header/submit checks only."""
    return ShardPool(b"", workers=workers, shards=workers * 2)


GOOD_TASK = (0, None, (), (), ())

#: A well-formed (empty) router-config wire blob for envelope tests.
from repro.routing import wire as _wire

EMPTY_CONFIG_BLOB = _wire.encode_config({})


# ------------------------------------------------------------------ unit: env
class TestEnabled:
    @pytest.mark.parametrize(
        "value, expect",
        [("1", True), ("yes", True), ("0", False), ("", False)],
    )
    def test_flag_values(self, monkeypatch, value, expect):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert enabled() is expect

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not enabled()


# -------------------------------------------------------------- unit: headers
class TestCheckSyncHeader:
    def test_current_epoch_header_accepted_and_recorded(self):
        pool = idle_pool()
        check_sync_header(pool, 0, 0, None)
        check_sync_header(pool, 0, 0, None)  # steady state stays legal

    def test_header_must_name_pool_epoch(self):
        pool = idle_pool()
        with pytest.raises(ProtocolViolationError, match="current"):
            check_sync_header(pool, 0, pool.epoch + 1, None)

    def test_epoch_regression_rejected(self):
        pool = idle_pool()
        check_sync_header(pool, 0, 0, None)
        pool.bump_epoch()
        check_sync_header(pool, 0, 1, EMPTY_CONFIG_BLOB)
        pool.epoch = 0  # simulate a buggy pool rolling the generation back
        with pytest.raises(ProtocolViolationError, match="regressed"):
            check_sync_header(pool, 0, 0, None)

    def test_epoch_advance_must_carry_config(self):
        pool = idle_pool()
        check_sync_header(pool, 0, 0, None)
        pool.bump_epoch()
        with pytest.raises(ProtocolViolationError, match="router-config payload"):
            check_sync_header(pool, 0, 1, None)

    def test_unseen_slot_accepted_mid_run(self):
        """Enabling the sanitizer mid-run must not condemn synced slots."""
        pool = idle_pool()
        pool.bump_epoch()
        check_sync_header(pool, 1, 1, None)

    def test_config_payload_must_be_wire_blob(self):
        pool = idle_pool()
        with pytest.raises(ProtocolViolationError, match="bytes"):
            check_sync_header(pool, 0, 0, {65001: ()})


# ------------------------------------------------------------- unit: dispatch
class TestCheckSubmit:
    def test_well_formed_envelopes_pass(self):
        pool = idle_pool()
        check_submit(pool, 0, GOOD_TASK)
        check_submit(pool, 0, (0, EMPTY_CONFIG_BLOB, (), (), (), 123.0))  # harvest shape
        blobs = (_wire.encode_additions({}), _wire.encode_events([]), _wire.encode_states([]))
        check_submit(pool, 0, (0, EMPTY_CONFIG_BLOB, *blobs))  # real wire blobs

    @pytest.mark.parametrize("task", ["nope", (0, None), (0,) * 7, None])
    def test_malformed_envelope_rejected(self, task):
        with pytest.raises(ProtocolViolationError, match="tuple"):
            check_submit(idle_pool(), 0, task)

    def test_task_epoch_must_match_pool(self):
        pool = idle_pool()
        with pytest.raises(ProtocolViolationError, match="agree"):
            check_submit(pool, 0, (5, None, (), (), ()))

    def test_config_slot_must_be_wire_blob_or_none(self):
        with pytest.raises(ProtocolViolationError, match="bytes"):
            check_submit(idle_pool(), 0, (0, {65001: ()}, (), (), ()))

    def test_dispatch_on_stale_header_rejected(self):
        """A bump between sync_header and submit is a protocol break."""
        pool = idle_pool()
        check_sync_header(pool, 0, 0, None)
        pool.bump_epoch()
        with pytest.raises(ProtocolViolationError, match="sync_header"):
            check_submit(pool, 0, (1, EMPTY_CONFIG_BLOB, (), (), ()))

    def test_check_leaves_ship_counters_untouched(self):
        pool = idle_pool()
        before = (pool.tasks_dispatched, pool.ship_bytes, pool.shipped_state_entries)
        check_submit(pool, 0, GOOD_TASK)
        assert (
            pool.tasks_dispatched,
            pool.ship_bytes,
            pool.shipped_state_entries,
        ) == before


# ------------------------------------------------------------------ hook sites
class TestHookWiring:
    def test_pool_hooks_inactive_without_flag(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        pool = idle_pool()
        pool.bump_epoch()
        pool.epoch = 0
        # With the flag off even a rolled-back epoch sails through.
        assert pool.sync_header(0, dict) == (0, None)

    def test_sync_header_hook_raises_through_the_pool(self, monkeypatch):
        from repro.analysis import sanitizer

        monkeypatch.setenv(SANITIZE_ENV, "1")
        pool = idle_pool()
        sanitizer._SLOT_EPOCHS[pool] = {0: 5}  # shadow says slot saw epoch 5
        with pytest.raises(ProtocolViolationError, match="regressed"):
            pool.sync_header(0, dict)

    def test_sanitized_resident_run_matches_sequential(self, monkeypatch):
        """The hooks observe a healthy run without perturbing its result."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        topology = small_topology()
        events = make_events(topology)
        sequential = BgpSimulator(topology, shards=1)
        sequential.apply(events, shards=1)
        sharded = BgpSimulator(topology, shards=2)
        try:
            sharded.apply(events[:12], shards=2)
            sharded.apply(events[12:], shards=2)
            for asn in sorted(sequential.routers):
                assert sorted(sequential.routers[asn].loc_rib.prefixes()) == sorted(
                    sharded.routers[asn].loc_rib.prefixes()
                )
        finally:
            sharded.close()


# ----------------------------------------------------------------- unit: drain
class TestCheckDrain:
    def test_sequential_simulator_is_out_of_scope(self):
        topology = small_topology()
        simulator = BgpSimulator(topology, shards=1)
        simulator.apply(make_events(topology)[:6], shards=1)
        check_drain(simulator)  # no pool: trivially conformant

    def test_healthy_resident_state_passes_audit(self):
        topology = small_topology()
        events = make_events(topology)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events[:12], shards=2)
            simulator.apply(events[12:], shards=2)
            counters_before = simulator._shard_pool.tasks_dispatched
            check_drain(simulator)
            # The audit bypasses submit: ship accounting is untouched.
            assert simulator._shard_pool.tasks_dispatched == counters_before
        finally:
            simulator.close()

    def test_unrecorded_parent_mutation_is_caught(self):
        """Mutating holder state without a record diverges the fingerprints."""
        topology = small_topology()
        events = make_events(topology)
        simulator = BgpSimulator(topology, shards=2)
        try:
            simulator.apply(events[:12], shards=2)
            simulator.apply(events[12:], shards=2)
            pool = simulator._shard_pool
            pending = simulator._pending_sync
            victim = None
            for prefix in sorted(simulator._prefix_holders, key=str):
                settled = simulator._prefix_holders[prefix] - pending.get(prefix, set())
                if not settled:
                    continue
                slot = pool.slot_for(stable_shard(prefix, pool.shards))
                if pool._executors[slot] is None or pool._slot_epochs[slot] != pool.epoch:
                    continue
                victim = (prefix, min(settled))
                break
            assert victim is not None, "expected at least one settled, live pair"
            prefix, asn = victim
            router = simulator.routers[asn]
            mutated = False
            if router.originated.get(prefix) is not None:
                router.originated.pop(prefix)
                mutated = True
            else:
                for _neighbor, rib in sorted(router.adj_rib_in.items()):
                    if rib.get(prefix) is not None:
                        rib.withdraw(prefix)
                        mutated = True
                        break
            assert mutated, "holder pair unexpectedly carried no observable state"
            with pytest.raises(ProtocolViolationError, match="diverged"):
                check_drain(simulator)
        finally:
            simulator.close()

    def test_stream_drain_hook_runs_the_audit(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        topology = small_topology()
        events = make_events(topology)
        simulator = BgpSimulator(topology, shards=2)
        try:
            with SimulatorService(simulator, window=8, shards=2) as service:
                service.feed(events)
            # Clean protocol: the context-manager drain audited and passed.
            assert simulator.report.prefixes
        finally:
            simulator.close()


# ---------------------------------------------------------------- conformance
class TestConformance:
    def test_resident_suite_passes_under_sanitizer(self):
        """Satellite gate: tier-1 resident-service tests, REPRO_SANITIZE=1,
        zero protocol violations (the suite simply passes)."""
        env = dict(os.environ)
        env[SANITIZE_ENV] = "1"
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                str(REPO_ROOT / "tests" / "test_resident_service.py"),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ProtocolViolationError" not in proc.stdout

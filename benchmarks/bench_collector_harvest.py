"""Macrobenchmark — sharded, memoised collector harvesting vs the serial loop.

``CollectorDeployment.collect_from_simulator`` harvests every
(collector, peer) session's full-table export.  This benchmark compares
three executions over the same converged simulator:

* the **legacy loop**: one unmemoised ``export_to`` per Loc-RIB prefix
  and session (what the code did before the harvest subsystem), an
  export path the harvest's own does not run;
* the **memoised serial** path: one harvest-scoped export cache, so N
  collectors sharing a (peer, memo key) read one export table — the
  Loc-RIB walk and the policy/prepend/rewrite chain are paid once, and
  each session runs only its own gates;
* the **sharded** path: the (collector, peer) work-list partitioned by
  peer over the simulator's fork-once worker pool.

All three must produce byte-identical archives (asserted here and in
``tests/test_collector_harvest.py``).  The sharded ordering win is
asserted only on >=4-CPU hosts outside quick mode — process parallelism
cannot win without real cores; the memo win is asserted everywhere
outside quick mode (it is pure algorithmic saving).

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (tiny topology, no
timing assertions).
"""

from __future__ import annotations

import gc
import os
import time

from repro.collectors.observation import ObservationArchive
from repro.collectors.platform import CollectorDeployment
from repro.bgp.prefix import Prefix
from repro.routing.engine import BgpSimulator
from repro.topology.generator import TopologyGenerator, TopologyParameters

#: Quick mode: any value except unset/empty/"0" activates it.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

PREFIX_COUNT = 128 if QUICK else 1_000
WORKER_COUNTS = (2,) if QUICK else (2, 4)

BENCH_PARAMETERS = TopologyParameters(
    tier1_count=3,
    transit_count=5 if QUICK else 20,
    stub_count=16 if QUICK else 80,
    ixp_count=0 if QUICK else 2,
    seed=42,
)


def _build_converged() -> tuple[BgpSimulator, CollectorDeployment]:
    topology = TopologyGenerator(BENCH_PARAMETERS).generate()
    simulator = BgpSimulator(topology, shards=1)
    ases = sorted(asys.asn for asys in topology)
    base = int(Prefix.from_string("10.0.0.0/8").network)
    simulator.announce_many(
        (ases[index % len(ases)], Prefix.ipv4(base + (index << 8), 24))
        for index in range(PREFIX_COUNT)
    )
    deployment = CollectorDeployment.default_deployment(topology, seed=7)
    return simulator, deployment


def _harvest_legacy(
    deployment: CollectorDeployment, simulator: BgpSimulator
) -> ObservationArchive:
    """The pre-subsystem serial loop: no memo, one ``export_to`` per session and prefix."""
    from repro.collectors.observation import RouteObservation

    archive = ObservationArchive()
    for collector in deployment.all_collectors():
        for peer_asn in collector.peer_asns:
            if peer_asn not in simulator.routers:
                continue
            simulator.register_collector_peering(peer_asn, collector.collector_asn)
            router = simulator.router(peer_asn)
            for prefix in router.loc_rib.prefixes():
                decision = router.export_to(collector.collector_asn, prefix)
                if not decision.export:
                    continue
                announcement = decision.announcement
                archive.add(
                    RouteObservation(
                        platform=collector.platform,
                        collector_id=collector.collector_id,
                        peer_asn=peer_asn,
                        prefix=announcement.prefix,
                        as_path=tuple(announcement.attributes.as_path),
                        communities=announcement.attributes.communities,
                        timestamp=0.0,
                    )
                )
    return archive


def _timed(run, *args, **kwargs):
    """Run once with the collector paused so every side pays the same GC cost."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run(*args, **kwargs)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def _rows(archive: ObservationArchive) -> list[tuple]:
    return [
        (o.platform, o.collector_id, o.peer_asn, o.prefix, o.as_path, o.communities)
        for o in archive
    ]


def test_collector_harvest_vs_serial(benchmark):
    simulator, deployment = _build_converged()
    cpu_total = os.cpu_count() or 1
    try:
        legacy, legacy_seconds = _timed(_harvest_legacy, deployment, simulator)
        serial, serial_seconds = _timed(deployment.collect_from_simulator, simulator)
        assert _rows(serial) == _rows(legacy)

        sharded_seconds: dict[int, float] = {}
        for workers in WORKER_COUNTS[:-1]:
            sharded, seconds = _timed(
                deployment.collect_from_simulator, simulator, shards=workers
            )
            assert _rows(sharded) == _rows(serial)
            sharded_seconds[workers] = seconds

        last = WORKER_COUNTS[-1]
        sharded = benchmark.pedantic(
            deployment.collect_from_simulator,
            args=(simulator,),
            kwargs={"shards": last},
            rounds=1,
            iterations=1,
        )
        assert _rows(sharded) == _rows(serial)
        _sharded_again, seconds = _timed(
            deployment.collect_from_simulator, simulator, shards=last
        )
        sharded_seconds[last] = seconds
    finally:
        simulator.close()

    sessions = sum(
        1
        for collector in deployment.all_collectors()
        for peer in collector.peer_asns
        if peer in simulator.routers
    )
    print()
    print(
        f"{len(serial)} observations from {sessions} (collector, peer) sessions "
        f"over {PREFIX_COUNT} prefixes ({cpu_total} CPU(s) visible):"
    )
    print(f"  legacy serial loop (no memo): {legacy_seconds:.2f} s")
    print(
        f"  memoised serial harvest:      {serial_seconds:.2f} s"
        f"  (speedup {legacy_seconds / serial_seconds:.2f}x)"
    )
    for workers, seconds in sorted(sharded_seconds.items()):
        print(
            f"  sharded, {workers} workers:          {seconds:.2f} s"
            f"  (speedup {legacy_seconds / seconds:.2f}x vs legacy)"
        )

    if not QUICK:
        # The memo is a pure algorithmic win: N collectors sharing a peer
        # pay the rewrite chain once.  No cores required.
        assert serial_seconds < legacy_seconds, (
            f"memoised harvest ({serial_seconds:.2f} s) should beat the legacy "
            f"loop ({legacy_seconds:.2f} s)"
        )
    if cpu_total >= 4 and not QUICK:
        best = min(sharded_seconds.values())
        assert best < serial_seconds, (
            f"sharded harvest ({best:.2f} s) should beat the memoised serial "
            f"path ({serial_seconds:.2f} s) on {cpu_total} CPUs"
        )

"""Macrobenchmark — sharded multi-process propagation vs the batch engine.

``BgpSimulator.apply`` with ``shards=K`` partitions a multi-prefix batch
by a stable prefix hash and converges each partition in a worker process
against a shared pickled topology snapshot (fork-once pool, reused
across calls), merging the per-shard reports and Loc-RIB deltas back so
the parent state is byte-identical to the single-process batch engine
(asserted here and in ``tests/test_sharded_propagation.py``).

On a multi-core host the sharded pass beats the single-process batch
engine on a >=1k-prefix batch; speedups are reported for 2 and 4
workers.  On a single-core host (or in quick mode) the numbers are still
printed but the ordering is not asserted — process parallelism cannot
win without a second CPU, and a loaded CI box must not flake the gate.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (tiny topology, small
batch, no timing assertions).
"""

from __future__ import annotations

import gc
import os
import time

from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane
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
    ixp_count=0,
    seed=42,
)


def _events(topology) -> list[tuple[int, Prefix]]:
    """Originations spread round-robin over every AS."""
    ases = sorted(asys.asn for asys in topology)
    base = int(Prefix.from_string("10.0.0.0/8").network)
    return [
        (ases[index % len(ases)], Prefix.ipv4(base + (index << 8), 24))
        for index in range(PREFIX_COUNT)
    ]


def _run_single_process(topology, events) -> tuple[BgpSimulator, DataPlane]:
    """The PR 2 batch engine: one in-process worklist pass."""
    simulator = BgpSimulator(topology, shards=1)
    dataplane = DataPlane(simulator)
    dataplane.rebuild(simulator.announce_many(events))
    return simulator, dataplane


def _run_sharded(topology, events, workers: int) -> tuple[BgpSimulator, DataPlane]:
    """K prefix shards over min(K, CPU count) worker processes, merged back into the parent."""
    simulator = BgpSimulator(topology, shards=workers)
    try:
        dataplane = DataPlane(simulator)
        dataplane.rebuild(simulator.announce_many(events))
    finally:
        simulator.close()
    return simulator, dataplane


def _timed(run, *args):
    """Run once with the collector paused so every side pays the same GC cost."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run(*args)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def _assert_identical(reference: BgpSimulator, plane, other: BgpSimulator, other_plane):
    """The sharded merge must reproduce the single-process state exactly."""
    for asn, router in reference.routers.items():
        twin = other.routers[asn]
        assert sorted(router.loc_rib.prefixes()) == sorted(twin.loc_rib.prefixes())
        for prefix in router.loc_rib.prefixes():
            assert router.loc_rib.best(prefix) == twin.loc_rib.best(prefix)
        ours = {entry.prefix: entry for entry in plane.fib(asn).entries()}
        theirs = {entry.prefix: entry for entry in other_plane.fib(asn).entries()}
        assert ours == theirs
    assert reference.report.dirty == other.report.dirty
    assert (
        reference.report.announcements_processed == other.report.announcements_processed
    )


def test_sharded_propagation_vs_single_process(benchmark):
    topology = TopologyGenerator(BENCH_PARAMETERS).generate()
    events = _events(topology)
    cpu_total = os.cpu_count() or 1

    (single_sim, single_plane), single_seconds = _timed(
        _run_single_process, topology, events
    )

    sharded_seconds: dict[int, float] = {}
    for workers in WORKER_COUNTS[:-1]:
        (sharded_sim, sharded_plane), seconds = _timed(_run_sharded, topology, events, workers)
        _assert_identical(single_sim, single_plane, sharded_sim, sharded_plane)
        sharded_seconds[workers] = seconds
        del sharded_sim, sharded_plane

    last = WORKER_COUNTS[-1]
    sharded_sim, sharded_plane = benchmark.pedantic(
        _run_sharded, args=(topology, events, last), rounds=1, iterations=1
    )
    _assert_identical(single_sim, single_plane, sharded_sim, sharded_plane)
    _, seconds = _timed(_run_sharded, topology, events, last)
    sharded_seconds[last] = seconds

    print()
    print(
        f"{PREFIX_COUNT} prefixes over {len(single_sim.routers)} ASes "
        f"({cpu_total} CPU(s) visible):"
    )
    print(f"  single-process batch engine: {single_seconds:.2f} s")
    for workers, seconds in sorted(sharded_seconds.items()):
        speedup = single_seconds / seconds
        print(
            f"  sharded, {workers} workers:        {seconds:.2f} s"
            f"  (speedup {speedup:.2f}x)"
        )

    # Process parallelism has to pay for shipping the per-prefix state
    # back through the parent (the serial tail of the merge), so the win
    # needs real cores: assert the ordering only where it is physically
    # winnable (not on 1-2 CPU boxes, and not in quick mode, whose batch
    # is too small to amortise worker start-up).
    if cpu_total >= 4 and not QUICK:
        best = min(sharded_seconds.values())
        assert best < single_seconds, (
            f"sharded propagation ({best:.2f} s) should beat the "
            f"single-process batch engine ({single_seconds:.2f} s) on "
            f"{cpu_total} CPUs"
        )
        # Scaling sanity: adding workers must not make things slower.  5%
        # tolerance absorbs scheduler noise on shared CI boxes.
        speedups = {
            workers: single_seconds / seconds
            for workers, seconds in sharded_seconds.items()
        }
        for low, high in zip(sorted(speedups), sorted(speedups)[1:]):
            assert speedups[high] >= speedups[low] * 0.95, (
                f"speedup regressed from {speedups[low]:.2f}x at {low} workers "
                f"to {speedups[high]:.2f}x at {high} workers"
            )

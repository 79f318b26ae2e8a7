"""Macrobenchmark — shard-pool residency: a warm grid vs cold-started cells.

The residency layer's claim: a grid of experiment cells over the same
topology structure should not pay a shard-pool cold start per lifecycle.
Each cell here is one simulated experiment lifecycle run twice — a
converging announce batch, a ``close()`` (the lease goes back to the
provider), then a churn batch on the *same* simulator.  Under
``residency="none"`` every phase builds a fresh pool (2 builds x 8
cells) and the post-close phase re-ships the converged state from
scratch; under ``residency="auto"`` the first cell's pool is adopted by
every later cell and *resumed* across each cell's close boundary, so
the pool is built once and the churn phases ship deltas only.

Gates (deterministic counters, so they run in quick mode too):

* the warm grid constructs strictly fewer pools than it has cells, and
  strictly fewer than the cold grid (which pays one per phase), with one
  resume per close boundary and one adoption per later cell;
* both grids converge identical per-cell report counters (the
  byte-identity contract is pinned exactly in ``tests/test_residency.py``).

Full mode only:

* the warm grid ships strictly fewer bytes than the cold grid overall
  (resumed leases skip the full holder-map re-seed).  The saving scales
  with the prefix count and the cost it is set against does not: every
  adoption re-seeds the adopting cell's holder map once.  At quick
  mode's 48 prefixes that re-seed outweighs the resumed deltas (warm
  235 620 bytes against cold 217 728, deterministic), so the inequality
  is a property of the full-size grid, not of the protocol, and gating
  it in quick mode kept CI ``bench-smoke`` red;
* the warm grid is also faster wall-clock.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (tiny topology; the
pool-build / adoption / resume gates still run).
"""

from __future__ import annotations

import gc
import os
import time

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.routing.residency import residency_scope
from repro.topology.generator import TopologyGenerator, TopologyParameters

#: Quick mode: any value except unset/empty/"0" activates it.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Grid cells; each runs two sharded phases split by a ``close()``.
CELLS = 8
WORKERS = 2
PREFIX_COUNT = 48 if QUICK else 300

BENCH_PARAMETERS = TopologyParameters(
    tier1_count=3,
    transit_count=5 if QUICK else 16,
    stub_count=16 if QUICK else 64,
    ixp_count=0,
    seed=42,
)


def _events(topology, phase: int) -> list[RoutingEvent]:
    """Announce (phase 0) or churn the same prefixes with a tag (phase 1)."""
    ases = sorted(asys.asn for asys in topology)
    base = int(Prefix.from_string("10.0.0.0/8").network)
    tag = CommunitySet.of(BLACKHOLE) if phase else None
    return [
        RoutingEvent(
            origin_asn=ases[index % len(ases)],
            prefix=Prefix.ipv4(base + (index << 8), 24),
            communities=tag,
        )
        for index in range(PREFIX_COUNT)
    ]


def _timed(run, *args, **kwargs):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run(*args, **kwargs)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def _run_grid(policy: str, topologies) -> dict:
    """Drive the cell grid under one residency policy.

    Every cell gets its own topology *object* (equal structure — the
    warm path must adopt, not resume, across cells) and its own
    simulator; the close between the phases is the lifecycle boundary
    the residency layer exists to bridge.
    """
    pools: dict[int, object] = {}
    reports: list[int] = []
    with residency_scope(policy) as provider:
        for topology in topologies:
            simulator = BgpSimulator(topology, shards=WORKERS)
            for phase in range(2):
                simulator.apply(_events(topology, phase), shards=WORKERS)
                pool = simulator._shard_pool
                pools[id(pool)] = pool
                simulator.close()
            reports.append(simulator.report.announcements_processed)
        stats = dict(provider.stats)
    return {
        "stats": stats,
        "ship_bytes": sum(pool.ship_bytes for pool in pools.values()),
        "pool_count": len(pools),
        "reports": reports,
    }


def test_warm_grid_builds_fewer_pools_and_ships_fewer_bytes(benchmark):
    cpu_total = os.cpu_count() or 1
    topologies = [TopologyGenerator(BENCH_PARAMETERS).generate() for _ in range(CELLS)]

    cold, cold_seconds = _timed(_run_grid, "none", topologies)
    start = time.perf_counter()
    warm = benchmark.pedantic(
        _run_grid, args=("auto", topologies), rounds=1, iterations=1
    )
    warm_seconds = time.perf_counter() - start

    print()
    print(
        f"{CELLS} cells x 2 phases, {PREFIX_COUNT} prefixes, {WORKERS} workers, "
        f"{cpu_total} CPU(s) visible"
    )
    for label, run, seconds in (("cold", cold, cold_seconds), ("warm", warm, warm_seconds)):
        stats = run["stats"]
        print(
            f"  {label}: {seconds:.2f} s, {stats['builds']} pool builds, "
            f"{stats['adoptions']} adoptions, {stats['resumes']} resumes, "
            f"{run['ship_bytes'] / 1024:.1f} KiB shipped"
        )

    # Both grids must converge identically, cell for cell.
    assert warm["reports"] == cold["reports"]

    # The residency contract: strictly fewer pool constructions than
    # cells (the acceptance criterion) — the cold grid pays one build
    # per phase, the warm grid reuses one pool throughout.
    assert cold["stats"]["builds"] == 2 * CELLS
    assert warm["stats"]["builds"] < CELLS
    assert warm["stats"]["builds"] < cold["stats"]["builds"]
    assert warm["stats"]["resumes"] >= CELLS  # one per close boundary
    assert warm["stats"]["adoptions"] >= CELLS - 1  # one per later cell

    if not QUICK:
        # The ship-bytes contract: resumed leases skip the full holder-map
        # re-seed the cold grid pays after every close (see the module
        # docstring for why this needs the full-size grid).
        assert warm["ship_bytes"] < cold["ship_bytes"], (
            f"warm grid shipped {warm['ship_bytes']} bytes, expected strictly fewer "
            f"than the cold grid's {cold['ship_bytes']}"
        )
        # Warm residency also wins wall-clock: it skips worker spawns
        # and full-state re-ships (CI boxes are too noisy to gate on).
        assert warm_seconds < cold_seconds, (
            f"warm grid ({warm_seconds:.2f} s) should beat the cold grid "
            f"({cold_seconds:.2f} s)"
        )

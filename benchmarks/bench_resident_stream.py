"""Macrobenchmark — resident shard service: delta shipping.

The resident refactor's claim: after the first dispatch the workers keep
their shard of the RIB, so later rounds ship **deltas only** (the events
plus whatever the parent mutated in between) instead of re-sending the
converged per-prefix state.  This benchmark drives a preseed-plus-churn
scenario and checks that claim on the pool's own ship counters:

* round 1 (cold pool) ships the full pending backlog — every
  (prefix, holder) pair the preseed converged — plus the events;
* every later round ships strictly fewer bytes and zero state entries
  (events only in steady state); ship accounting is always on, no env
  var required;
* wall-clock per round is printed, and the resident round is asserted
  faster than the cold one only outside quick mode (the cold round pays
  worker spawn, so residency wins on any core count, but CI boxes are
  too noisy for a hard gate).

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (tiny topology, no
timing assertions; the byte assertions still run — counters are
deterministic).
"""

from __future__ import annotations

import gc
import os
import time

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.routing.engine import BgpSimulator, RoutingEvent
from repro.topology.generator import TopologyGenerator, TopologyParameters

#: Quick mode: any value except unset/empty/"0" activates it.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

PREFIX_COUNT = 96 if QUICK else 600
CHURN_ROUNDS = 3
WORKERS = 2

BENCH_PARAMETERS = TopologyParameters(
    tier1_count=3,
    transit_count=5 if QUICK else 16,
    stub_count=16 if QUICK else 64,
    ixp_count=0,
    seed=42,
)


def _events(topology, round_index: int) -> list[RoutingEvent]:
    """One churn round over the same prefixes (tags vary per round)."""
    ases = sorted(asys.asn for asys in topology)
    base = int(Prefix.from_string("10.0.0.0/8").network)
    tag = CommunitySet.of(BLACKHOLE) if round_index % 2 else None
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


def _drive(topology, benchmark=None):
    """Preseed sequentially, then run the churn rounds through the pool.

    Returns ``(seed_seconds, round_seconds, round_bytes, round_states)``.
    """
    simulator = BgpSimulator(topology, shards=WORKERS)
    try:
        # Preseed sequentially: the converged state exists before any
        # pool does, so the cold round must ship all of it.
        _, seed_seconds = _timed(simulator.apply, _events(topology, 0), shards=1)

        round_seconds: list[float] = []
        round_bytes: list[int] = []
        round_states: list[int] = []
        shipped_bytes = shipped_states = 0
        for round_index in range(1, CHURN_ROUNDS + 1):
            events = _events(topology, round_index)
            if benchmark is not None and round_index == CHURN_ROUNDS:
                benchmark.pedantic(
                    simulator.apply,
                    args=(events,),
                    kwargs={"shards": WORKERS},
                    rounds=1,
                    iterations=1,
                )
            _, seconds = _timed(simulator.apply, events, shards=WORKERS)
            pool = simulator._shard_pool
            round_seconds.append(seconds)
            round_bytes.append(pool.ship_bytes - shipped_bytes)
            round_states.append(pool.shipped_state_entries - shipped_states)
            shipped_bytes, shipped_states = pool.ship_bytes, pool.shipped_state_entries
    finally:
        simulator.close()
    return seed_seconds, round_seconds, round_bytes, round_states


def test_resident_rounds_ship_deltas(benchmark):
    cpu_total = os.cpu_count() or 1
    topology = TopologyGenerator(BENCH_PARAMETERS).generate()
    seed_seconds, round_seconds, round_bytes, round_states = _drive(
        topology, benchmark=benchmark
    )

    print()
    print(
        f"{PREFIX_COUNT} prefixes, {WORKERS} workers, {cpu_total} CPU(s) visible; "
        f"sequential preseed: {seed_seconds:.2f} s"
    )
    for index, (seconds, size, states) in enumerate(
        zip(round_seconds, round_bytes, round_states), start=1
    ):
        label = "cold" if index == 1 else "resident"
        print(
            f"  round {index} ({label}): {seconds:.2f} s, "
            f"{size / 1024:.1f} KiB shipped, {states} state entries"
        )

    # The delta-only contract, on the pool's own counters: the cold
    # round re-ships the preseeded state, every resident round does not.
    assert round_states[0] > 0, "cold round should ship the preseeded backlog"
    for index, (size, states) in enumerate(zip(round_bytes, round_states)):
        if index == 0:
            continue
        assert size < round_bytes[0], (
            f"resident round {index + 1} shipped {size} bytes, expected strictly "
            f"fewer than the cold round's {round_bytes[0]}"
        )
        assert states == 0, (
            f"resident round {index + 1} shipped {states} state entries, "
            "expected delta-only (zero) in steady state"
        )

    if not QUICK:
        # Residency also wins wall-clock: the cold round pays worker
        # spawn + full-state shipping that later rounds skip.
        resident_best = min(round_seconds[1:])
        assert resident_best < round_seconds[0], (
            f"resident round ({resident_best:.2f} s) should beat the cold "
            f"round ({round_seconds[0]:.2f} s)"
        )

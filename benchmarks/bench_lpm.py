"""Microbenchmark — the LPM table vs the old linear-scan lookup.

Every data-plane validation (ping/traceroute over the per-AS FIBs, the
IP-to-AS mapping of Section 7.6) funnels through longest-prefix-match
lookups.  This benchmark builds a 10k-prefix table and compares the
per-length dict probes of :mod:`repro.net.lpm` against the O(n) scan
they replaced, asserting the ≥10x speedup the subsystem was built for.
"""

from __future__ import annotations

import random
import time

from repro.bgp.prefix import AddressFamily, Prefix
from repro.net.lpm import LpmTable

TABLE_SIZE = 10_000
LOOKUPS = 2_000


def _build_table(rng: random.Random) -> dict[Prefix, int]:
    table: dict[Prefix, int] = {}
    while len(table) < TABLE_SIZE:
        length = rng.randint(8, 24)
        table[Prefix.ipv4(rng.getrandbits(32), length)] = len(table)
    return table


def _linear_lookup(table: dict[Prefix, int], address: int) -> int | None:
    """The reference semantics: scan every prefix, keep the longest match."""
    best_value: int | None = None
    best_length = -1
    for prefix, value in table.items():
        if prefix.contains_address(address) and prefix.length > best_length:
            best_value, best_length = value, prefix.length
    return best_value


def test_lpm_table_speedup_over_linear_scan(benchmark):
    rng = random.Random(20180701)
    table = _build_table(rng)
    lpm = LpmTable()
    for prefix, value in table.items():
        lpm.insert(prefix, value)
    # Half the probes land inside stored prefixes, half are random misses.
    stored = list(table)
    addresses = [rng.choice(stored).host() for _ in range(LOOKUPS // 2)]
    addresses += [rng.getrandbits(32) for _ in range(LOOKUPS // 2)]

    def lpm_batch() -> int:
        hits = 0
        for address in addresses:
            if lpm.longest_match(address, AddressFamily.IPV4) is not None:
                hits += 1
        return hits

    lpm_hits = benchmark.pedantic(lpm_batch, rounds=3, iterations=1)

    # Time the reference scan over a subset (full batches would take minutes)
    # and compare per-lookup costs.
    linear_sample = addresses[:: LOOKUPS // 100]
    start = time.perf_counter()
    linear_results = [_linear_lookup(table, address) for address in linear_sample]
    linear_per_lookup = (time.perf_counter() - start) / len(linear_sample)

    start = time.perf_counter()
    lpm_results = [lpm.longest_match(address, AddressFamily.IPV4) for address in linear_sample]
    lpm_per_lookup = (time.perf_counter() - start) / len(linear_sample)

    # Same answers, much faster.
    assert lpm_results == linear_results
    assert lpm_hits >= LOOKUPS // 2
    speedup = linear_per_lookup / lpm_per_lookup
    print()
    print(
        f"table={TABLE_SIZE} prefixes: linear {linear_per_lookup * 1e6:.1f} us/lookup, "
        f"table {lpm_per_lookup * 1e6:.1f} us/lookup, speedup {speedup:.0f}x"
    )
    assert speedup >= 10.0


def test_lpm_table_build_cost(benchmark):
    """Building the table (the insert path) stays cheap enough to do per FIB."""
    rng = random.Random(7)
    table = _build_table(rng)

    def build() -> LpmTable:
        lpm = LpmTable()
        for prefix, value in table.items():
            lpm.insert(prefix, value)
        return lpm

    lpm = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(lpm) == TABLE_SIZE

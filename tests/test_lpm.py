"""Tests for the per-family LPM tables (repro.net.lpm).

Covers the table's exact-match and LPM primitives, property-style
cross-checks of ``longest_match``, ``covering`` and ``covered`` against
a linear scan in both families, and the family-separation regression:
an IPv4 address must never match an IPv6 prefix in any of the
table-backed consumers (Fib, the topology's origin table).
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.prefix import AddressFamily, Prefix
from repro.dataplane.fib import Fib, FibEntry
from repro.net.lpm import LpmTable


def p(text: str) -> Prefix:
    return Prefix.from_string(text)


def linear_longest_match(table: dict[Prefix, object], address: int, family: AddressFamily):
    """The reference semantics: scan, restricted to one family."""
    best = None
    for prefix, value in table.items():
        if prefix.family != family:
            continue
        if prefix.contains_address(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


def random_prefixes(rng: random.Random, family: AddressFamily, count: int) -> list[Prefix]:
    """Random prefixes of every length, half of them nested around a few base addresses."""
    bits = family.bits
    bases = [rng.getrandbits(bits) for _ in range(4)]
    prefixes = []
    for _ in range(count):
        network = rng.choice(bases) if rng.random() < 0.5 else rng.getrandbits(bits)
        prefixes.append(Prefix(family, network, rng.randint(0, bits)))
    return prefixes


FAMILIES = pytest.mark.parametrize("family", [AddressFamily.IPV4, AddressFamily.IPV6])


class TestLpmTable:
    def test_insert_get_delete(self):
        table = LpmTable()
        table.insert(p("10.0.0.0/8"), "a")
        table.insert(p("10.1.0.0/16"), "b")
        assert len(table) == 2
        assert table.get(p("10.0.0.0/8")) == "a"
        assert table.get(p("10.1.0.0/16")) == "b"
        assert table.get(p("10.2.0.0/16")) is None
        assert p("10.0.0.0/8") in table
        assert table.delete(p("10.0.0.0/8"))
        assert not table.delete(p("10.0.0.0/8"))
        assert len(table) == 1
        assert table.get(p("10.0.0.0/8")) is None
        assert table.get(p("10.1.0.0/16")) == "b"

    def test_reinsert_replaces_value(self):
        table = LpmTable()
        table.insert(p("10.0.0.0/8"), "a")
        table.insert(p("10.0.0.0/8"), "b")
        assert len(table) == 1
        assert table.get(p("10.0.0.0/8")) == "b"

    def test_longest_match(self):
        table = LpmTable()
        table.insert(p("0.0.0.0/0"), "default")
        table.insert(p("10.0.0.0/8"), "eight")
        table.insert(p("10.1.0.0/16"), "sixteen")
        table.insert(p("10.1.2.0/24"), "twentyfour")
        assert table.longest_match(p("10.1.2.0/24").network, AddressFamily.IPV4) == "twentyfour"
        assert table.longest_match(p("10.1.9.0/24").network, AddressFamily.IPV4) == "sixteen"
        assert table.longest_match(p("10.9.0.0/16").network, AddressFamily.IPV4) == "eight"
        assert table.longest_match(p("192.0.2.0/24").network, AddressFamily.IPV4) == "default"
        # Out of the family's range: not even the default route matches.
        assert table.longest_match(-1, AddressFamily.IPV4) is None
        assert table.longest_match(1 << 32, AddressFamily.IPV4) is None

    def test_host_route_match(self):
        table = LpmTable()
        host = p("192.0.2.1/32")
        table.insert(host, "host")
        assert table.longest_match(host.network, AddressFamily.IPV4) == "host"
        assert table.longest_match(host.network + 1, AddressFamily.IPV4) is None

    def test_covering_and_covered(self):
        table = LpmTable()
        table.insert(p("10.0.0.0/8"), "eight")
        table.insert(p("10.1.0.0/16"), "sixteen")
        table.insert(p("10.1.2.0/24"), "twentyfour")
        table.insert(p("192.0.2.0/24"), "other")
        assert table.covering(p("10.1.2.0/25")) == ["eight", "sixteen", "twentyfour"]
        assert set(table.covered(p("10.0.0.0/8"))) == {"eight", "sixteen", "twentyfour"}
        assert table.covered(p("11.0.0.0/8")) == []
        assert table.covered(p("192.0.2.0/24")) == ["other"]

    def test_values_and_len(self):
        table = LpmTable()
        prefixes = [p("2001:db8::/32"), p("2001:db8:1::/48"), p("::/0")]
        for i, prefix in enumerate(prefixes):
            table.insert(prefix, i)
        assert len(table) == 3
        assert list(table.values()) == [0, 1, 2]

    @FAMILIES
    def test_property_random_churn_matches_linear_scan(self, family):
        """Random insert/delete sequences cross-checked against the linear scan."""
        rng = random.Random(20260729 + family)
        bits = family.bits
        table = LpmTable()
        reference: dict[Prefix, int] = {}
        for step, prefix in enumerate(random_prefixes(rng, family, 2000)):
            if rng.random() < 0.3 and reference:
                victim = rng.choice(list(reference))
                assert table.delete(victim)
                del reference[victim]
            else:
                table.insert(prefix, step)
                reference[prefix] = step
            assert len(table) == len(reference)
        # Exact lookups agree for every stored prefix.
        for prefix, value in reference.items():
            assert table.get(prefix) == value
        # LPM agrees with the linear scan for random addresses and for
        # addresses inside stored prefixes (hits are likelier there).
        probes = [rng.getrandbits(bits) for _ in range(300)]
        probes += [prefix.network for prefix in list(reference)[:300]]
        for address in probes:
            expected = linear_longest_match(reference, address, family)
            got = table.longest_match(address, family)
            assert got == (None if expected is None else expected[1])

    @FAMILIES
    def test_property_covering_and_covered_match_a_filtered_scan(self, family):
        rng = random.Random(99 + family)
        table = LpmTable()
        reference: dict[Prefix, int] = {}
        for step, prefix in enumerate(random_prefixes(rng, family, 600)):
            table.insert(prefix, step)
            reference[prefix] = step
        other = AddressFamily.IPV6 if family == AddressFamily.IPV4 else AddressFamily.IPV4
        table.insert(Prefix(other, 0, 0), "other family")
        by_length = sorted(reference.items(), key=lambda item: item[0].length)
        for query in random_prefixes(rng, family, 300) + list(reference)[:100]:
            covering = [value for prefix, value in by_length if prefix.contains_prefix(query)]
            covered = [value for prefix, value in reference.items() if query.contains_prefix(prefix)]
            assert table.covering(query) == covering
            assert sorted(table.covered(query)) == sorted(covered)

    def test_property_delete_everything_leaves_empty_table(self):
        rng = random.Random(7)
        table = LpmTable()
        prefixes = {Prefix.ipv4(rng.getrandbits(32), rng.randint(1, 32)) for _ in range(500)}
        # Sorted, so neither order depends on PYTHONHASHSEED.
        for i, prefix in enumerate(sorted(prefixes)):
            table.insert(prefix, i)
        order = sorted(prefixes)
        rng.shuffle(order)
        for prefix in order:
            assert table.delete(prefix)
        assert len(table) == 0
        assert table.longest_match(rng.getrandbits(32), AddressFamily.IPV4) is None
        # No emptied prefix length is left to probe.
        assert not table._counts and table._lengths == {AddressFamily.IPV4: []}

    def test_families_are_separate(self):
        table = LpmTable()
        v4 = p("10.0.0.0/8")
        # IPv6 prefix whose bit pattern covers the IPv4 integer 10.0.0.1
        # when lengths are compared family-blind (the old bug).
        v6 = p("::a00:0/104")
        table.insert(v4, "v4")
        table.insert(v6, "v6")
        address = p("10.0.0.1/32").network
        assert v6.contains_address(address)  # the bit pattern really does collide
        assert table.longest_match(address, AddressFamily.IPV4) == "v4"
        assert table.longest_match(address, AddressFamily.IPV6) == "v6"

    def test_delete_and_get_across_families(self):
        table = LpmTable()
        table.insert(p("10.0.0.0/8"), 1)
        table.insert(p("2001:db8::/32"), 2)
        assert len(table) == 2
        assert table.get(p("10.0.0.0/8")) == 1
        assert table.delete(p("10.0.0.0/8"))
        assert not table.delete(p("10.0.0.0/8"))
        assert not table.delete(p("192.0.2.0/24"))
        assert len(table) == 1
        assert p("2001:db8::/32") in table
        assert list(table.values()) == [2]

    def test_covering_empty_family(self):
        table = LpmTable()
        assert table.covering(p("10.0.0.0/8")) == []
        assert table.covered(p("10.0.0.0/8")) == []
        assert table.longest_match(0, AddressFamily.IPV4) is None


class TestCrossFamilyRegressions:
    """An IPv4 address must never match an IPv6 prefix (and vice versa)."""

    V4 = p("10.0.0.0/8")
    V6_COLLIDER = p("::a00:0/104")  # covers int(10.0.0.1) when family-blind
    ADDRESS = p("10.0.0.1/32").network

    def test_fib_lookup_is_family_safe(self):
        fib = Fib(1)
        fib.install(FibEntry(self.V6_COLLIDER, next_hop_asn=9))
        assert fib.lookup(self.ADDRESS, AddressFamily.IPV4) is None
        fib.install(FibEntry(self.V4, next_hop_asn=2))
        hit = fib.lookup(self.ADDRESS, AddressFamily.IPV4)
        assert hit is not None and hit.next_hop_asn == 2
        hit6 = fib.lookup(self.ADDRESS, AddressFamily.IPV6)
        assert hit6 is not None and hit6.next_hop_asn == 9

    def test_ip2as_lookup_is_family_safe(self):
        from repro.topology.asys import AutonomousSystem
        from repro.topology.topology import Topology

        topology = Topology()
        topology.add_as(AutonomousSystem(asn=9, prefixes=[self.V6_COLLIDER]))
        assert topology.origin_table().longest_match(self.ADDRESS, AddressFamily.IPV4) is None
        topology.add_as(AutonomousSystem(asn=2, prefixes=[self.V4]))
        origins = topology.origin_table()
        assert origins.longest_match(self.ADDRESS, AddressFamily.IPV4) == 2
        assert origins.longest_match(self.ADDRESS, AddressFamily.IPV6) == 9
        assert origins.covering(p("10.1.0.0/16")) == [2]
        assert origins.covering(p("2001:db8::/32")) == []

    def test_atlas_measure_reaches_low_ipv6_targets(self):
        # A low IPv6 target (inside ::/96) has an integer address that looks
        # like IPv4; measure() must pass the target family through so the
        # lookup hits the IPv6 prefixes.
        from repro.dataplane.forwarding import DataPlane
        from repro.policy.community_policy import ForwardAllPolicy
        from repro.probing.atlas import AtlasPlatform, VantagePoint
        from repro.routing.engine import BgpSimulator
        from repro.topology.asys import AutonomousSystem
        from repro.topology.topology import Topology

        topology = Topology()
        for asn in (10, 20):
            topology.add_as(AutonomousSystem(asn=asn, propagation_policy=ForwardAllPolicy()))
        topology.add_customer_link(10, 20)
        simulator = BgpSimulator(topology)
        target = p("::/48")  # host ::1 == 1, far below 2**32
        simulator.announce(20, target)
        plane = DataPlane(simulator)
        atlas = AtlasPlatform([VantagePoint(probe_id=1, asn=10)])
        assert atlas.measure(plane, target) == {1}


class TestFibTableConsistency:
    """A FIB's removes must reach its table's length index, too."""

    def test_install_remove_and_reinstall_keep_table_in_sync(self):
        fib = Fib(1)
        prefix = p("10.0.0.0/8")
        fib.install(FibEntry(prefix, next_hop_asn=7))
        assert fib.lookup(prefix.host(), prefix.family) is not None
        fib.remove(prefix)
        assert fib.lookup(prefix.host(), prefix.family) is None
        fib.install(FibEntry(prefix, next_hop_asn=8))
        assert fib.lookup(prefix.host(), prefix.family).next_hop_asn == 8
        fib.remove(prefix)
        assert fib.lookup(prefix.host(), prefix.family) is None
        assert len(fib) == 0

    def test_lookup_prefers_most_specific(self):
        fib = Fib(1)
        outer, inner = p("10.0.0.0/8"), p("10.1.0.0/16")
        fib.install(FibEntry(outer, next_hop_asn=2))
        fib.install(FibEntry(inner, next_hop_asn=3))
        assert fib.lookup(p("10.1.2.3/32").network, AddressFamily.IPV4).next_hop_asn == 3
        assert fib.lookup(p("10.2.2.3/32").network, AddressFamily.IPV4).next_hop_asn == 2

"""Tests for the per-family radix-trie LPM subsystem (repro.net.lpm).

Covers the trie primitives, property-style cross-checks against the old
linear-scan semantics, and the family-separation regression: an IPv4
address must never match an IPv6 prefix in any of the trie-backed
consumers (Fib, the topology's origin table).
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.prefix import AddressFamily, Prefix
from repro.dataplane.fib import Fib, FibEntry
from repro.exceptions import PrefixError
from repro.net.lpm import LpmTable, RadixTrie, infer_family


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


class TestRadixTrie:
    def test_insert_get_delete(self):
        trie = RadixTrie(AddressFamily.IPV4)
        trie.insert(p("10.0.0.0/8"), "a")
        trie.insert(p("10.1.0.0/16"), "b")
        assert len(trie) == 2
        assert trie.get(p("10.0.0.0/8")) == "a"
        assert trie.get(p("10.1.0.0/16")) == "b"
        assert trie.get(p("10.2.0.0/16")) is None
        assert p("10.0.0.0/8") in trie
        assert trie.delete(p("10.0.0.0/8"))
        assert not trie.delete(p("10.0.0.0/8"))
        assert len(trie) == 1
        assert trie.get(p("10.0.0.0/8")) is None
        assert trie.get(p("10.1.0.0/16")) == "b"

    def test_reinsert_replaces_value(self):
        trie = RadixTrie(AddressFamily.IPV4)
        trie.insert(p("10.0.0.0/8"), "a")
        trie.insert(p("10.0.0.0/8"), "b")
        assert len(trie) == 1
        assert trie.get(p("10.0.0.0/8")) == "b"

    def test_longest_match(self):
        trie = RadixTrie(AddressFamily.IPV4)
        trie.insert(p("0.0.0.0/0"), "default")
        trie.insert(p("10.0.0.0/8"), "eight")
        trie.insert(p("10.1.0.0/16"), "sixteen")
        trie.insert(p("10.1.2.0/24"), "twentyfour")
        assert trie.longest_match(p("10.1.2.0/24").network)[1] == "twentyfour"
        assert trie.longest_match(p("10.1.9.0/24").network)[1] == "sixteen"
        assert trie.longest_match(p("10.9.0.0/16").network)[1] == "eight"
        assert trie.longest_match(p("192.0.2.0/24").network)[1] == "default"
        assert trie.longest_match(-1) is None
        assert trie.longest_match(1 << 32) is None

    def test_host_route_match(self):
        trie = RadixTrie(AddressFamily.IPV4)
        host = p("192.0.2.1/32")
        trie.insert(host, "host")
        assert trie.longest_match(host.network)[1] == "host"
        assert trie.longest_match(host.network + 1) is None

    def test_covering_and_covered(self):
        trie = RadixTrie(AddressFamily.IPV4)
        trie.insert(p("10.0.0.0/8"), "eight")
        trie.insert(p("10.1.0.0/16"), "sixteen")
        trie.insert(p("10.1.2.0/24"), "twentyfour")
        trie.insert(p("192.0.2.0/24"), "other")
        covering = trie.covering(p("10.1.2.0/25"))
        assert [v for _, v in covering] == ["eight", "sixteen", "twentyfour"]
        covered = {v for _, v in trie.covered(p("10.0.0.0/8"))}
        assert covered == {"eight", "sixteen", "twentyfour"}
        assert trie.covered(p("11.0.0.0/8")) == []
        assert [v for _, v in trie.covered(p("192.0.2.0/24"))] == ["other"]

    def test_family_mismatch_raises(self):
        trie = RadixTrie(AddressFamily.IPV4)
        with pytest.raises(PrefixError):
            trie.insert(p("2001:db8::/32"), "nope")

    def test_items_and_len(self):
        trie = RadixTrie(AddressFamily.IPV6)
        prefixes = [p("2001:db8::/32"), p("2001:db8:1::/48"), p("::/0")]
        for i, prefix in enumerate(prefixes):
            trie.insert(prefix, i)
        assert len(trie) == 3
        assert {prefix for prefix, _ in trie.items()} == set(prefixes)

    def test_property_random_churn_matches_linear_scan(self):
        """Random insert/delete sequences cross-checked against the linear scan."""
        rng = random.Random(20260729)
        trie = RadixTrie(AddressFamily.IPV4)
        reference: dict[Prefix, int] = {}
        for step in range(2000):
            length = rng.randint(0, 32)
            network = rng.getrandbits(32)
            prefix = Prefix.ipv4(network, length)
            if rng.random() < 0.3 and reference:
                victim = rng.choice(list(reference))
                assert trie.delete(victim)
                del reference[victim]
            else:
                trie.insert(prefix, step)
                reference[prefix] = step
            assert len(trie) == len(reference)
        # Exact lookups agree for every stored prefix.
        for prefix, value in reference.items():
            assert trie.get(prefix) == value
        # LPM agrees with the linear scan for random addresses and for
        # addresses inside stored prefixes (hits are likelier there).
        probes = [rng.getrandbits(32) for _ in range(300)]
        probes += [prefix.network for prefix in list(reference)[:300]]
        for address in probes:
            expected = linear_longest_match(reference, address, AddressFamily.IPV4)
            got = trie.longest_match(address)
            assert got == expected

    def test_property_delete_everything_leaves_empty_trie(self):
        rng = random.Random(7)
        trie = RadixTrie(AddressFamily.IPV4)
        prefixes = {Prefix.ipv4(rng.getrandbits(32), rng.randint(1, 32)) for _ in range(500)}
        # Sorted, so neither order depends on PYTHONHASHSEED.
        for i, prefix in enumerate(sorted(prefixes)):
            trie.insert(prefix, i)
        order = sorted(prefixes)
        rng.shuffle(order)
        for prefix in order:
            assert trie.delete(prefix)
        assert len(trie) == 0
        assert trie.longest_match(rng.getrandbits(32)) is None
        # The root must have been pruned back to a bare skeleton.
        assert trie._root.left is None and trie._root.right is None


class TestLpmTable:
    def test_infer_family(self):
        assert infer_family(0) == AddressFamily.IPV4
        assert infer_family((1 << 32) - 1) == AddressFamily.IPV4
        assert infer_family(1 << 32) == AddressFamily.IPV6
        assert infer_family(-1) == AddressFamily.IPV6

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
        hit = table.longest_match(address)
        assert hit is not None and hit[1] == "v4"
        hit6 = table.longest_match(address, AddressFamily.IPV6)
        assert hit6 is not None and hit6[1] == "v6"

    def test_delete_and_get(self):
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
        assert {prefix for prefix, _ in table.items()} == {p("2001:db8::/32")}
        table.clear()
        assert len(table) == 0

    def test_covering_empty_family(self):
        table = LpmTable()
        assert table.covering(p("10.0.0.0/8")) == []
        assert table.covered(p("10.0.0.0/8")) == []
        assert table.longest_match(0) is None


class TestCrossFamilyRegressions:
    """An IPv4 address must never match an IPv6 prefix (and vice versa)."""

    V4 = p("10.0.0.0/8")
    V6_COLLIDER = p("::a00:0/104")  # covers int(10.0.0.1) when family-blind
    ADDRESS = p("10.0.0.1/32").network

    def test_fib_lookup_is_family_safe(self):
        fib = Fib(1)
        fib.install(FibEntry(self.V6_COLLIDER, next_hop_asn=9))
        assert fib.lookup(self.ADDRESS) is None
        fib.install(FibEntry(self.V4, next_hop_asn=2))
        hit = fib.lookup(self.ADDRESS)
        assert hit is not None and hit.next_hop_asn == 2
        hit6 = fib.lookup(self.ADDRESS, AddressFamily.IPV6)
        assert hit6 is not None and hit6.next_hop_asn == 9

    def test_ip2as_lookup_is_family_safe(self):
        from repro.topology.asys import AutonomousSystem
        from repro.topology.topology import Topology

        topology = Topology()
        topology.add_as(AutonomousSystem(asn=9, prefixes=[self.V6_COLLIDER]))
        assert topology.origin_table().longest_match(self.ADDRESS) is None
        topology.add_as(AutonomousSystem(asn=2, prefixes=[self.V4]))
        assert topology.origin_table().longest_match(self.ADDRESS)[1] == 2
        assert topology.origin_table().longest_match(self.ADDRESS, AddressFamily.IPV6)[1] == 9
        assert topology.origin_of(p("10.1.0.0/16")) == 2
        assert topology.origin_of(p("2001:db8::/32")) is None

    def test_atlas_measure_reaches_low_ipv6_targets(self):
        # A low IPv6 target (inside ::/96) has an integer address that looks
        # like IPv4; measure() must pass the target family through so the
        # lookup hits the IPv6 trie.
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
        measurement = atlas.measure(plane, target, with_traceroute=True)
        assert measurement.responsive_probes() == {1}


class TestFibTrieConsistency:
    """The FIB is the one owner of a journalled trie: its replays must delete, too."""

    def test_install_remove_and_reinstall_keep_trie_in_sync(self):
        fib = Fib(1)
        prefix = p("10.0.0.0/8")
        fib.install(FibEntry(prefix, next_hop_asn=7))
        assert fib.lookup(prefix.host()) is not None
        fib.remove(prefix)
        assert fib.lookup(prefix.host()) is None
        fib.install(FibEntry(prefix, next_hop_asn=8))
        assert fib.lookup(prefix.host()).next_hop_asn == 8
        fib.remove(prefix)
        assert fib.lookup(prefix.host()) is None
        assert len(fib) == 0

    def test_lookup_prefers_most_specific(self):
        fib = Fib(1)
        outer, inner = p("10.0.0.0/8"), p("10.1.0.0/16")
        fib.install(FibEntry(outer, next_hop_asn=2))
        fib.install(FibEntry(inner, next_hop_asn=3))
        assert fib.lookup(p("10.1.2.3/32").network).next_hop_asn == 3
        assert fib.lookup(p("10.2.2.3/32").network).next_hop_asn == 2

"""Naive IP-to-AS mapping from a routing table.

Section 7.6 maps traceroute hops to AS numbers "using a current
routeview routing table" to lower-bound how many AS hops a blackhole
community traversed; :class:`Ip2AsMapper` reproduces that step over the
simulated origins.
"""

from __future__ import annotations

from repro.bgp.prefix import AddressFamily, Prefix
from repro.net.lpm import LpmTable
from repro.topology.topology import Topology


class Ip2AsMapper:
    """Longest-prefix-match mapping of addresses to origin ASes."""

    def __init__(self, table: dict[Prefix, int] | None = None):
        self._table: dict[Prefix, int] = {}
        self._lpm = LpmTable()
        for prefix, asn in (table or {}).items():
            self.add(prefix, asn)

    @classmethod
    def from_topology(cls, topology: Topology) -> "Ip2AsMapper":
        """Build the mapping from the topology's legitimate prefix ownership."""
        return cls(topology.originated_prefixes())

    def add(self, prefix: Prefix, asn: int) -> None:
        """Add one mapping entry."""
        self._table[prefix] = asn
        self._lpm.insert(prefix, asn)

    def remove(self, prefix: Prefix) -> None:
        """Drop one mapping entry if present."""
        if self._table.pop(prefix, None) is not None:
            self._lpm.delete(prefix)

    def lookup(self, address: int, family: AddressFamily | None = None) -> int | None:
        """Return the origin AS of the longest matching prefix (None if unmapped).

        The match stays within one address family: an IPv4 address is
        never resolved against an IPv6 prefix (or vice versa).
        """
        hit = self._lpm.longest_match(address, family)
        return hit[1] if hit is not None else None

    def lookup_prefix(self, prefix: Prefix) -> int | None:
        """Return the origin AS of the longest prefix covering ``prefix``."""
        covering = self._lpm.covering(prefix)
        # ``covering`` is ordered least specific first.
        return covering[-1][1] if covering else None

    def __len__(self) -> int:
        return len(self._table)

"""Forwarding information bases derived from the control plane.

Each AS's FIB maps prefixes to a next-hop AS (or to a null interface for
blackholed routes); lookups use longest-prefix match.  The wild
experiments verify attacks on the data plane — "the next-hop address for
the prefix changed to a null interface address" — which is exactly the
state this module captures.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.bgp.prefix import AddressFamily, Prefix
from repro.bgp.rib import LocRib
from repro.bgp.route import RouteEntry
from repro.net.lpm import LpmTable


class FibEntry(NamedTuple):
    """One FIB entry: the prefix, where to send matching traffic, and flags."""

    prefix: Prefix
    #: The neighbor AS traffic is forwarded to; None for locally delivered
    #: (originated) prefixes.
    next_hop_asn: int | None
    #: True when traffic to the prefix is discarded (null interface).
    blackholed: bool = False

    @property
    def is_local(self) -> bool:
        """True if traffic matching this entry is delivered locally."""
        return self.next_hop_asn is None and not self.blackholed


class Fib:
    """Longest-prefix-match forwarding table of one AS."""

    def __init__(self, asn: int):
        self.asn = asn
        #: Prefix → entry; a lookup probes it once per stored prefix length.
        self._table = LpmTable()

    def install(self, entry: FibEntry) -> None:
        """Install (or replace) the entry for the entry's prefix."""
        self._table.insert(entry.prefix, entry)

    def remove(self, prefix: Prefix) -> None:
        """Remove the entry for ``prefix`` if present."""
        self._table.delete(prefix)

    def lookup(self, address: int, family: AddressFamily) -> FibEntry | None:
        """Longest-prefix-match lookup for an integer address of ``family``.

        Matching is per family: the address is only matched against
        prefixes of the family given.
        """
        return self._table.longest_match(address, family)

    def get(self, prefix: Prefix) -> FibEntry | None:
        """Return the entry installed for exactly ``prefix``."""
        return self._table.get(prefix)

    def entries(self) -> list[FibEntry]:
        """Return all installed entries."""
        return list(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._table


def fib_entry_for(
    asn: int, prefix: Prefix, best: RouteEntry | None, originated: bool
) -> FibEntry | None:
    """Derive the FIB entry one AS should hold for ``prefix``.

    Originated prefixes become local-delivery entries; blackholed best
    routes become discard entries; everything else points at the
    neighbor the best route was learned from.  Returns None when the AS
    should hold no entry at all (no route).
    """
    if originated:
        return FibEntry(prefix, None)
    if best is None:
        return None
    if best.blackholed:
        return FibEntry(prefix, None, True)
    if best.learned_from == asn:
        return FibEntry(prefix, None)
    return FibEntry(prefix, best.learned_from)


def build_fib(asn: int, loc_rib: LocRib, originated: set[Prefix] = frozenset()) -> Fib:
    """Build the FIB of one AS from scratch from its Loc-RIB."""
    fib = Fib(asn)
    for prefix in originated:
        fib.install(fib_entry_for(asn, prefix, None, True))
    for entry in loc_rib.best_routes():
        if entry.prefix in originated:
            continue
        fib.install(fib_entry_for(asn, entry.prefix, entry, False))
    return fib


def patch_fib(fib: Fib, asn: int, loc_rib: LocRib, originated: set[Prefix], prefix: Prefix) -> None:
    """Re-derive and install/remove the single FIB entry for ``prefix``."""
    entry = fib_entry_for(asn, prefix, loc_rib.best(prefix), prefix in originated)
    if entry is None:
        fib.remove(prefix)
    else:
        fib.install(entry)

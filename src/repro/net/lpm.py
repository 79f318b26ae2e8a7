"""Per-address-family longest-prefix-match (LPM) tables.

Every data-plane validation in the paper — RTBH, traffic steering,
route manipulation — boils down to longest-prefix-match lookups: in the
per-AS FIBs (:mod:`repro.dataplane.fib`) and in the prefix-to-origin
table (:meth:`Topology.origin_table`).

:class:`LpmTable` keeps one dict keyed by :class:`~repro.bgp.prefix.Prefix`
— a plain ``(family, network, length)`` tuple — plus a count of the
stored prefixes per ``(family, length)``.  A lookup masks the address
to each stored length of its family, longest first, and probes the
dict: at most one probe per distinct stored length, whatever the table
size.  A lookup never crosses families: the caller names the address's
family, and the address is matched only against prefixes of it.  Values are
opaque — the FIBs store :class:`FibEntry`, the origin table plain ASNs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bgp.prefix import AddressFamily, Prefix

_MISSING = object()


class LpmTable:
    """A family-safe LPM table: one prefix-keyed dict, probed per stored length."""

    __slots__ = ("_entries", "_counts", "_lengths")

    def __init__(self):
        self._entries: dict[Prefix, Any] = {}
        #: Stored prefixes per ``(family, length)``.
        self._counts: dict[tuple[AddressFamily, int], int] = {}
        #: Per family, ``(length, host bits)`` of each stored length,
        #: longest first; rebuilt only when a length appears or empties.
        self._lengths: dict[AddressFamily, list[tuple[int, int]]] = {}

    def _index(self, family: AddressFamily) -> None:
        bits = family.bits
        stored = sorted((length for f, length in self._counts if f == family), reverse=True)
        self._lengths[family] = [(length, bits - length) for length in stored]

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Insert (or replace) the value stored under ``prefix``."""
        entries = self._entries
        size = len(entries)
        entries[prefix] = value
        if len(entries) != size:
            # A new prefix: count its length.
            key = (prefix.family, prefix.length)
            count = self._counts.get(key, 0)
            self._counts[key] = count + 1
            if not count:
                self._index(prefix.family)

    def delete(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; return True if it was present."""
        if self._entries.pop(prefix, _MISSING) is _MISSING:
            return False
        key = (prefix.family, prefix.length)
        count = self._counts[key] - 1
        if count:
            self._counts[key] = count
        else:
            del self._counts[key]
            self._index(prefix.family)
        return True

    def get(self, prefix: Prefix) -> Any:
        """Exact-match lookup: the value stored under ``prefix``, or None."""
        return self._entries.get(prefix)

    def longest_match(self, address: int, family: AddressFamily) -> Any:
        """The value of the most specific prefix of ``family`` covering ``address``, or None.

        An address outside the family's range masks to a network no
        stored prefix has, so it matches nothing.
        """
        entries = self._entries
        for length, host_bits in self._lengths.get(family, ()):
            value = entries.get((family, address >> host_bits << host_bits, length), _MISSING)
            if value is not _MISSING:
                return value
        return None

    def covering(self, prefix: Prefix) -> list[Any]:
        """Values of the stored prefixes covering ``prefix``, least specific first."""
        family, network, length = prefix
        entries = self._entries
        values = []
        for stored, host_bits in reversed(self._lengths.get(family, ())):
            if stored > length:
                break
            value = entries.get((family, network >> host_bits << host_bits, stored), _MISSING)
            if value is not _MISSING:
                values.append(value)
        return values

    def covered(self, prefix: Prefix) -> list[Any]:
        """Values of the stored prefixes inside ``prefix`` (equal or more specific)."""
        return [value for stored, value in self._entries.items() if prefix.contains_prefix(stored)]

    def values(self) -> Iterable[Any]:
        """Every stored value, in first-insertion order of its prefix."""
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._entries

"""Per-address-family longest-prefix-match (LPM) radix tries.

Every data-plane validation in the paper — RTBH, traffic steering,
route manipulation — boils down to longest-prefix-match lookups: in the
per-AS FIBs (:mod:`repro.dataplane.fib`) and in the prefix-to-origin
table (:meth:`Topology.origin_table`).  Those used to be O(n) scans
over every installed prefix, and they were family-blind: an IPv4
address integer happily matched an IPv6 prefix whose low 32 bits lined
up.

This module provides the shared fix: a path-compressed binary radix
(Patricia) trie per :class:`~repro.bgp.prefix.AddressFamily`.

* :class:`RadixTrie` — one family.  ``insert`` / ``delete`` / ``get``
  are O(prefix length) node visits; ``longest_match`` walks at most
  ``family.bits`` nodes regardless of table size; ``covering`` returns
  every stored prefix on the root-to-target path (less specifics) and
  ``covered`` every stored prefix inside the target (more specifics).
* :class:`LpmTable` — a dict of tries keyed by family.  A lookup never
  crosses families: an address is matched only against the trie of its
  own (given or inferred) family.

Design notes: nodes are path-compressed, so a table of *n* prefixes
holds at most ``2n - 1`` nodes; internal glue nodes carry no entry and
are pruned on delete, so long insert/delete churn cannot leak memory.
Values are opaque to the trie — the FIBs store :class:`FibEntry`, the
mapper plain ASNs.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.bgp.prefix import AddressFamily, Prefix
from repro.exceptions import PrefixError
from repro.utils.ip import network_address

_IPV4_SPAN = 1 << 32


def infer_family(address: int) -> AddressFamily:
    """Guess the family of a bare integer address.

    Integers below 2**32 are treated as IPv4; anything else as IPv6.
    Callers that know the family (e.g. because the address was derived
    from a :class:`Prefix`) should pass it explicitly instead.
    """
    return AddressFamily.IPV4 if 0 <= address < _IPV4_SPAN else AddressFamily.IPV6


class _Node:
    """One (path-compressed) trie node: a prefix position plus an optional entry."""

    __slots__ = ("network", "length", "left", "right", "item")

    def __init__(self, network: int, length: int):
        self.network = network
        self.length = length
        self.left: _Node | None = None
        self.right: _Node | None = None
        #: The stored ``(prefix, value)`` pair, or None for glue nodes.
        self.item: tuple[Prefix, Any] | None = None


class RadixTrie:
    """A path-compressed binary radix (Patricia) trie for one address family."""

    __slots__ = ("family", "_bits", "_root", "_size")

    def __init__(self, family: AddressFamily):
        self.family = family
        self._bits = family.bits
        self._root = _Node(0, 0)
        self._size = 0

    # ----------------------------------------------------------------- helpers
    def _check_family(self, prefix: Prefix) -> None:
        if prefix.family != self.family:
            raise PrefixError(
                f"{prefix} is {prefix.family.name} but this trie holds {self.family.name}"
            )

    # ------------------------------------------------------------------ writes
    def insert(self, prefix: Prefix, value: Any) -> None:
        """Insert (or replace) the value stored under ``prefix``."""
        self._check_family(prefix)
        bits = self._bits
        node = self._root
        while True:
            if node.length == prefix.length and node.network == prefix.network:
                if node.item is None:
                    self._size += 1
                node.item = (prefix, value)
                return
            # Invariant: node is a strict ancestor of prefix here.
            branch = (prefix.network >> (bits - node.length - 1)) & 1
            child = node.left if branch == 0 else node.right
            if child is None:
                leaf = _Node(prefix.network, prefix.length)
                leaf.item = (prefix, value)
                if branch == 0:
                    node.left = leaf
                else:
                    node.right = leaf
                self._size += 1
                return
            limit = min(prefix.length, child.length)
            diff = prefix.network ^ child.network
            common = limit if diff == 0 else min(limit, bits - diff.bit_length())
            if common == child.length:
                node = child
                continue
            # The new prefix diverges inside the child's compressed edge:
            # split the edge at the divergence point.
            mid = _Node(network_address(prefix.network, common, bits), common)
            child_bit = (child.network >> (bits - common - 1)) & 1
            if child_bit == 0:
                mid.left = child
            else:
                mid.right = child
            if common == prefix.length:
                mid.item = (prefix, value)
            else:
                leaf = _Node(prefix.network, prefix.length)
                leaf.item = (prefix, value)
                if child_bit == 0:
                    mid.right = leaf
                else:
                    mid.left = leaf
            if branch == 0:
                node.left = mid
            else:
                node.right = mid
            self._size += 1
            return

    def delete(self, prefix: Prefix) -> bool:
        """Remove the entry stored under ``prefix``; return True if it existed."""
        self._check_family(prefix)
        bits = self._bits
        ancestors: list[_Node] = []
        node: _Node | None = self._root
        while node is not None:
            if node.length > prefix.length:
                return False
            if network_address(prefix.network, node.length, bits) != node.network:
                return False
            if node.length == prefix.length:
                if node.item is None:
                    return False
                node.item = None
                self._size -= 1
                self._prune(ancestors, node)
                return True
            branch = (prefix.network >> (bits - node.length - 1)) & 1
            ancestors.append(node)
            node = node.left if branch == 0 else node.right
        return False

    def _prune(self, ancestors: list[_Node], node: _Node) -> None:
        """Collapse entry-less nodes with fewer than two children after a delete."""
        current = node
        while ancestors:
            parent = ancestors.pop()
            children = [c for c in (current.left, current.right) if c is not None]
            if current.item is not None or len(children) >= 2:
                return
            replacement = children[0] if children else None
            if parent.left is current:
                parent.left = replacement
            else:
                parent.right = replacement
            if replacement is not None:
                # The parent kept its child count; nothing further collapses.
                return
            current = parent

    def clear(self) -> None:
        """Drop every entry."""
        self._root = _Node(0, 0)
        self._size = 0

    # ------------------------------------------------------------------- reads
    def get(self, prefix: Prefix, default: Any = None) -> Any:
        """Exact-match lookup of ``prefix`` (no LPM)."""
        self._check_family(prefix)
        bits = self._bits
        node: _Node | None = self._root
        while node is not None:
            if node.length > prefix.length:
                return default
            if network_address(prefix.network, node.length, bits) != node.network:
                return default
            if node.length == prefix.length:
                return node.item[1] if node.item is not None else default
            branch = (prefix.network >> (bits - node.length - 1)) & 1
            node = node.left if branch == 0 else node.right
        return default

    def longest_match(self, address: int) -> tuple[Prefix, Any] | None:
        """Return the ``(prefix, value)`` of the most specific prefix covering ``address``."""
        bits = self._bits
        if not 0 <= address < (1 << bits):
            return None
        best: tuple[Prefix, Any] | None = None
        node: _Node | None = self._root
        while node is not None:
            if node.length and network_address(address, node.length, bits) != node.network:
                break
            if node.item is not None:
                best = node.item
            if node.length >= bits:
                break
            branch = (address >> (bits - node.length - 1)) & 1
            node = node.left if branch == 0 else node.right
        return best

    def covering(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Return stored entries whose prefix covers ``prefix``, least specific first."""
        self._check_family(prefix)
        bits = self._bits
        results: list[tuple[Prefix, Any]] = []
        node: _Node | None = self._root
        while node is not None and node.length <= prefix.length:
            if network_address(prefix.network, node.length, bits) != node.network:
                break
            if node.item is not None:
                results.append(node.item)
            if node.length == prefix.length:
                break
            branch = (prefix.network >> (bits - node.length - 1)) & 1
            node = node.left if branch == 0 else node.right
        return results

    def covered(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Return stored entries covered by ``prefix`` (equal or more specific)."""
        self._check_family(prefix)
        bits = self._bits
        node: _Node | None = self._root
        while node is not None and node.length < prefix.length:
            if network_address(prefix.network, node.length, bits) != node.network:
                return []
            branch = (prefix.network >> (bits - node.length - 1)) & 1
            node = node.left if branch == 0 else node.right
        if node is None:
            return []
        if network_address(node.network, prefix.length, bits) != prefix.network:
            return []
        results: list[tuple[Prefix, Any]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.item is not None:
                results.append(current.item)
            if current.right is not None:
                stack.append(current.right)
            if current.left is not None:
                stack.append(current.left)
        return results

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        """Yield every stored ``(prefix, value)`` pair (pre-order: shorter first)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.item is not None:
                yield node.item
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[Prefix, Any]]:
        return self.items()

    def __contains__(self, prefix: Prefix) -> bool:
        sentinel = object()
        return self.get(prefix, sentinel) is not sentinel


def cached_table(
    cache: "tuple[Any, LpmTable] | None",
    fingerprint: Any,
    items: "Iterator[tuple[Prefix, Any]] | Any",
) -> "tuple[tuple[Any, LpmTable], LpmTable]":
    """Reuse (or rebuild) a fingerprint-invalidated cached :class:`LpmTable`.

    The shared pattern behind every derived prefix-ownership trie
    (:meth:`Topology.origin_table`, :meth:`InjectionPlatform.owns`): the
    caller computes a content fingerprint of its source collection, and
    the table is rebuilt from ``items`` (an iterable of ``(prefix,
    value)``) only when the fingerprint changed.  Returns ``(new_cache, table)``; the caller
    stores ``new_cache`` back into its cache slot.
    """
    if cache is not None and cache[0] == fingerprint:
        return cache, cache[1]
    table = LpmTable()
    for prefix, value in items:
        table.insert(prefix, value)
    cache = (fingerprint, table)
    return cache, table


class LpmTable:
    """A family-safe LPM table: one :class:`RadixTrie` per address family.

    Lookups are strictly per family — an IPv4 address can never match an
    IPv6 prefix or vice versa, which is the structural fix for the
    family-blind linear scans this subsystem replaces.
    """

    __slots__ = ("_tries",)

    def __init__(self):
        self._tries: dict[AddressFamily, RadixTrie] = {}

    def _trie(self, family: AddressFamily, create: bool = False) -> RadixTrie | None:
        trie = self._tries.get(family)
        if trie is None and create:
            trie = self._tries[family] = RadixTrie(family)
        return trie

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Insert (or replace) the value stored under ``prefix``."""
        self._trie(prefix.family, create=True).insert(prefix, value)

    def delete(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; return True if it was present."""
        trie = self._trie(prefix.family)
        return trie.delete(prefix) if trie is not None else False

    def get(self, prefix: Prefix, default: Any = None) -> Any:
        """Exact-match lookup."""
        trie = self._trie(prefix.family)
        return trie.get(prefix, default) if trie is not None else default

    def longest_match(
        self, address: int, family: AddressFamily | None = None
    ) -> tuple[Prefix, Any] | None:
        """LPM lookup of an integer address within one family's trie.

        When ``family`` is None it is inferred with :func:`infer_family`.
        """
        if family is None:
            family = infer_family(address)
        trie = self._trie(family)
        return trie.longest_match(address) if trie is not None else None

    def covering(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries covering ``prefix`` in its own family, least specific first."""
        trie = self._trie(prefix.family)
        return trie.covering(prefix) if trie is not None else []

    def covered(self, prefix: Prefix) -> list[tuple[Prefix, Any]]:
        """Entries covered by ``prefix`` in its own family."""
        trie = self._trie(prefix.family)
        return trie.covered(prefix) if trie is not None else []

    def clear(self) -> None:
        """Drop every entry in every family."""
        self._tries.clear()

    def items(self) -> Iterator[tuple[Prefix, Any]]:
        """Yield every ``(prefix, value)`` pair across families (IPv4 first)."""
        for family in sorted(self._tries):
            yield from self._tries[family].items()

    def __len__(self) -> int:
        return sum(len(trie) for trie in self._tries.values())

    def __iter__(self) -> Iterator[tuple[Prefix, Any]]:
        return self.items()

    def __contains__(self, prefix: Prefix) -> bool:
        trie = self._trie(prefix.family)
        return trie is not None and prefix in trie


class JournalledLpm:
    """A lazily patched LPM index over an authoritative ``{prefix: value}`` dict.

    The owner (a :class:`~repro.dataplane.fib.Fib`) writes its dict and
    only records the prefix with :meth:`touch`; the first
    :meth:`longest_match` after a run of writes replays the journal in
    write order as trie inserts and deletes — a patch, never a rebuild.
    A FIB patched for thousands of prefixes and never looked up pays no
    trie work; a reader interleaving lookups with writes pays the
    inserts an eager index would, later.
    """

    __slots__ = ("_source", "_table", "_journal")

    def __init__(self, source: dict[Prefix, Any]):
        self._source = source
        self._table = LpmTable()
        #: Prefixes written since the last lookup (a dict: ordered,
        #: deduplicated); whatever ``source`` already holds is pending.
        self._journal: dict[Prefix, None] = dict.fromkeys(source)

    def touch(self, prefix: Prefix) -> None:
        """Record that ``prefix`` was set or removed in the source dict."""
        self._journal[prefix] = None

    def _replay(self) -> None:
        """Bring the trie up to date with the source dict."""
        for prefix in self._journal:
            if prefix in self._source:
                self._table.insert(prefix, self._source[prefix])
            else:
                self._table.delete(prefix)
        self._journal.clear()

    def longest_match(
        self, address: int, family: AddressFamily | None = None
    ) -> tuple[Prefix, Any] | None:
        """LPM lookup over the source dict's current content."""
        if self._journal:
            self._replay()
        return self._table.longest_match(address, family)

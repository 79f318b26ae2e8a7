"""AS business relationships.

The paper uses the CAIDA AS-relationship dataset to classify AS edges
into customer-provider and peer-peer links (Section 4.4).  This module
models the relationship types and a dataset container that the topology
generator fills; no as-rel file is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

from repro.exceptions import TopologyError


class Relationship(IntEnum):
    """Business relationship of an AS edge, from the first AS's point of view."""

    #: The other AS is my customer (I provide transit to them).
    CUSTOMER = -1
    #: The other AS is a settlement-free peer.
    PEER = 0
    #: The other AS is my provider (they provide transit to me).
    PROVIDER = 1

    def inverse(self) -> "Relationship":
        """Return the relationship from the other AS's point of view."""
        if self == Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self == Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


@dataclass(frozen=True)
class RelationshipEdge:
    """A directed relationship record: ``asn_a`` sees ``asn_b`` as ``relationship``."""

    asn_a: int
    asn_b: int
    relationship: Relationship


class RelationshipDataset:
    """A symmetric store of AS relationships, queried from either endpoint.

    Stored as per-AS adjacency (``asn -> {neighbor: relationship as seen
    from asn}``), so the per-AS queries cost the AS's degree, not a scan
    of every edge in the dataset.
    """

    def __init__(self):
        self._adjacency: dict[int, dict[int, Relationship]] = {}

    def add(self, asn_a: int, asn_b: int, relationship: Relationship) -> None:
        """Record that, from ``asn_a``'s view, ``asn_b`` is ``relationship``."""
        if asn_a == asn_b:
            raise TopologyError(f"AS{asn_a} cannot have a relationship with itself")
        existing = self.get(asn_a, asn_b)
        if existing is not None and existing != relationship:
            raise TopologyError(
                f"conflicting relationship for AS{asn_a}-AS{asn_b}: "
                f"{existing.name} vs {relationship.name}"
            )
        self._adjacency.setdefault(asn_a, {})[asn_b] = relationship
        self._adjacency.setdefault(asn_b, {})[asn_a] = relationship.inverse()

    def get(self, asn_a: int, asn_b: int) -> Relationship | None:
        """Return the relationship from ``asn_a``'s view of ``asn_b`` (None if no edge)."""
        return self._adjacency.get(asn_a, {}).get(asn_b)

    def has_edge(self, asn_a: int, asn_b: int) -> bool:
        """Return True if the two ASes are adjacent."""
        return asn_b in self._adjacency.get(asn_a, ())

    def _neighbors_with(self, asn: int, relationship: Relationship) -> list[int]:
        return sorted(
            neighbor
            for neighbor, seen_as in self._adjacency.get(asn, {}).items()
            if seen_as == relationship
        )

    def neighbors(self, asn: int) -> list[int]:
        """Return every AS adjacent to ``asn``."""
        return sorted(self._adjacency.get(asn, ()))

    def neighbor_relationships(self, asn: int) -> list[tuple[int, Relationship]]:
        """``(neighbor, relationship from asn's view)`` of every neighbor of ``asn``, by ASN."""
        return sorted(self._adjacency.get(asn, {}).items())

    def customers(self, asn: int) -> list[int]:
        """Return the customers of ``asn``."""
        return self._neighbors_with(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> list[int]:
        """Return the providers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PROVIDER)

    def peers(self, asn: int) -> list[int]:
        """Return the settlement-free peers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PEER)

    def edges(self) -> Iterator[RelationshipEdge]:
        """Yield each undirected edge exactly once (customer/peer orientation)."""
        for asn_a in sorted(self._adjacency):
            neighbors = self._adjacency[asn_a]
            for asn_b in sorted(neighbors):
                if asn_b < asn_a:
                    # Already emitted from the lower-numbered endpoint.
                    continue
                relationship = neighbors[asn_b]
                if relationship == Relationship.PROVIDER:
                    # Emit from the provider's side for a canonical orientation.
                    yield RelationshipEdge(asn_b, asn_a, Relationship.CUSTOMER)
                else:
                    yield RelationshipEdge(asn_a, asn_b, relationship)

    def edge_count(self) -> int:
        """Return the number of undirected AS edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def asns(self) -> set[int]:
        """Return every AS that appears in at least one edge."""
        return set(self._adjacency)

"""The :class:`Topology` container: ASes, relationships, IXPs, prefix ownership."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.prefix import Prefix
from repro.exceptions import TopologyError
from repro.net.lpm import LpmTable
from repro.topology.asys import AutonomousSystem
from repro.topology.ixp import Ixp
from repro.topology.relationships import Relationship


@dataclass
class Topology:
    """A full AS-level topology: nodes, business relationships, and IXPs."""

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    ixps: dict[str, Ixp] = field(default_factory=dict)
    #: ``asn -> {neighbor: relationship as seen from asn}``, both ends of each
    #: link, so the per-AS queries cost the AS's degree.
    adjacency: dict[int, dict[int, Relationship]] = field(default_factory=dict)

    # ------------------------------------------------------------------ nodes
    def add_as(self, asys: AutonomousSystem) -> AutonomousSystem:
        """Add an AS (replacing any existing AS with the same number)."""
        self.ases[asys.asn] = asys
        return asys

    def get_as(self, asn: int) -> AutonomousSystem:
        """Return the AS object for ``asn`` or raise :class:`TopologyError`."""
        try:
            return self.ases[asn]
        except KeyError as exc:
            raise TopologyError(f"unknown AS{asn}") from exc

    def asns(self) -> list[int]:
        """Return all AS numbers, sorted."""
        return sorted(self.ases)

    def __len__(self) -> int:
        return len(self.ases)

    def __contains__(self, asn: int) -> bool:
        return asn in self.ases

    def __iter__(self) -> Iterator[AutonomousSystem]:
        return iter(self.ases.values())

    # ------------------------------------------------------------------ edges
    def add_link(self, asn_a: int, asn_b: int, relationship: Relationship) -> None:
        """Record that, from ``asn_a``'s view, ``asn_b`` is ``relationship``; both ASes
        must already exist."""
        if asn_a not in self.ases or asn_b not in self.ases:
            raise TopologyError(f"both AS{asn_a} and AS{asn_b} must exist before linking them")
        if asn_a == asn_b:
            raise TopologyError(f"AS{asn_a} cannot have a relationship with itself")
        existing = self.relationship(asn_a, asn_b)
        if existing is not None and existing != relationship:
            raise TopologyError(
                f"conflicting relationship for AS{asn_a}-AS{asn_b}: "
                f"{existing.name} vs {relationship.name}"
            )
        self.adjacency.setdefault(asn_a, {})[asn_b] = relationship
        self.adjacency.setdefault(asn_b, {})[asn_a] = relationship.inverse()

    def add_customer_link(self, provider: int, customer: int) -> None:
        """Add a provider→customer link."""
        self.add_link(provider, customer, Relationship.CUSTOMER)

    def add_peer_link(self, asn_a: int, asn_b: int) -> None:
        """Add a settlement-free peering link."""
        self.add_link(asn_a, asn_b, Relationship.PEER)

    def _neighbors_with(self, asn: int, relationship: Relationship) -> list[int]:
        return sorted(
            neighbor
            for neighbor, seen_as in self.adjacency.get(asn, {}).items()
            if seen_as == relationship
        )

    def neighbors(self, asn: int) -> list[int]:
        """Return every AS adjacent to ``asn``."""
        return sorted(self.adjacency.get(asn, ()))

    def customers(self, asn: int) -> list[int]:
        """Return the customers of ``asn``."""
        return self._neighbors_with(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> list[int]:
        """Return the providers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PROVIDER)

    def peers(self, asn: int) -> list[int]:
        """Return the peers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PEER)

    def relationship(self, asn_a: int, asn_b: int) -> Relationship | None:
        """Return the relationship from ``asn_a``'s view of ``asn_b`` (None if no edge)."""
        return self.adjacency.get(asn_a, {}).get(asn_b)

    def edge_count(self) -> int:
        """Return the number of undirected AS edges."""
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    # ------------------------------------------------------------------- IXPs
    def add_ixp(self, ixp: Ixp) -> Ixp:
        """Register an IXP (its route server AS must exist in the topology)."""
        if ixp.route_server_asn not in self.ases:
            raise TopologyError(
                f"route server AS{ixp.route_server_asn} of {ixp.name} is not in the topology"
            )
        self.ixps[ixp.name] = ixp
        return ixp

    # --------------------------------------------------------------- prefixes
    def originated_prefixes(self) -> dict[Prefix, int]:
        """Return a map of prefix → origin ASN over all ASes."""
        mapping: dict[Prefix, int] = {}
        for asys in self.ases.values():
            for prefix in asys.prefixes:
                mapping[prefix] = asys.asn
        return mapping

    def origin_table(self) -> LpmTable:
        """An LPM table of every originated prefix → origin ASN, built on each call."""
        table = LpmTable()
        for asys in self.ases.values():
            for prefix in asys.prefixes:
                table.insert(prefix, asys.asn)
        return table

    # ------------------------------------------------------------------ roles
    def transit_ases(self) -> list[AutonomousSystem]:
        """Return transit ASes (including tier-1s)."""
        return [asys for asys in self.ases.values() if asys.is_transit]

    def stub_ases(self) -> list[AutonomousSystem]:
        """Return stub ASes."""
        return [asys for asys in self.ases.values() if asys.is_stub]

    def summary(self) -> dict[str, int]:
        """Return headline counts (ASes, edges, IXPs, prefixes)."""
        return {
            "ases": len(self.ases),
            "edges": self.edge_count(),
            "ixps": len(self.ixps),
            "prefixes": sum(len(a.prefixes) for a in self.ases.values()),
            "transit": len(self.transit_ases()),
            "stub": len(self.stub_ases()),
        }

    def validate(self) -> list[str]:
        """Return a list of consistency problems (empty when the topology is sound)."""
        problems: list[str] = []
        for asn in self.adjacency:
            if asn not in self.ases:
                problems.append(f"relationship references unknown AS{asn}")
        for ixp in self.ixps.values():
            for member in ixp.members:
                if member not in self.ases:
                    problems.append(f"IXP {ixp.name} has unknown member AS{member}")
        seen_prefixes: dict[Prefix, int] = {}
        for asys in self.ases.values():
            for prefix in asys.prefixes:
                if prefix in seen_prefixes and seen_prefixes[prefix] != asys.asn:
                    problems.append(
                        f"prefix {prefix} originated by both AS{seen_prefixes[prefix]} "
                        f"and AS{asys.asn}"
                    )
                seen_prefixes[prefix] = asys.asn
        return problems

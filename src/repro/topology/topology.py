"""The :class:`Topology` container: ASes, relationships, IXPs, prefix ownership."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.prefix import Prefix
from repro.exceptions import TopologyError
from repro.net.lpm import LpmTable
from repro.topology.asys import AutonomousSystem
from repro.topology.ixp import Ixp
from repro.topology.relationships import Relationship, RelationshipDataset


@dataclass
class Topology:
    """A full AS-level topology: nodes, business relationships, and IXPs."""

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    relationships: RelationshipDataset = field(default_factory=RelationshipDataset)
    ixps: dict[str, Ixp] = field(default_factory=dict)

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
        """Add a business relationship edge; both ASes must already exist."""
        if asn_a not in self.ases or asn_b not in self.ases:
            raise TopologyError(f"both AS{asn_a} and AS{asn_b} must exist before linking them")
        self.relationships.add(asn_a, asn_b, relationship)

    def add_customer_link(self, provider: int, customer: int) -> None:
        """Add a provider→customer link."""
        self.add_link(provider, customer, Relationship.CUSTOMER)

    def add_peer_link(self, asn_a: int, asn_b: int) -> None:
        """Add a settlement-free peering link."""
        self.add_link(asn_a, asn_b, Relationship.PEER)

    def neighbors(self, asn: int) -> list[int]:
        """Return every AS adjacent to ``asn``."""
        return self.relationships.neighbors(asn)

    def customers(self, asn: int) -> list[int]:
        """Return the customers of ``asn``."""
        return self.relationships.customers(asn)

    def providers(self, asn: int) -> list[int]:
        """Return the providers of ``asn``."""
        return self.relationships.providers(asn)

    def peers(self, asn: int) -> list[int]:
        """Return the peers of ``asn``."""
        return self.relationships.peers(asn)

    def relationship(self, asn_a: int, asn_b: int) -> Relationship | None:
        """Return the relationship from ``asn_a``'s view of ``asn_b``."""
        return self.relationships.get(asn_a, asn_b)

    def edge_count(self) -> int:
        """Return the number of undirected AS edges."""
        return self.relationships.edge_count()

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
        for asn in self.relationships.asns():
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

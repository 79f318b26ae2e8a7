"""The :class:`Topology` container: ASes, relationships, IXPs, prefix ownership."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bgp.prefix import Prefix
from repro.exceptions import TopologyError
from repro.net.lpm import LpmTable, cached_table
from repro.topology.asys import AutonomousSystem
from repro.topology.ixp import Ixp
from repro.topology.relationships import Relationship, RelationshipDataset


@dataclass
class Topology:
    """A full AS-level topology: nodes, business relationships, and IXPs."""

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    relationships: RelationshipDataset = field(default_factory=RelationshipDataset)
    ixps: dict[str, Ixp] = field(default_factory=dict)
    #: Cached origin trie over every originated prefix, keyed by a content
    #: fingerprint (AS count, prefix count, order-independent hash mix of
    #: every (asn, prefix) pair) so both the append-only mutation API and
    #: in-place prefix-list edits invalidate it (see
    #: :func:`repro.net.lpm.cached_table`).  Not part of the value
    #: semantics.
    _origin_cache: tuple[tuple[int, int, int], LpmTable] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        """The per-family LPM trie of every originated prefix → origin ASN.

        Built once and cached; repeated ownership/overlap queries
        (:meth:`origin_of`, the hijack-overlap checks in
        :mod:`repro.attacks`) walk the trie instead of scanning every
        AS's prefix list.  The fingerprint mixes every (asn, prefix)
        pair through an explicit 64-bit integer mix — O(total prefixes)
        per call, but re-validating is far cheaper than rebuilding the
        trie — so even an in-place prefix swap invalidates the cache.
        The mix deliberately avoids builtin ``hash()`` so the
        fingerprint is identical across interpreter runs.
        """
        count = 0
        mix = 0
        for asys in self.ases.values():
            count += len(asys.prefixes)
            asn = asys.asn
            for prefix in asys.prefixes:
                # Order-independent accumulation: additions, removals and
                # re-homed prefixes all perturb the sum.
                word = (
                    asn * 0x9E3779B97F4A7C15
                    + prefix.network * 0xBF58476D1CE4E5B9
                    + prefix.length * 0x94D049BB133111EB
                    + int(prefix.family)
                ) & 0xFFFFFFFFFFFFFFFF
                word ^= word >> 29
                mix = (mix + word) & 0xFFFFFFFFFFFFFFFF
        self._origin_cache, table = cached_table(
            self._origin_cache,
            (len(self.ases), count, mix),
            (
                (prefix, asys.asn)
                for asys in self.ases.values()
                for prefix in asys.prefixes
            ),
        )
        return table

    def origin_of(self, prefix: Prefix) -> int | None:
        """Return the legitimate origin of ``prefix`` (longest covering match)."""
        covering = self.origin_table().covering(prefix)
        # ``covering`` is ordered least specific first.
        return covering[-1][1] if covering else None

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

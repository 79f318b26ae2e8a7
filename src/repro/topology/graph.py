"""Graph queries over a :class:`~repro.topology.topology.Topology`.

Provides role classification (origin/transit/stub, mirroring the paper's
Table 1 columns), valley-free path enumeration used by the dataset
generator to produce realistic AS paths, and transit-degree helpers.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import TopologyError
from repro.topology.asys import AsRole
from repro.topology.relationships import Relationship
from repro.topology.topology import Topology


def classify_roles(topology: Topology) -> dict[int, AsRole]:
    """Classify each AS as TIER1, TRANSIT, or STUB from the relationship graph.

    * An AS with no providers and at least one customer is a tier-1.
    * An AS with at least one customer is a transit AS.
    * Everything else is a stub.

    IXP route-server and collector roles are preserved if already set on
    the AS objects (they are organisational facts, not derivable from
    the graph).
    """
    roles: dict[int, AsRole] = {}
    for asys in topology:
        if asys.role in (AsRole.IXP, AsRole.COLLECTOR):
            roles[asys.asn] = asys.role
            continue
        customers = topology.customers(asys.asn)
        providers = topology.providers(asys.asn)
        if customers and not providers:
            roles[asys.asn] = AsRole.TIER1
        elif customers:
            roles[asys.asn] = AsRole.TRANSIT
        else:
            roles[asys.asn] = AsRole.STUB
    return roles


def _export_allowed(relationship_in: Relationship | None, relationship_out: Relationship) -> bool:
    """Gao-Rexford export rule.

    ``relationship_in`` is how the route was learned (None for
    originated routes); ``relationship_out`` is the neighbor class the
    route would be exported to, both from the exporting AS's point of
    view.  Routes learned from providers or peers are exported only to
    customers.
    """
    if relationship_in is None or relationship_in == Relationship.CUSTOMER:
        return True
    return relationship_out == Relationship.CUSTOMER


def valley_free_paths(topology: Topology, origin_asn: int) -> dict[int, list[int]]:
    """Return one valley-free path of at most 10 hops from every reachable AS back to ``origin_asn``.

    The result maps each AS to the AS path *as observed at that AS*
    (most recent AS first, origin last), matching the convention of
    :class:`repro.bgp.aspath.ASPath`.  Path selection follows the usual
    preference order — customer routes over peer routes over provider
    routes, then shortest path — which is the same order the full
    routing simulator uses, so generator paths and simulator paths
    agree.
    """
    if origin_asn not in topology:
        raise TopologyError(f"origin AS{origin_asn} not in topology")

    # preference: learned-from relationship from the *receiving* AS's view.
    # Customer routes (relationship CUSTOMER) are most preferred.
    preference_rank = {
        Relationship.CUSTOMER: 0,
        Relationship.PEER: 1,
        Relationship.PROVIDER: 2,
    }

    # state per AS: (preference rank, path length, path list, learned-from relationship)
    best: dict[int, tuple[int, int, list[int]]] = {origin_asn: (0, 0, [origin_asn])}
    learned_via: dict[int, Relationship | None] = {origin_asn: None}
    queue: deque[int] = deque([origin_asn])

    while queue:
        current = queue.popleft()
        current_rank, current_length, current_path = best[current]
        incoming = learned_via[current]
        for neighbor in topology.neighbors(current):
            if neighbor in current_path:
                continue
            # Relationship of the neighbor from current's point of view decides export.
            rel_out = topology.relationship(current, neighbor)
            if rel_out is None:
                continue
            if not _export_allowed(incoming, rel_out):
                continue
            # From the neighbor's point of view, how is the route learned?
            rel_in_at_neighbor = topology.relationship(neighbor, current)
            if rel_in_at_neighbor is None:
                continue
            candidate_rank = preference_rank[rel_in_at_neighbor]
            candidate_length = current_length + 1
            if candidate_length > 10:
                continue
            candidate_path = [neighbor] + current_path
            candidate = (candidate_rank, candidate_length, candidate_path)
            existing = best.get(neighbor)
            if existing is None or (candidate_rank, candidate_length) < (existing[0], existing[1]):
                best[neighbor] = candidate
                learned_via[neighbor] = rel_in_at_neighbor
                queue.append(neighbor)
    return {asn: path for asn, (_rank, _length, path) in best.items()}

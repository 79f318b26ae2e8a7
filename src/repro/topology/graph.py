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


#: How a route exported over an edge is learned, from the receiving AS's view,
#: and that AS's preference rank for it (customer routes first), keyed by the
#: edge's relationship from the exporting AS's view.
_LEARNED_OVER = {
    Relationship.PROVIDER: (0, Relationship.CUSTOMER),
    Relationship.PEER: (1, Relationship.PEER),
    Relationship.CUSTOMER: (2, Relationship.PROVIDER),
}


def valley_free_paths(topology: Topology, origin_asn: int) -> dict[int, list[int]]:
    """Return one valley-free path of at most 10 hops from every reachable AS back to ``origin_asn``.

    The result maps each AS to the AS path *as observed at that AS*
    (most recent AS first, origin last), matching the convention of
    :class:`repro.bgp.aspath.ASPath`.  Exports follow the Gao-Rexford
    rule (routes learned from a provider or peer go to customers only),
    and each AS keeps the path it prefers: customer routes over peer
    routes over provider routes, then the shortest.  The routing core
    does not rank by relationship (it clears LOCAL_PREF on import and
    nothing sets it), so these paths are not the simulator's: on the
    default topology they equal the core's best path in 79.5 % of
    (AS, origin) pairs.
    """
    if origin_asn not in topology:
        raise TopologyError(f"origin AS{origin_asn} not in topology")

    relationships = topology.relationships
    # state per AS: (preference rank, path length, path list)
    best: dict[int, tuple[int, int, list[int]]] = {origin_asn: (0, 0, [origin_asn])}
    learned_via: dict[int, Relationship | None] = {origin_asn: None}
    queue: deque[int] = deque([origin_asn])

    while queue:
        current = queue.popleft()
        _rank, current_length, current_path = best[current]
        if current_length >= 10:
            continue
        incoming = learned_via[current]
        # Routes learned from providers or peers are exported only to customers.
        customers_only = incoming is not None and incoming != Relationship.CUSTOMER
        candidate_length = current_length + 1
        for neighbor, relationship in relationships.neighbor_relationships(current):
            if customers_only and relationship != Relationship.CUSTOMER:
                continue
            if neighbor in current_path:
                continue
            candidate_rank, learned = _LEARNED_OVER[relationship]
            existing = best.get(neighbor)
            if existing is None or (candidate_rank, candidate_length) < existing[:2]:
                best[neighbor] = (candidate_rank, candidate_length, [neighbor] + current_path)
                learned_via[neighbor] = learned
                queue.append(neighbor)
    return {asn: path for asn, (_rank, _length, path) in best.items()}

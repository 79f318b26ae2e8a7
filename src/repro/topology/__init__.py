"""AS-level Internet topology: relationships, AS nodes, IXPs, generation, queries."""

from repro.topology.relationships import Relationship, RelationshipDataset
from repro.topology.asys import AutonomousSystem, AsRole
from repro.topology.ixp import Ixp, RouteServerConfig
from repro.topology.topology import Topology
from repro.topology.generator import TopologyGenerator, TopologyParameters
from repro.topology.graph import (
    classify_roles,
    valley_free_paths,
    transit_degree,
)

__all__ = [
    "Relationship",
    "RelationshipDataset",
    "AutonomousSystem",
    "AsRole",
    "Ixp",
    "RouteServerConfig",
    "Topology",
    "TopologyGenerator",
    "TopologyParameters",
    "classify_roles",
    "valley_free_paths",
    "transit_degree",
]

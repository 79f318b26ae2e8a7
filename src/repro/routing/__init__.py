"""BGP routing simulation: decision process, per-AS routers, propagation engine."""

from repro.routing.decision import best_path
from repro.routing.router import Router
from repro.routing.engine import (
    BgpSimulator,
    RoutingEvent,
    SimulationReport,
    origination_events,
)
from repro.routing.route_server import RouteServer, RouteServerDecision
from repro.routing.shard import ShardPool, partition_events, stable_shard
from repro.routing.stream import (
    SimulatorService,
    StreamStats,
    parse_event,
    read_event_stream,
)

__all__ = [
    "best_path",
    "Router",
    "BgpSimulator",
    "RoutingEvent",
    "SimulationReport",
    "ShardPool",
    "origination_events",
    "partition_events",
    "stable_shard",
    "RouteServer",
    "RouteServerDecision",
    "SimulatorService",
    "StreamStats",
    "parse_event",
    "read_event_stream",
]

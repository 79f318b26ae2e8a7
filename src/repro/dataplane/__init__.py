"""Data-plane simulation: FIBs, packet forwarding, ping and traceroute."""

from repro.dataplane.fib import Fib, FibEntry, build_fib
from repro.dataplane.forwarding import DataPlane, ForwardingOutcome, TracerouteResult

__all__ = [
    "Fib",
    "FibEntry",
    "build_fib",
    "DataPlane",
    "ForwardingOutcome",
    "TracerouteResult",
]

"""AS-level packet forwarding, ping and traceroute simulation.

The paper validates every attack on the data plane with RIPE Atlas
probes; :class:`DataPlane` provides the equivalent capability over the
simulated Internet: build every AS's FIB from the converged control
plane, then walk packets hop by hop, reporting delivery, blackholing,
loops, or missing routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.bgp.prefix import AddressFamily
from repro.dataplane.fib import Fib, build_fib, patch_fib
from repro.exceptions import DataPlaneError
from repro.routing.engine import BgpSimulator, SimulationReport

#: Hops a traced packet may take before it expires.
MAX_TTL = 64


class ForwardingOutcome(str, Enum):
    """What happened to a forwarded packet."""

    DELIVERED = "delivered"
    BLACKHOLED = "blackholed"
    NO_ROUTE = "no_route"
    LOOP = "loop"
    TTL_EXPIRED = "ttl_expired"


@dataclass
class TracerouteResult:
    """The AS-level path a packet took and how its journey ended."""

    source_asn: int
    destination: int
    outcome: ForwardingOutcome
    path: list[int] = field(default_factory=list)
    #: The AS at which the packet was dropped (if it was).
    dropped_at: int | None = None

    @property
    def reached(self) -> bool:
        """True if the packet was delivered."""
        return self.outcome == ForwardingOutcome.DELIVERED


class DataPlane:
    """Per-AS FIBs plus hop-by-hop forwarding over a converged simulation."""

    def __init__(self, simulator: BgpSimulator):
        self.simulator = simulator
        self.fibs: dict[int, Fib] = {}
        self.rebuild()

    def rebuild(self, report: SimulationReport | None = None) -> None:
        """Bring the FIBs in sync with the current control-plane state.

        Without a ``report`` every AS's FIB is rebuilt from scratch.  With
        the :class:`SimulationReport` returned by ``announce``/``withdraw``,
        only the (router, prefix) pairs whose best route changed during
        that run are re-derived — an incremental patch that costs
        O(dirty entries) instead of O(ASes x table size).  Falls back to a
        full rebuild when the router set changed since the last build.
        """
        routers = self.simulator.routers
        if report is None or self.fibs.keys() != routers.keys():
            self.fibs = {}
            for asn, router in routers.items():
                originated = set(router.originated)
                self.fibs[asn] = build_fib(asn, router.loc_rib, originated)
            return
        for asn, prefixes in report.dirty.items():
            router = routers.get(asn)
            if router is None:
                continue
            fib = self.fibs[asn]
            originated = set(router.originated)
            for prefix in prefixes:
                patch_fib(fib, asn, router.loc_rib, originated, prefix)

    def fib(self, asn: int) -> Fib:
        """Return the FIB of ``asn``."""
        try:
            return self.fibs[asn]
        except KeyError as exc:
            raise DataPlaneError(f"no FIB for AS{asn}") from exc

    # -------------------------------------------------------------- forwarding
    def traceroute(
        self, source_asn: int, destination: int, family: AddressFamily
    ) -> TracerouteResult:
        """Forward a packet from ``source_asn`` toward ``destination``, an address of ``family``."""
        if source_asn not in self.fibs:
            raise DataPlaneError(f"source AS{source_asn} is not part of the simulation")
        path = [source_asn]
        current = source_asn
        for _ in range(MAX_TTL):
            fib = self.fibs[current]
            entry = fib.lookup(destination, family)
            if entry is None:
                return TracerouteResult(
                    source_asn, destination, ForwardingOutcome.NO_ROUTE, path, dropped_at=current
                )
            if entry.blackholed:
                return TracerouteResult(
                    source_asn, destination, ForwardingOutcome.BLACKHOLED, path, dropped_at=current
                )
            if entry.is_local:
                return TracerouteResult(source_asn, destination, ForwardingOutcome.DELIVERED, path)
            next_asn = entry.next_hop_asn
            if next_asn in path:
                return TracerouteResult(
                    source_asn, destination, ForwardingOutcome.LOOP, path + [next_asn],
                    dropped_at=current,
                )
            if next_asn not in self.fibs:
                return TracerouteResult(
                    source_asn, destination, ForwardingOutcome.NO_ROUTE, path, dropped_at=current
                )
            path.append(next_asn)
            current = next_asn
        return TracerouteResult(
            source_asn, destination, ForwardingOutcome.TTL_EXPIRED, path, dropped_at=current
        )

    def ping(self, source_asn: int, destination: int, family: AddressFamily) -> bool:
        """True if a packet from ``source_asn`` reaches ``destination``: a traceroute's end."""
        return self.traceroute(source_asn, destination, family).reached

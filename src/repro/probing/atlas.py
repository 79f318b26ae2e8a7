"""A RIPE-Atlas-like active measurement platform over the simulated data plane.

The paper uses ~200 randomly chosen but fixed Atlas vantage points to
probe a prefix before and after each announcement (Section 7.6).  The
:class:`AtlasPlatform` here does the same: it owns a fixed set of
vantage points (ASes), issues ICMP-like pings and traceroutes through a
:class:`~repro.dataplane.forwarding.DataPlane`, and returns per-probe
results that the experiment drivers compare across announcement steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.prefix import Prefix
from repro.dataplane.forwarding import DataPlane, PingResult, TracerouteResult
from repro.exceptions import ProbingError
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng


@dataclass(frozen=True)
class VantagePoint:
    """One measurement probe: an identifier and the AS hosting it."""

    probe_id: int
    asn: int


@dataclass
class ProbeMeasurement:
    """The results of one measurement round across all vantage points."""

    target: Prefix
    pings: dict[int, PingResult] = field(default_factory=dict)
    traceroutes: dict[int, TracerouteResult] = field(default_factory=dict)

    def responsive_probes(self) -> set[int]:
        """Probe ids whose ping reached the target."""
        return {probe_id for probe_id, ping in self.pings.items() if ping.reachable}

    def unresponsive_probes(self) -> set[int]:
        """Probe ids whose ping did not reach the target."""
        return set(self.pings) - self.responsive_probes()


class AtlasPlatform:
    """A fixed set of vantage points probing targets over the simulated data plane."""

    def __init__(self, vantage_points: list[VantagePoint]):
        if not vantage_points:
            raise ProbingError("an Atlas platform needs at least one vantage point")
        self.vantage_points = list(vantage_points)

    @classmethod
    def deploy(
        cls,
        topology: Topology,
        probe_count: int = 200,
        seed: int = 11,
        exclude_asns: set[int] | None = None,
    ) -> "AtlasPlatform":
        """Place up to ``probe_count`` probes in distinct, randomly chosen ASes.

        Probes prefer stub ASes (where real Atlas probes overwhelmingly
        sit) and never land in excluded ASes (e.g. the attacker or the
        injection platform).
        """
        exclude_asns = exclude_asns or set()
        rng = DeterministicRng(seed).child("atlas")
        stub_pool = [a.asn for a in topology.stub_ases() if a.asn not in exclude_asns]
        transit_pool = [a.asn for a in topology.transit_ases() if a.asn not in exclude_asns]
        pool = stub_pool + transit_pool
        if not pool:
            raise ProbingError("topology has no candidate ASes for Atlas probes")
        chosen = rng.sample(pool, min(probe_count, len(pool)))
        points = [VantagePoint(probe_id=i + 1, asn=asn) for i, asn in enumerate(chosen)]
        return cls(points)

    def measure(
        self, dataplane: DataPlane, target: Prefix, with_traceroute: bool = False
    ) -> ProbeMeasurement:
        """Ping (and optionally traceroute) ``target`` from every vantage point."""
        measurement = ProbeMeasurement(target=target)
        address = target.host()
        # Pass the target's family explicitly: low IPv6 addresses (::/96)
        # would otherwise be inferred as IPv4 and miss their routes.
        family = target.family
        for vantage_point in self.vantage_points:
            if vantage_point.asn not in dataplane.fibs:
                continue
            if with_traceroute:
                # One forwarding walk answers both: the ping is the trace's end.
                trace = dataplane.traceroute(vantage_point.asn, address, family)
                measurement.traceroutes[vantage_point.probe_id] = trace
                ping = PingResult.from_trace(trace)
            else:
                ping = dataplane.ping(vantage_point.asn, address, family)
            measurement.pings[vantage_point.probe_id] = ping
        return measurement

    def compare(
        self, before: ProbeMeasurement, after: ProbeMeasurement
    ) -> tuple[set[int], set[int]]:
        """Return (probes that lost reachability, probes that gained reachability)."""
        lost = before.responsive_probes() & after.unresponsive_probes()
        gained = before.unresponsive_probes() & after.responsive_probes()
        return lost, gained

"""Injection platforms: the PEERING testbed and the research network.

The paper injects announcements from two points: the PEERING testbed
(hundreds of peers via route servers at ten PoPs, strict AUP: only own
prefixes, correct origin ASN, no hijacking) and an experimental research
network (one physical location, two upstreams, one of which propagates
communities).  :func:`attach_peering_testbed` and
:func:`attach_research_network` graft equivalent ASes onto a generated
topology, and :class:`InjectionPlatform` enforces the AUP when
announcing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import AupViolationError, TopologyError
from repro.policy.community_policy import ForwardAllPolicy, StripAllPolicy
from repro.routing.engine import BgpSimulator, SimulationReport
from repro.topology.asys import AsRole, AutonomousSystem
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng

#: The real PEERING testbed ASN, reused for recognisability.
PEERING_ASN = 47065
RESEARCH_NETWORK_ASN = 64496


@dataclass
class InjectionPlatform:
    """An AS under the experimenter's control, with an acceptable-use policy."""

    name: str
    asn: int
    allocated_prefixes: list[Prefix] = field(default_factory=list)
    #: Whether the AUP allows announcing prefixes outside the allocation
    #: (PEERING: no; the research network: yes, with coordination).
    allows_hijack: bool = False
    upstream_asns: list[int] = field(default_factory=list)

    def owns(self, prefix: Prefix) -> bool:
        """True if the prefix is inside the platform's allocation."""
        return any(own.contains_prefix(prefix) for own in self.allocated_prefixes)

    def _check_aup(self, prefix: Prefix, hijack: bool) -> None:
        """Raise :class:`AupViolationError` if announcing ``prefix`` violates the AUP."""
        if self.owns(prefix):
            return
        if not hijack:
            raise AupViolationError(
                f"{self.name} does not own {prefix}; pass hijack=True only where permitted"
            )
        if not self.allows_hijack:
            raise AupViolationError(
                f"the AUP of {self.name} forbids announcing prefixes outside its allocation"
            )

    def announce(
        self,
        simulator: BgpSimulator,
        prefix: Prefix,
        communities: CommunitySet | None = None,
        hijack: bool = False,
        spoofed_origin_asn: int | None = None,
    ) -> SimulationReport:
        """Announce a prefix from the platform, enforcing the AUP.

        ``hijack=True`` must be set explicitly when announcing address
        space outside the allocation; it raises
        :class:`AupViolationError` on platforms that forbid it.
        """
        self._check_aup(prefix, hijack)
        if spoofed_origin_asn is not None and not self.allows_hijack:
            raise AupViolationError(f"the AUP of {self.name} forbids origin spoofing")
        return simulator.announce(
            self.asn, prefix, communities=communities, spoofed_origin_asn=spoofed_origin_asn
        )

    def withdraw(self, simulator: BgpSimulator, prefix: Prefix) -> SimulationReport:
        """Withdraw a previously announced prefix."""
        return simulator.withdraw(self.asn, prefix)

    def withdraw_many(
        self, simulator: BgpSimulator, prefixes: list[Prefix]
    ) -> SimulationReport:
        """Withdraw many previously announced prefixes in one batched pass."""
        return simulator.withdraw_many((self.asn, prefix) for prefix in prefixes)


def _next_free_slash20(topology: Topology) -> int:
    """Find an unused /20 network for the platform allocation."""
    used = [p.network + (1 << (32 - p.length)) for p in topology.originated_prefixes() if p.is_ipv4]
    highest = max(used) if used else (1 << 24)
    # Round up to the next /20 boundary.
    block = 1 << 12
    return ((highest + block - 1) // block) * block


def attach_peering_testbed(
    topology: Topology,
    upstream_count: int,
) -> InjectionPlatform:
    """Attach a PEERING-like multi-PoP stub AS to the topology.

    The testbed becomes a customer of ``upstream_count`` transit ASes
    (its "points of presence"), receives a /20 allocation, and forwards
    communities on every session (the platform explicitly supports
    setting arbitrary communities).
    """
    asn = PEERING_ASN
    if asn in topology:
        raise TopologyError(f"AS{asn} already exists in the topology")
    rng = DeterministicRng(13).child("peering")
    transit_pool = [a.asn for a in topology.transit_ases()]
    if not transit_pool:
        raise TopologyError("topology has no transit ASes to attach the testbed to")
    upstreams = rng.sample(transit_pool, min(upstream_count, len(transit_pool)))
    testbed = AutonomousSystem(
        asn=asn,
        name="PEERING",
        role=AsRole.STUB,
        propagation_policy=ForwardAllPolicy(),
    )
    allocation = Prefix.ipv4(_next_free_slash20(topology), 20)
    testbed.add_prefix(allocation)
    topology.add_as(testbed)
    for upstream in upstreams:
        topology.add_customer_link(upstream, asn)
    return InjectionPlatform(
        name="PEERING",
        asn=asn,
        allocated_prefixes=[allocation],
        allows_hijack=False,
        upstream_asns=sorted(upstreams),
    )


def attach_research_network(
    topology: Topology,
    permissioned_hijack_space: Prefix | None = None,
) -> InjectionPlatform:
    """Attach the research-network injection point: two upstreams, one strips communities.

    ``permissioned_hijack_space`` models the address block the paper had
    explicit permission to hijack; announcing it still requires
    ``hijack=True`` but does not violate the platform AUP.
    """
    asn = RESEARCH_NETWORK_ASN
    if asn in topology:
        raise TopologyError(f"AS{asn} already exists in the topology")
    rng = DeterministicRng(17).child("research-network")
    transit_pool = [a.asn for a in topology.transit_ases()]
    if len(transit_pool) < 2:
        raise TopologyError("topology needs at least two transit ASes")
    upstreams = rng.sample(transit_pool, 2)
    # Only one of the two upstream providers propagates communities.
    topology.get_as(upstreams[0]).propagation_policy = ForwardAllPolicy()
    topology.get_as(upstreams[1]).propagation_policy = StripAllPolicy()
    network = AutonomousSystem(
        asn=asn,
        name="research-network",
        role=AsRole.STUB,
        propagation_policy=ForwardAllPolicy(),
    )
    allocation = Prefix.ipv4(_next_free_slash20(topology) + (1 << 16), 20)
    network.add_prefix(allocation)
    topology.add_as(network)
    for upstream in upstreams:
        topology.add_customer_link(upstream, asn)
    platform = InjectionPlatform(
        name="research-network",
        asn=asn,
        allocated_prefixes=[allocation],
        allows_hijack=True,
        upstream_asns=sorted(upstreams),
    )
    if permissioned_hijack_space is not None:
        platform.allocated_prefixes.append(permissioned_hijack_space)
    return platform

"""Internet-like AS topology generation.

The generator produces the substrate the paper's measurement rests on: a
hierarchical, Gao-Rexford-compatible AS graph (tier-1 clique, transit
providers, stubs), IXPs with route servers, prefix allocations, and —
crucially — per-AS community behaviour: which ASes offer community
services, which propagate foreign communities, which strip them, which
vendor profile their routers run, and which validate origins.

Every random decision is drawn from a :class:`DeterministicRng` child
stream so a given parameter set always yields the same Internet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.prefix import AddressFamily, Prefix
from repro.exceptions import TopologyError
from repro.policy.community_policy import (
    CommunityPropagationPolicy,
    ForwardAllPolicy,
    SelectivePolicy,
    StripAllPolicy,
    StripOwnPolicy,
)
from repro.policy.services import CommunityServiceCatalog
from repro.policy.vendor import CISCO_PROFILE, JUNIPER_PROFILE
from repro.topology.asys import AsRole, AutonomousSystem
from repro.topology.ixp import Ixp, RouteServerConfig
from repro.topology.topology import Topology
from repro.utils.rand import DeterministicRng


@dataclass
class PolicyMix:
    """Fractions of ASes using each community propagation behaviour.

    The paper's Section 4.4 finds a mixed picture: some ASes strip
    everything, some forward everything, and a large middle ground acts
    on and strips its own communities or forwards selectively.  The
    defaults give that mix, but not the paper's §4.3 headline (≈14 % of
    transit ASes forward foreign communities): ``strip_own`` and
    ``selective`` ASes forward foreign tags too, so about 80 % of
    transits can forward, and the measured forwarder fraction reads
    0.61–0.96 over small-scale topology seeds 41–50.
    """

    forward_all: float = 0.30
    strip_own: float = 0.25
    selective: float = 0.25
    strip_all: float = 0.20

    def __post_init__(self) -> None:
        total = self.forward_all + self.strip_own + self.selective + self.strip_all
        if abs(total - 1.0) > 1e-6:
            raise TopologyError(f"policy mix fractions must sum to 1.0, got {total}")


@dataclass
class TopologyParameters:
    """Knobs of the topology generator."""

    tier1_count: int = 5
    transit_count: int = 60
    stub_count: int = 300
    ixp_count: int = 3
    ixp_member_fraction: float = 0.15
    #: Probability that a transit AS peers with another transit AS.
    transit_peering_probability: float = 0.08
    #: Providers per transit AS (1..max).
    max_transit_providers: int = 2
    #: Providers per stub AS (1..max).
    max_stub_providers: int = 2
    #: Fraction of transit ASes offering community services (prepend/local-pref/RTBH).
    service_fraction: float = 0.6
    #: Fraction of ASes running Juniper-like (propagate-by-default) routers.
    juniper_fraction: float = 0.5
    #: Fraction of ASes validating origins against the IRR.
    origin_validation_fraction: float = 0.3
    #: Fraction of validating ASes with the blackhole-before-validation misconfig.
    misconfiguration_fraction: float = 0.2
    #: Prefixes per AS (1..max, Pareto distributed).
    max_prefixes_per_as: int = 4
    #: Fraction of ASes that also originate an IPv6 prefix (Table 1: ~8 % of prefixes).
    ipv6_fraction: float = 0.2
    policy_mix: PolicyMix = field(default_factory=PolicyMix)
    seed: int = 42


class TopologyGenerator:
    """Generates a :class:`Topology` from :class:`TopologyParameters`."""

    #: First ASN handed out; IXP route servers get ASNs in a separate range.
    FIRST_ASN = 100
    IXP_ASN_BASE = 60000

    def __init__(self, parameters: TopologyParameters):
        self.parameters = parameters
        self._rng = DeterministicRng(parameters.seed)

    # ------------------------------------------------------------------ build
    def generate(self) -> Topology:
        """Generate the full topology."""
        params = self.parameters
        topology = Topology()
        tier1_asns = self._create_ases(topology, params.tier1_count, AsRole.TIER1, self.FIRST_ASN)
        transit_asns = self._create_ases(
            topology, params.transit_count, AsRole.TRANSIT, self.FIRST_ASN + 1000
        )
        stub_asns = self._create_ases(
            topology, params.stub_count, AsRole.STUB, self.FIRST_ASN + 10000
        )

        self._link_tier1_clique(topology, tier1_asns)
        self._link_transit(topology, tier1_asns, transit_asns)
        self._link_stubs(topology, transit_asns + tier1_asns, stub_asns)
        self._create_ixps(topology, transit_asns + stub_asns)
        self._allocate_prefixes(topology)
        self._assign_policies(topology)
        self._assign_services(topology)
        return topology

    # ------------------------------------------------------------------ nodes
    def _create_ases(
        self, topology: Topology, count: int, role: AsRole, base_asn: int
    ) -> list[int]:
        asns = []
        for i in range(count):
            asn = base_asn + i
            topology.add_as(AutonomousSystem(asn=asn, role=role))
            asns.append(asn)
        return asns

    # ------------------------------------------------------------------ links
    def _link_tier1_clique(self, topology: Topology, tier1_asns: list[int]) -> None:
        for i, asn_a in enumerate(tier1_asns):
            for asn_b in tier1_asns[i + 1:]:
                topology.add_peer_link(asn_a, asn_b)

    def _link_transit(
        self, topology: Topology, tier1_asns: list[int], transit_asns: list[int]
    ) -> None:
        rng = self._rng.child("transit-links")
        params = self.parameters
        for index, asn in enumerate(transit_asns):
            # Candidate providers: tier-1s plus transit ASes created earlier
            # (earlier ASes sit higher in the hierarchy).
            candidates = tier1_asns + transit_asns[:index]
            provider_count = rng.randint(1, params.max_transit_providers)
            for provider in rng.sample(candidates, provider_count):
                if topology.relationship(provider, asn) is None:
                    topology.add_customer_link(provider, asn)
            # Lateral peering among transit ASes.
            for other in transit_asns[:index]:
                if other != asn and topology.relationship(other, asn) is None:
                    if rng.chance(params.transit_peering_probability):
                        topology.add_peer_link(other, asn)

    def _link_stubs(
        self, topology: Topology, provider_pool: list[int], stub_asns: list[int]
    ) -> None:
        rng = self._rng.child("stub-links")
        params = self.parameters
        for asn in stub_asns:
            provider_count = rng.randint(1, params.max_stub_providers)
            for provider in rng.sample(provider_pool, provider_count):
                if topology.relationship(provider, asn) is None:
                    topology.add_customer_link(provider, asn)

    # ------------------------------------------------------------------- IXPs
    def _create_ixps(self, topology: Topology, member_pool: list[int]) -> None:
        rng = self._rng.child("ixps")
        params = self.parameters
        for i in range(params.ixp_count):
            rs_asn = self.IXP_ASN_BASE + i
            topology.add_as(AutonomousSystem(asn=rs_asn, role=AsRole.IXP, name=f"IXP-{i}-RS"))
            member_count = max(2, int(len(member_pool) * params.ixp_member_fraction))
            members = rng.sample(member_pool, member_count)
            ixp = Ixp(
                name=f"IXP-{i}",
                route_server_asn=rs_asn,
                members=set(members),
                route_server_config=RouteServerConfig(ixp_asn=rs_asn),
            )
            topology.add_ixp(ixp)

    # --------------------------------------------------------------- prefixes
    def _allocate_prefixes(self, topology: Topology) -> None:
        rng = self._rng.child("prefixes")
        params = self.parameters
        next_slash16 = 1 << 24  # start at 1.0.0.0
        next_v6_block = 0x2001 << 112  # start at 2001::/16 space
        for asn in topology.asns():
            asys = topology.get_as(asn)
            if asys.role == AsRole.IXP:
                continue
            prefix_count = rng.pareto_int(1.8, 1, params.max_prefixes_per_as)
            for _ in range(prefix_count):
                prefix = Prefix(AddressFamily.IPV4, next_slash16, 16)
                asys.add_prefix(prefix)
                next_slash16 += 1 << 16
            if rng.chance(params.ipv6_fraction):
                prefix = Prefix(AddressFamily.IPV6, next_v6_block, 32)
                asys.add_prefix(prefix)
                next_v6_block += 1 << 96

    # --------------------------------------------------------------- policies
    def _propagation_policy_for(
        self, rng: DeterministicRng, asys: AutonomousSystem, topology: Topology
    ) -> CommunityPropagationPolicy:
        mix = self.parameters.policy_mix
        roll = rng.random()
        if roll < mix.forward_all:
            return ForwardAllPolicy()
        roll -= mix.forward_all
        if roll < mix.strip_own:
            return StripOwnPolicy()
        roll -= mix.strip_own
        if roll < mix.selective:
            neighbors = topology.neighbors(asys.asn)
            customers = set(topology.customers(asys.asn))
            # Forward to customers (and a random subset of other neighbors).
            forward_to = set(customers)
            for neighbor in neighbors:
                if neighbor not in customers and rng.chance(0.3):
                    forward_to.add(neighbor)
            return SelectivePolicy(forward_to_neighbors=frozenset(forward_to))
        return StripAllPolicy()

    def _assign_policies(self, topology: Topology) -> None:
        rng = self._rng.child("policies")
        params = self.parameters
        for asn in topology.asns():
            asys = topology.get_as(asn)
            if asys.role == AsRole.IXP:
                asys.propagation_policy = ForwardAllPolicy()
                asys.vendor = JUNIPER_PROFILE
                continue
            asys.propagation_policy = self._propagation_policy_for(rng, asys, topology)
            asys.vendor = (
                JUNIPER_PROFILE if rng.chance(params.juniper_fraction) else CISCO_PROFILE
            )
            asys.validates_origin = rng.chance(params.origin_validation_fraction)
            if asys.validates_origin:
                asys.blackhole_before_validation = rng.chance(params.misconfiguration_fraction)

    def _assign_services(self, topology: Topology) -> None:
        rng = self._rng.child("services")
        params = self.parameters
        for asys in topology.transit_ases():
            if rng.chance(params.service_fraction):
                asys.services = CommunityServiceCatalog.standard_transit_catalog(asys.asn)

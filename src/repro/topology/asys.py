"""The per-AS node model.

An :class:`AutonomousSystem` holds the organisational facts the
simulator and the dataset generator need: originated prefixes, the
community services it offers, its community propagation policy, the
vendor profile of its routers, and whether it validates origins against
the IRR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.bgp.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type checkers only
    from repro.policy.community_policy import CommunityPropagationPolicy
    from repro.policy.services import CommunityServiceCatalog
    from repro.policy.vendor import VendorProfile


class AsRole(str, Enum):
    """Topological role of an AS, mirroring the paper's Table 1 columns."""

    #: Originates at least one prefix (almost every AS).
    ORIGIN = "origin"
    #: Appears on at least one path as neither origin nor collector peer.
    TRANSIT = "transit"
    #: Never provides transit: only originates its own prefixes.
    STUB = "stub"
    #: A tier-1 transit-free provider.
    TIER1 = "tier1"
    #: An IXP route-server AS (off-path by convention).
    IXP = "ixp"
    #: A route collector AS.
    COLLECTOR = "collector"


@dataclass
class AutonomousSystem:
    """One AS in the simulated Internet."""

    asn: int
    name: str = ""
    role: AsRole = AsRole.STUB
    prefixes: list[Prefix] = field(default_factory=list)
    #: The community propagation policy applied when exporting routes.
    propagation_policy: "CommunityPropagationPolicy | None" = None
    #: The community-triggered services this AS offers to neighbors.
    services: "CommunityServiceCatalog | None" = None
    #: The router vendor profile (Cisco-like, Juniper-like, ...).
    vendor: "VendorProfile | None" = None
    #: Whether this AS validates announcement origins against the IRR.
    validates_origin: bool = False
    #: Whether the RTBH route-map is evaluated before origin validation
    #: (the misconfiguration highlighted in Section 6.3 of the paper).
    blackhole_before_validation: bool = False

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive, got {self.asn}")
        if not self.name:
            self.name = f"AS{self.asn}"

    @property
    def is_transit(self) -> bool:
        """True if the AS provides transit (tier-1s are transit ASes too)."""
        return self.role in (AsRole.TRANSIT, AsRole.TIER1)

    @property
    def is_stub(self) -> bool:
        """True for stub (non-transit) ASes."""
        return self.role == AsRole.STUB

    def add_prefix(self, prefix: Prefix) -> None:
        """Register an originated prefix."""
        if prefix not in self.prefixes:
            self.prefixes.append(prefix)

    def __str__(self) -> str:
        return f"AS{self.asn} ({self.role.value})"

    def __repr__(self) -> str:
        return f"AutonomousSystem(asn={self.asn}, role={self.role.value})"

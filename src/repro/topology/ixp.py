"""Internet exchange points and their route servers.

IXPs matter to the paper for two reasons: (a) PCH's collectors peer with
IXP route servers, giving visibility into member routes; and (b) route
servers offer community-based redistribution control whose evaluation
order enables the Section 5.3 / 7.5 route-manipulation attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import Community
from repro.exceptions import TopologyError


@dataclass
class RouteServerConfig:
    """Community semantics of an IXP route server.

    Redistribution control uses the conventional encodings:

    * ``ixp_asn:peer_asn`` — announce this route to ``peer_asn`` only;
    * ``0:peer_asn`` — do NOT announce this route to ``peer_asn``;
    * ``ixp_asn:ixp_asn`` — announce to all members (default behaviour);
    * ``0:ixp_asn`` — do not announce to any member.

    ``suppress_before_redistribute`` captures the evaluation order the
    paper verified at a large IXP: the "do not announce" rule is applied
    before the "announce" rule, so conflicting communities suppress the
    route (Section 7.5).
    """

    ixp_asn: int
    suppress_before_redistribute: bool = True

    def announce_to(self, peer_asn: int) -> Community:
        """Community requesting redistribution to ``peer_asn``."""
        return Community(self.ixp_asn, peer_asn)

    def suppress_to(self, peer_asn: int) -> Community:
        """Community requesting suppression towards ``peer_asn``."""
        return Community(0, peer_asn)

    def announce_to_all(self) -> Community:
        """Community requesting redistribution to every member."""
        return Community(self.ixp_asn, self.ixp_asn)

    def suppress_to_all(self) -> Community:
        """Community requesting suppression towards every member."""
        return Community(0, self.ixp_asn)

    def is_control_community(self, community: Community) -> bool:
        """True if the community addresses this route server."""
        return community.asn in (self.ixp_asn, 0)


@dataclass
class Ixp:
    """An Internet exchange point with a route server and a member list."""

    name: str
    route_server_asn: int
    members: set[int] = field(default_factory=set)
    route_server_config: RouteServerConfig | None = None

    def __post_init__(self) -> None:
        if self.route_server_config is None:
            self.route_server_config = RouteServerConfig(ixp_asn=self.route_server_asn)
        if self.route_server_config.ixp_asn != self.route_server_asn:
            raise TopologyError(
                f"route server config ASN {self.route_server_config.ixp_asn} does not match "
                f"IXP route server ASN {self.route_server_asn}"
            )

    def is_member(self, asn: int) -> bool:
        """True if the AS peers at this exchange."""
        return asn in self.members

    def member_count(self) -> int:
        """Number of member ASes."""
        return len(self.members)

    def __str__(self) -> str:
        return f"{self.name} (RS AS{self.route_server_asn}, {len(self.members)} members)"

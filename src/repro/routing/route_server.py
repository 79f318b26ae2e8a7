"""IXP route servers and their community-controlled redistribution.

A route server receives announcements from IXP members and redistributes
them to the other members without inserting its own ASN into the path
(which is why IXP communities show up as "off-path" in the paper's
Section 4.3).  Members steer redistribution with control communities;
the order in which conflicting "announce to X" and "do not announce to
X" rules are evaluated is exactly the property the Section 7.5
experiment probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.bgp.route import Announcement
from repro.exceptions import RoutingError
from repro.topology.ixp import Ixp, RouteServerConfig


@dataclass
class RouteServerDecision:
    """Per-member redistribution decision for one received announcement."""

    prefix: Prefix
    from_member: int
    redistributed_to: frozenset[int]
    suppressed_to: frozenset[int]
    reasons: dict[int, str] = field(default_factory=dict)


class RouteServer:
    """The route server of one IXP."""

    def __init__(self, ixp: Ixp):
        self.ixp = ixp
        self.config: RouteServerConfig = ixp.route_server_config  # type: ignore[assignment]
        #: announcements received per (member, prefix).
        self._received: dict[tuple[int, Prefix], Announcement] = {}
        #: per-member view of redistributed routes: member -> prefix -> Announcement.
        self.member_views: dict[int, dict[Prefix, Announcement]] = {
            member: {} for member in ixp.members
        }

    # ----------------------------------------------------------------- intake
    def receive(self, announcement: Announcement) -> RouteServerDecision:
        """Process one member announcement and redistribute it."""
        member = announcement.sender_asn
        if not self.ixp.is_member(member):
            raise RoutingError(
                f"AS{member} is not a member of {self.ixp.name}; cannot announce to its route server"
            )
        self._received[(member, announcement.prefix)] = announcement
        return self._redistribute(announcement)

    def _evaluate_targets(self, communities: CommunitySet, from_member: int) -> tuple[set[int], set[int], dict[int, str]]:
        """Return (allowed members, suppressed members, reasons) for a community set."""
        members = set(self.ixp.members) - {from_member}
        reasons: dict[int, str] = {}

        announce_requests: set[int] = set()
        suppress_requests: set[int] = set()
        suppress_all = False
        announce_all = False
        for community in communities:
            if community == self.config.announce_to_all():
                announce_all = True
            elif community == self.config.suppress_to_all():
                suppress_all = True
            elif community.asn == self.config.ixp_asn and community.value in members:
                announce_requests.add(community.value)
            elif community.asn == 0 and community.value in members:
                suppress_requests.add(community.value)

        # Default behaviour: redistribute to everyone unless selective
        # announcement communities are present.
        if announce_requests and not announce_all:
            allowed = set(announce_requests)
            # Sorted so the reasons mapping fills member-order deterministically
            # (set iteration order must never leak into rendered output).
            for member in sorted(members - allowed):
                reasons[member] = "not in selective-announce set"
        else:
            allowed = set(members)
        if suppress_all:
            for member in sorted(allowed):
                reasons[member] = "suppress-to-all community"
            allowed = set()
        # Conflict resolution: the paper's target IXP evaluates suppression
        # after computing the announce set when suppress_before_redistribute
        # is True, meaning "do not announce" wins over "announce".
        suppressed = set()
        for member in sorted(suppress_requests):
            if member in allowed:
                if self.config.suppress_before_redistribute:
                    allowed.discard(member)
                    suppressed.add(member)
                    reasons[member] = "suppression community evaluated before redistribution"
                else:
                    reasons[member] = "redistribution community evaluated before suppression"
            else:
                suppressed.add(member)
                reasons.setdefault(member, "suppression community")
        return allowed, suppressed | (members - allowed - suppressed), reasons

    def _redistribute(self, announcement: Announcement) -> RouteServerDecision:
        """Update every member's view with the redistribution decision."""
        allowed, suppressed, reasons = self._evaluate_targets(
            announcement.attributes.communities, announcement.sender_asn
        )
        # The route server strips its own control communities before
        # redistributing routes to members (common practice).
        outbound_communities = announcement.attributes.communities.filter(
            lambda c: not self.config.is_control_community(c)
        )
        outbound = announcement.replace(
            attributes=announcement.attributes.replace(communities=outbound_communities)
        )
        for member in self.ixp.members:
            if member == announcement.sender_asn:
                continue
            view = self.member_views.setdefault(member, {})
            if member in allowed:
                view[announcement.prefix] = outbound
            else:
                view.pop(announcement.prefix, None)
        return RouteServerDecision(
            prefix=announcement.prefix,
            from_member=announcement.sender_asn,
            redistributed_to=frozenset(allowed),
            suppressed_to=frozenset(suppressed),
            reasons=reasons,
        )

    # -------------------------------------------------------------- inspection
    def routes_for_member(self, member_asn: int) -> dict[Prefix, Announcement]:
        """Return the routes currently redistributed to ``member_asn``."""
        if member_asn not in self.ixp.members:
            raise RoutingError(f"AS{member_asn} is not a member of {self.ixp.name}")
        return dict(self.member_views.get(member_asn, {}))

    def member_has_route(self, member_asn: int, prefix: Prefix) -> bool:
        """True if ``member_asn`` currently receives a route for ``prefix``."""
        return prefix in self.routes_for_member(member_asn)

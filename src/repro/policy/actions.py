"""Community-triggered actions.

Bonaventure et al.'s taxonomy, which the paper adopts in Section 2,
groups outbound community meanings into route selection (local-pref /
prepending), selective announcement, route suppression, blackholing,
and location tagging.  Each category is modelled as an action class the
policy engine applies when a route carrying the triggering community is
processed by the AS that owns the community.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.bgp.attributes import PathAttributes
from repro.exceptions import PolicyError


class ActionType(str, Enum):
    """The taxonomy categories of community-triggered actions."""

    PREPEND = "prepend"
    LOCAL_PREF = "local_pref"
    BLACKHOLE = "blackhole"
    SELECTIVE_ANNOUNCE = "selective_announce"
    SUPPRESS = "suppress"
    LOCATION = "location"
    INFORMATIONAL = "informational"


@dataclass(frozen=True)
class ActionOutcome:
    """The result of applying an action to a route at the community target."""

    attributes: PathAttributes
    #: Route must not be exported to these neighbor ASNs (None = no restriction).
    suppress_to: frozenset[int] = frozenset()
    #: Route may ONLY be exported to these neighbor ASNs (None = no restriction).
    announce_only_to: frozenset[int] | None = None
    #: Traffic to the prefix is dropped at this AS (next hop rewritten to null).
    blackholed: bool = False
    #: Extra copies of the owner's ASN prepended when the route is exported.
    export_prepend: int = 0


class CommunityAction:
    """Base class: an action an AS performs when it sees one of its communities."""

    action_type: ActionType = ActionType.INFORMATIONAL

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        """Apply the action at the community owner; return the outcome."""
        raise NotImplementedError


@dataclass(frozen=True)
class PrependAction(CommunityAction):
    """Prepend the owner's ASN ``count`` extra times on export (e.g. NTT 2914:42x)."""

    count: int
    action_type: ActionType = ActionType.PREPEND

    def __post_init__(self) -> None:
        if not 1 <= self.count <= 16:
            raise PolicyError(f"prepend count {self.count} out of the sane range 1..16")

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        # Prepending happens on export, so the stored path stays as received
        # and the community does not distort the owner's own selection.
        return ActionOutcome(attributes=attributes, export_prepend=self.count)


@dataclass(frozen=True)
class LocalPrefAction(CommunityAction):
    """Set LOCAL_PREF to a fixed value (e.g. a "customer backup" preference)."""

    local_pref: int
    action_type: ActionType = ActionType.LOCAL_PREF

    def __post_init__(self) -> None:
        if not 0 <= self.local_pref <= 0xFFFFFFFF:
            raise PolicyError(f"local-pref {self.local_pref} out of 32-bit range")

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        return ActionOutcome(attributes=attributes.replace(local_pref=self.local_pref))


@dataclass(frozen=True)
class BlackholeAction(CommunityAction):
    """Drop traffic to the tagged prefix (remotely triggered blackholing).

    ``raise_local_pref_to`` models the recommended RTBH configurations
    that prefer blackhole routes over regular best-path selection
    (Section 5.1: "often preferred treatment of the blackhole community
    before best path selection").
    """

    raise_local_pref_to: int | None = 200
    action_type: ActionType = ActionType.BLACKHOLE

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        new_attributes = attributes
        if self.raise_local_pref_to is not None:
            new_attributes = new_attributes.replace(local_pref=self.raise_local_pref_to)
        return ActionOutcome(attributes=new_attributes, blackholed=True)


@dataclass(frozen=True)
class SelectiveAnnounceAction(CommunityAction):
    """Announce the route only to the listed neighbor ASNs."""

    neighbor_asns: frozenset[int]
    action_type: ActionType = ActionType.SELECTIVE_ANNOUNCE

    def __post_init__(self) -> None:
        if not self.neighbor_asns:
            raise PolicyError("selective announce action needs at least one neighbor ASN")

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        return ActionOutcome(attributes=attributes, announce_only_to=frozenset(self.neighbor_asns))


@dataclass(frozen=True)
class SuppressAction(CommunityAction):
    """Do not announce the route to the listed neighbor ASNs (empty = to nobody)."""

    neighbor_asns: frozenset[int] = frozenset()
    suppress_all: bool = False
    action_type: ActionType = ActionType.SUPPRESS

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        if self.suppress_all:
            return ActionOutcome(attributes=attributes, announce_only_to=frozenset())
        return ActionOutcome(attributes=attributes, suppress_to=frozenset(self.neighbor_asns))


@dataclass(frozen=True)
class LocationTagAction(CommunityAction):
    """Tag incoming routes with an ingress-location community (e.g. AS6:201 = LAX)."""

    location_value: int
    action_type: ActionType = ActionType.LOCATION

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        from repro.bgp.community import Community

        tagged = attributes.with_communities_added([Community(owner_asn, self.location_value)])
        return ActionOutcome(attributes=tagged)


@dataclass(frozen=True)
class NoopInformationalAction(CommunityAction):
    """A purely informational community: no routing effect."""

    action_type: ActionType = ActionType.INFORMATIONAL

    def apply(self, attributes: PathAttributes, owner_asn: int) -> ActionOutcome:
        return ActionOutcome(attributes=attributes)

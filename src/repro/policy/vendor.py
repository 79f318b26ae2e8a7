"""Router vendor behaviour profiles.

Section 6.1 of the paper distils the lab findings into a handful of
behavioural differences between the two dominant vendors:

* both accept updates carrying communities by default;
* only Juniper *propagates* communities to neighbors by default — Cisco
  requires explicit ``send-community`` per neighbor or peer group;
* both sort communities numerically when displaying and sending;
* Cisco limits a single configuration statement to adding 32 distinct
  communities to a prefix;
* a BGP update can carry at most 2^16 / 4 = 16K communities.

A :class:`VendorProfile` bundles the two that differ (sending by
default, the add limit) so the routing simulator can be populated with
a realistic vendor mix; the rest hold for both vendors and need no switch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.attributes import CISCO_MAX_ADDED_COMMUNITIES, MAX_COMMUNITIES_PER_UPDATE
from repro.exceptions import PolicyError


@dataclass(frozen=True)
class VendorProfile:
    """Behavioural switches of a router platform."""

    name: str
    #: Are received communities propagated to neighbors without explicit config?
    send_communities_by_default: bool
    #: Maximum communities a single policy statement may add to a prefix.
    max_added_communities: int

    def effective_send_communities(self, explicitly_configured: bool) -> bool:
        """Return whether communities are sent to a neighbor.

        ``explicitly_configured`` models the operator adding
        ``send-community`` (Cisco) or an export policy (Juniper).
        """
        return self.send_communities_by_default or explicitly_configured

    def check_added_communities(self, count: int) -> None:
        """Raise :class:`PolicyError` if a statement adds more communities than allowed."""
        if count > self.max_added_communities:
            raise PolicyError(
                f"{self.name} permits adding at most {self.max_added_communities} communities "
                f"in one statement, got {count}"
            )


#: Cisco IOS / IOS XE behaviour: communities accepted but only sent when
#: ``send-community`` is configured; 32-community add limit.
CISCO_PROFILE = VendorProfile(
    name="cisco-ios",
    send_communities_by_default=False,
    max_added_communities=CISCO_MAX_ADDED_COMMUNITIES,
)

#: JunOS behaviour: communities propagated by default.
JUNIPER_PROFILE = VendorProfile(
    name="junos",
    send_communities_by_default=True,
    max_added_communities=MAX_COMMUNITIES_PER_UPDATE,
)

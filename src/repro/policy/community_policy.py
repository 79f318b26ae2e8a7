"""Community propagation policies.

Section 4.4 of the paper finds that operators handle received
communities in wildly different ways: "some remove all communities,
some do not tamper with them at all, while others act upon and remove
communities directed at them and leave the rest in place", and yet
others forward selectively per neighbor.  Each of those behaviours is a
policy class here; the topology generator assigns a mix of them and the
measurement pipeline then re-discovers the mix from the dumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

from repro.bgp.community import CommunitySet


class PropagationBehavior(str, Enum):
    """Labels for the propagation behaviours used by the dataset generator."""

    FORWARD_ALL = "forward_all"
    STRIP_ALL = "strip_all"
    STRIP_OWN = "strip_own"
    SELECTIVE = "selective"


class CommunityPropagationPolicy:
    """Decides which received communities an AS forwards to a given neighbor."""

    #: The Section 4.4 behaviour; each subclass names its own.
    behavior: ClassVar[PropagationBehavior]

    def outbound_communities(
        self, communities: CommunitySet, own_asn: int, neighbor_asn: int
    ) -> CommunitySet:
        """Return the communities to attach when exporting to ``neighbor_asn``."""
        raise NotImplementedError

    def neighbor_signature(self, neighbor_asn: int) -> object:
        """A hashable token capturing how this policy treats ``neighbor_asn``.

        Two neighbors with equal signatures are guaranteed to receive
        identical :meth:`outbound_communities` results for any input —
        the contract the collector-harvest export memo relies on to pay
        the rewrite chain once per peer instead of once per (peer,
        collector) session.  The base implementation returns the
        neighbor ASN itself, i.e. *no* cross-neighbor sharing: a custom
        subclass is never wrongly memoised just because it forgot to
        override this.
        """
        return neighbor_asn


@dataclass
class ForwardAllPolicy(CommunityPropagationPolicy):
    """Forward every received community untouched (Juniper default behaviour)."""

    behavior: ClassVar[PropagationBehavior] = PropagationBehavior.FORWARD_ALL

    def outbound_communities(
        self, communities: CommunitySet, own_asn: int, neighbor_asn: int
    ) -> CommunitySet:
        return communities

    def neighbor_signature(self, neighbor_asn: int) -> object:
        return None


@dataclass
class StripAllPolicy(CommunityPropagationPolicy):
    """Remove every community on export except the ones this AS added itself (its
    own signals); also models Cisco with send-community unset."""

    behavior: ClassVar[PropagationBehavior] = PropagationBehavior.STRIP_ALL

    def outbound_communities(
        self, communities: CommunitySet, own_asn: int, neighbor_asn: int
    ) -> CommunitySet:
        return communities.keep_asn(own_asn)

    def neighbor_signature(self, neighbor_asn: int) -> object:
        return None


@dataclass
class StripOwnPolicy(CommunityPropagationPolicy):
    """Act-and-remove: strip communities addressed to this AS, forward the rest."""

    behavior: ClassVar[PropagationBehavior] = PropagationBehavior.STRIP_OWN

    def outbound_communities(
        self, communities: CommunitySet, own_asn: int, neighbor_asn: int
    ) -> CommunitySet:
        return communities.remove_asn(own_asn)

    def neighbor_signature(self, neighbor_asn: int) -> object:
        return None


@dataclass
class SelectivePolicy(CommunityPropagationPolicy):
    """Forward communities only to an allow-listed set of neighbors.

    To everyone else the AS strips foreign communities (it still sends
    its own).  This models the operational practice of treating
    customers and peers differently.
    """

    forward_to_neighbors: frozenset[int] = frozenset()
    behavior: ClassVar[PropagationBehavior] = PropagationBehavior.SELECTIVE

    def outbound_communities(
        self, communities: CommunitySet, own_asn: int, neighbor_asn: int
    ) -> CommunitySet:
        if neighbor_asn in self.forward_to_neighbors:
            return communities
        return communities.keep_asn(own_asn)

    def neighbor_signature(self, neighbor_asn: int) -> object:
        # The only neighbor-dependence is allow-list membership.
        return neighbor_asn in self.forward_to_neighbors

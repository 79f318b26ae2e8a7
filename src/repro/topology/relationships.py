"""AS business relationships.

The paper uses the CAIDA AS-relationship dataset to classify AS edges
into customer-provider and peer-peer links (Section 4.4).  This module
models the relationship types; :class:`~repro.topology.topology.Topology`
holds each AS's links, and no as-rel file is read.
"""

from __future__ import annotations

from enum import IntEnum


class Relationship(IntEnum):
    """Business relationship of an AS edge, from the first AS's point of view."""

    #: The other AS is my customer (I provide transit to them).
    CUSTOMER = -1
    #: The other AS is a settlement-free peer.
    PEER = 0
    #: The other AS is my provider (they provide transit to me).
    PROVIDER = 1

    def inverse(self) -> "Relationship":
        """Return the relationship from the other AS's point of view."""
        if self == Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self == Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER

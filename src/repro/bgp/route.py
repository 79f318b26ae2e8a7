"""Announcements and RIB entries.

An :class:`Announcement` is the unit the routing simulator propagates
and the unit the collectors record; a :class:`RouteEntry` is an
announcement as stored in a RIB together with book-keeping about the
neighbor it was learned from.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix


def _replaced(record, changes: dict):
    """``record._replace(**changes)`` with the unknown-field ``TypeError`` of a dataclass."""
    try:
        return record._replace(**changes)
    except ValueError as exc:  # how Python < 3.13 reports an unknown field name
        raise TypeError(f"{type(record).__name__}.replace(): {exc}") from None


class Announcement(NamedTuple):
    """A BGP route announcement for one prefix.

    ``sender_asn`` is the AS the announcement is arriving from (the
    neighbor), ``origin_asn`` is the AS that originated the prefix.
    ``timestamp`` is simulation time in seconds (not wall-clock).
    An immutable value: one announcement is shared by every session an
    exporter treats alike, and equal announcements compare equal.
    """

    prefix: Prefix
    attributes: PathAttributes
    sender_asn: int
    origin_asn: int
    timestamp: float = 0.0

    @property
    def as_path(self):
        """Shortcut to the AS_PATH attribute."""
        return self.attributes.as_path

    @property
    def communities(self) -> CommunitySet:
        """Shortcut to the communities attribute."""
        return self.attributes.communities

    def replace(self, **changes) -> "Announcement":
        """Return a copy with fields replaced."""
        return _replaced(self, changes)

    def __str__(self) -> str:
        return (
            f"{self.prefix} via AS{self.sender_asn} path [{self.attributes.as_path}] "
            f"communities {self.attributes.communities}"
        )


class RouteEntry(NamedTuple):
    """A route stored in a RIB.

    ``learned_from`` is the neighbor ASN (or the local ASN for
    originated routes); ``blackholed`` marks routes whose next hop has
    been rewritten to a discard (null) interface as the result of a
    blackhole community.  An immutable value: the Adj-RIB-In, the
    Loc-RIB candidate list and, once selected, the Loc-RIB best slot
    hold the same object.
    """

    prefix: Prefix
    attributes: PathAttributes
    learned_from: int
    blackholed: bool = False
    rejected: bool = False
    rejection_reason: str | None = None
    #: Extra times the local ASN is prepended when this route is exported
    #: (the effect of a path-prepending community acting at this AS).
    export_prepend: int = 0
    #: Neighbors this route must NOT be exported to (suppression communities).
    suppress_to: frozenset[int] = frozenset()
    #: If not None, the route may ONLY be exported to these neighbors.
    announce_only_to: frozenset[int] | None = None

    @property
    def as_path(self):
        """Shortcut to the AS_PATH attribute."""
        return self.attributes.as_path

    @property
    def communities(self) -> CommunitySet:
        """Shortcut to the communities attribute."""
        return self.attributes.communities

    def replace(self, **changes) -> "RouteEntry":
        """Return a copy with fields replaced."""
        return _replaced(self, changes)

    def same_route(self, other: "RouteEntry") -> bool:
        """Field equality, cheapest difference first.

        This is the comparison best-path refresh runs when the newly
        selected entry is not the stored one: export-side fields
        (``suppress_to``, ``announce_only_to``, ``export_prepend``) count,
        because a re-announcement that only alters them still changes
        what neighbors receive.
        """
        return (
            self.learned_from == other.learned_from  # the usual difference, and the cheapest
            and self[3:] == other[3:]
            and self[:2] == other[:2]
        )

    def __str__(self) -> str:
        flags = []
        if self.blackholed:
            flags.append("blackholed")
        if self.rejected:
            flags.append("rejected")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"{self.prefix} from AS{self.learned_from} path [{self.attributes.as_path}]"
            f"{flag_text}"
        )


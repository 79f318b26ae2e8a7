"""BGP community attribute values (RFC 1997).

A traditional community is a 32-bit value.  By convention (and as the
paper assumes throughout Section 4) the high-order 16 bits hold the AS
number of the entity that defines the community and the low-order 16
bits hold an operator-chosen label, written ``ASN:value``.

The module also defines the small set of well-known communities the
paper refers to (NO_EXPORT, NO_PEER, the RFC 7999 BLACKHOLE community)
and helpers to classify private ASNs (RFC 6996), which the paper uses
to separate "off-path w/o private" in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

from repro.exceptions import CommunityError

#: Reserved well-known community ASN part (RFC 1997).
WELL_KNOWN_ASN = 0xFFFF

#: Private-use 16-bit ASN range (RFC 6996).
PRIVATE_ASN_16_START = 64512
PRIVATE_ASN_16_END = 65534


class WellKnownCommunity(IntEnum):
    """Well-known community values standardised by the IETF."""

    #: RFC 7999 — request that traffic to the prefix be dropped.
    BLACKHOLE = (WELL_KNOWN_ASN << 16) | 666
    #: RFC 1997 — do not advertise outside the local AS / confederation.
    NO_EXPORT = 0xFFFFFF01
    #: RFC 1997 — do not advertise to any other BGP peer.
    NO_ADVERTISE = 0xFFFFFF02
    #: RFC 1997 — do not advertise outside the local confederation member AS.
    NO_EXPORT_SUBCONFED = 0xFFFFFF03
    #: RFC 3765 — do not propagate over bilateral peering links.
    NO_PEER = 0xFFFFFF04


#: Raw 32-bit values of the well-known communities, hoisted to module
#: level: classification runs on every export decision and every
#: observation, so the set must not be rebuilt per call.
WELL_KNOWN_RAW_VALUES = frozenset(int(c) for c in WellKnownCommunity)
_BLACKHOLE_RAW = int(WellKnownCommunity.BLACKHOLE)


def is_private_asn(asn: int) -> bool:
    """Return True if ``asn`` falls in the 16-bit private-use range (RFC 6996)."""
    return PRIVATE_ASN_16_START <= asn <= PRIVATE_ASN_16_END


@dataclass(frozen=True, order=True)
class Community:
    """A traditional 32-bit BGP community, interpreted as ``asn:value``."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFF:
            raise CommunityError(f"community ASN part {self.asn} out of 16-bit range")
        if not 0 <= self.value <= 0xFFFF:
            raise CommunityError(f"community value part {self.value} out of 16-bit range")

    @classmethod
    def from_string(cls, text: str) -> "Community":
        """Parse the ``ASN:value`` presentation format."""
        parts = text.strip().split(":")
        if len(parts) != 2:
            raise CommunityError(f"invalid community {text!r}: expected 'asn:value'")
        try:
            asn, value = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise CommunityError(f"invalid community {text!r}: non-numeric parts") from exc
        return cls(asn, value)

    @classmethod
    def from_int(cls, raw: int) -> "Community":
        """Build a community from its raw 32-bit wire value."""
        if not 0 <= raw <= 0xFFFFFFFF:
            raise CommunityError(f"community raw value {raw} out of 32-bit range")
        return cls(raw >> 16, raw & 0xFFFF)

    def to_int(self) -> int:
        """Return the raw 32-bit wire value."""
        return (self.asn << 16) | self.value

    @property
    def is_well_known(self) -> bool:
        """True if the community is one of the IETF well-known values."""
        return self.to_int() in WELL_KNOWN_RAW_VALUES

    @property
    def is_blackhole(self) -> bool:
        """True for the standardized RFC 7999 blackhole community (65535:666)."""
        return self.to_int() == _BLACKHOLE_RAW

    @property
    def has_blackhole_value(self) -> bool:
        """True if the value part is 666 (the conventional blackhole label)."""
        return self.value == 666

    @property
    def is_private_asn(self) -> bool:
        """True if the ASN part is in the RFC 6996 private range."""
        return is_private_asn(self.asn)

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"

    def __repr__(self) -> str:
        return f"Community({self.asn}:{self.value})"


#: Singletons for the well-known communities, in ``Community`` form.
BLACKHOLE = Community.from_int(int(WellKnownCommunity.BLACKHOLE))
NO_EXPORT = Community.from_int(int(WellKnownCommunity.NO_EXPORT))
NO_ADVERTISE = Community.from_int(int(WellKnownCommunity.NO_ADVERTISE))
NO_EXPORT_SUBCONFED = Community.from_int(int(WellKnownCommunity.NO_EXPORT_SUBCONFED))
NO_PEER = Community.from_int(int(WellKnownCommunity.NO_PEER))


class CommunitySet:
    """An ordered-on-output, duplicate-free set of traditional communities.

    Routers normalise communities by numerically sorting them when
    displaying and sending (Section 6.3 of the paper); this container
    mirrors that: iteration and wire encoding are always in sorted
    order regardless of insertion order.

    The set is immutable, so the sorted order is computed on the first
    iteration and kept; it is a cache only — equality, hashing, pickling
    and copying see the member frozenset alone.
    """

    __slots__ = ("_communities", "_sorted")

    def __init__(self, communities: Iterable[Community] = ()):
        self._communities: frozenset[Community] = frozenset(self._coerce(c) for c in communities)
        self._sorted: tuple[Community, ...] | None = None

    @classmethod
    def _of_members(cls, members: frozenset[Community]) -> "CommunitySet":
        """Wrap a frozenset whose members are already :class:`Community` objects."""
        wrapped = cls.__new__(cls)
        wrapped._communities = members
        wrapped._sorted = None
        return wrapped

    def __getstate__(self) -> tuple[None, dict[str, frozenset[Community]]]:
        # The cached order stays home: community sets ship to shard
        # workers inside pickled router configs.  Same shape as the
        # default state of a one-slot object, so the bytes did not move.
        return None, {"_communities": self._communities}

    def __setstate__(self, state: tuple[None, dict[str, frozenset[Community]]]) -> None:
        self._communities = state[1]["_communities"]
        self._sorted = None

    @staticmethod
    def _coerce(value: Community | str | int) -> Community:
        if isinstance(value, Community):
            return value
        if isinstance(value, str):
            return Community.from_string(value)
        if isinstance(value, int):
            return Community.from_int(value)
        raise CommunityError(f"cannot interpret {value!r} as a community")

    @classmethod
    def of(cls, *communities: Community | str | int) -> "CommunitySet":
        """Build a set from community objects, strings, or raw integers."""
        return cls(communities)

    def add(self, *communities: Community | str | int) -> "CommunitySet":
        """Return a new set with the given communities added."""
        return self._of_members(self._communities.union(map(self._coerce, communities)))

    def remove(self, *communities: Community | str | int) -> "CommunitySet":
        """Return a new set with the given communities removed (missing ones ignored)."""
        return self._of_members(self._communities.difference(map(self._coerce, communities)))

    def remove_asn(self, asn: int) -> "CommunitySet":
        """Return a new set without any community whose ASN part is ``asn``."""
        return self._of_members(frozenset(c for c in self._communities if c.asn != asn))

    def keep_asn(self, asn: int) -> "CommunitySet":
        """Return a new set with only communities whose ASN part is ``asn``."""
        return self._of_members(frozenset(c for c in self._communities if c.asn == asn))

    def filter(self, predicate) -> "CommunitySet":
        """Return a new set with only communities matching ``predicate``."""
        return self._of_members(frozenset(c for c in self._communities if predicate(c)))

    def union(self, other: "CommunitySet") -> "CommunitySet":
        """Return the union of two community sets."""
        return self._of_members(self._communities | other._communities)

    def asns(self) -> set[int]:
        """Return the distinct ASN parts present in the set."""
        return {c.asn for c in self._communities}

    def blackhole_communities(self) -> list[Community]:
        """Return communities that look like blackhole requests (value 666 or RFC 7999)."""
        return sorted(c for c in self._communities if c.is_blackhole or c.has_blackhole_value)

    def __contains__(self, value: Community | str | int) -> bool:
        return self._coerce(value) in self._communities

    def __iter__(self) -> Iterator[Community]:
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = tuple(sorted(self._communities))
        return iter(ordered)

    def __len__(self) -> int:
        return len(self._communities)

    def __bool__(self) -> bool:
        return bool(self._communities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunitySet):
            return NotImplemented
        return self._communities == other._communities

    def __hash__(self) -> int:
        return hash(self._communities)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self) + "}"

    def __repr__(self) -> str:
        return f"CommunitySet({str(self)})"


#: The empty community set.  Sets are immutable, so every route without
#: communities that a codec decodes or a collector records can share it.
NO_COMMUNITIES = CommunitySet()

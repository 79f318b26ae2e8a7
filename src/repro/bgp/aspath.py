"""AS_PATH attribute model: a flat sequence of ASNs.

The measurement pipeline needs exactly the AS-path operations the paper
describes: prepend removal ("We remove AS path prepending to not bias
the AS path"), hop distance between an AS and the path origin, and
membership tests for on-path/off-path community classification.  The
paper reads a path as a sequence of ASNs and nothing here builds an
AS_SET, so a path is an immutable tuple of ASNs (the
:class:`~repro.bgp.prefix.Prefix` idiom): hashed, compared and measured
in C.  The wire codec reads an AS_SET's members in wire order.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ASPathError

MAX_ASN = 0xFFFFFFFF


def collapse_prepending(asns: Iterable[int]) -> list[int]:
    """Return ``asns`` with consecutive duplicates (prepending) collapsed."""
    collapsed: list[int] = []
    for asn in asns:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return collapsed


def _check_asn(asn: int) -> None:
    if not 0 <= asn <= MAX_ASN:
        raise ASPathError(f"ASN {asn} out of 32-bit range")


class ASPath(tuple):
    """An AS path, ordered from the most recent AS to the origin AS.

    ``ASPath.of(5, 4, 3, 2, 1)`` models a route observed at (or just
    after) AS5 that originated at AS1 — the same left-to-right
    convention the paper uses ("AS path AS5 AS4 AS3 AS2 AS1").  Its
    ``len`` is the AS_PATH length best-path selection compares.
    """

    __slots__ = ()

    def __new__(cls, asns: Iterable[int]) -> "ASPath":
        asns = tuple(asns)
        for asn in asns:
            _check_asn(asn)
        return tuple.__new__(cls, asns)

    @classmethod
    def of(cls, *asns: int) -> "ASPath":
        """Build a path from ASNs (most recent first)."""
        return cls(int(a) for a in asns)

    def asns(self) -> list[int]:
        """Return every ASN on the path in order."""
        return list(self)

    def unique_asns(self) -> list[int]:
        """Return the ASNs with consecutive duplicates (prepending) collapsed."""
        return collapse_prepending(self)

    @property
    def origin_asn(self) -> int | None:
        """The origin AS (right-most ASN), or None for an empty path."""
        return self[-1] if self else None

    def contains(self, asn: int) -> bool:
        """Return True if ``asn`` appears anywhere on the path."""
        return asn in self

    def prepend(self, asn: int, count: int) -> "ASPath":
        """Return a path with ``asn`` prepended ``count`` times."""
        if count < 0:
            raise ASPathError(f"cannot prepend a negative count ({count})")
        if not count:
            return self
        _check_asn(asn)
        return tuple.__new__(ASPath, (asn,) * count + self)

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"


#: The empty path: an originated route's, and every UPDATE's read without an AS_PATH.
NO_PATH = ASPath(())

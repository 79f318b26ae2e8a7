"""AS_PATH attribute model.

The measurement pipeline needs exactly the AS-path operations the paper
describes: prepend removal ("We remove AS path prepending to not bias
the AS path"), hop distance between an AS and the path origin, and
membership tests for on-path/off-path community classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

from repro.exceptions import ASPathError

AS_TRANS = 23456
MAX_ASN = 0xFFFFFFFF


def collapse_prepending(asns: Iterable[int]) -> list[int]:
    """Return ``asns`` with consecutive duplicates (prepending) collapsed."""
    collapsed: list[int] = []
    for asn in asns:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return collapsed


class SegmentType(IntEnum):
    """AS_PATH segment types (RFC 4271)."""

    AS_SET = 1
    AS_SEQUENCE = 2


@dataclass(frozen=True)
class ASPathSegment:
    """One AS_PATH segment: an ordered sequence or an unordered set."""

    segment_type: SegmentType
    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        for asn in self.asns:
            if not 0 <= asn <= MAX_ASN:
                raise ASPathError(f"ASN {asn} out of 32-bit range")

    def __len__(self) -> int:
        return len(self.asns)


class ASPath:
    """An AS path, ordered from the most recent AS to the origin AS.

    ``ASPath.of(5, 4, 3, 2, 1)`` models a route observed at (or just
    after) AS5 that originated at AS1 — the same left-to-right
    convention the paper uses ("AS path AS5 AS4 AS3 AS2 AS1").
    """

    __slots__ = ("_segments", "_hash")

    def __init__(self, segments: Iterable[ASPathSegment] = ()):
        self._segments = tuple(segments)
        self._hash: int | None = None
        for segment in self._segments:
            if not isinstance(segment, ASPathSegment):
                raise ASPathError(f"expected ASPathSegment, got {type(segment).__name__}")

    @classmethod
    def of(cls, *asns: int) -> "ASPath":
        """Build a pure AS_SEQUENCE path from ASNs (most recent first)."""
        if not asns:
            return cls()
        return cls([ASPathSegment(SegmentType.AS_SEQUENCE, tuple(int(a) for a in asns))])

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse a space-separated AS path such as ``"3356 1299 13335"``.

        A brace-enclosed group (``{64500,64501}``) is parsed as an AS_SET.
        """
        segments: list[ASPathSegment] = []
        sequence: list[int] = []
        for token in text.split():
            if token.startswith("{") and token.endswith("}"):
                if sequence:
                    segments.append(ASPathSegment(SegmentType.AS_SEQUENCE, tuple(sequence)))
                    sequence = []
                members = tuple(int(t) for t in token[1:-1].split(",") if t)
                segments.append(ASPathSegment(SegmentType.AS_SET, members))
            else:
                try:
                    sequence.append(int(token))
                except ValueError as exc:
                    raise ASPathError(f"invalid AS path token {token!r}") from exc
        if sequence:
            segments.append(ASPathSegment(SegmentType.AS_SEQUENCE, tuple(sequence)))
        return cls(segments)

    @property
    def segments(self) -> tuple[ASPathSegment, ...]:
        """The underlying segments."""
        return self._segments

    def asns(self) -> list[int]:
        """Return every ASN on the path in order (sets flattened in place)."""
        result: list[int] = []
        for segment in self._segments:
            result.extend(segment.asns)
        return result

    def unique_asns(self) -> list[int]:
        """Return the ASNs with consecutive duplicates (prepending) collapsed."""
        return collapse_prepending(self.asns())

    @property
    def origin_asn(self) -> int | None:
        """The origin AS (right-most ASN), or None for an empty path."""
        flat = self.asns()
        return flat[-1] if flat else None

    def contains(self, asn: int) -> bool:
        """Return True if ``asn`` appears anywhere on the path."""
        for segment in self._segments:
            if asn in segment.asns:
                return True
        return False

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a path with ``asn`` prepended ``count`` times.

        The ASNs join the leading AS_SEQUENCE (a new one in front of a
        leading AS_SET); every other segment is kept as it is.
        """
        if count < 0:
            raise ASPathError(f"cannot prepend a negative count ({count})")
        if not count:
            return self
        head, rest = (asn,) * count, self._segments
        if rest and rest[0].segment_type == SegmentType.AS_SEQUENCE:
            head, rest = head + rest[0].asns, rest[1:]
        return ASPath((ASPathSegment(SegmentType.AS_SEQUENCE, head), *rest))

    def length(self) -> int:
        """Return the AS_PATH length used in best-path selection.

        AS_SET segments count as one hop regardless of size (RFC 4271).
        """
        total = 0
        for segment in self._segments:
            if segment.segment_type == SegmentType.AS_SEQUENCE:
                total += len(segment.asns)
            else:
                total += 1
        return total

    def __len__(self) -> int:
        return self.length()

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        # Paths key the export memoisation of the batch engine; the
        # (immutable) hash is computed once.
        if self._hash is None:
            self._hash = hash(self._segments)
        return self._hash

    def __str__(self) -> str:
        parts: list[str] = []
        for segment in self._segments:
            if segment.segment_type == SegmentType.AS_SEQUENCE:
                parts.extend(str(a) for a in segment.asns)
            else:
                parts.append("{" + ",".join(str(a) for a in segment.asns) + "}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ASPath({str(self)!r})"

"""BGP path attributes carried alongside an announcement.

:class:`PathAttributes` holds the three attributes the model reads:
AS_PATH (on-path or off-path, hop distance, prepending), LOCAL_PREF
(which blackhole and "customer backup" communities set) and COMMUNITIES.
These are the only typed attributes.  Nothing in the model sets ORIGIN,
NEXT_HOP, MED or ATOMIC_AGGREGATE, so a bundle does not carry them; the
wire codec (:mod:`repro.bgp.message`) writes ORIGIN and NEXT_HOP as
constants and checks, then skips, any other attribute it reads.
Instances are immutable; the policy engine produces modified copies via
:meth:`PathAttributes.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from repro.bgp.aspath import NO_PATH, ASPath
from repro.bgp.community import Community, CommunitySet
from repro.exceptions import AttributeError_

#: Default LOCAL_PREF applied when a neighbor does not set one (common vendor default).
DEFAULT_LOCAL_PREF = 100

#: Upper bound on communities a single Cisco configuration statement may add
#: (Section 6.1 of the paper).
CISCO_MAX_ADDED_COMMUNITIES = 32

#: Maximum number of communities a single UPDATE can carry: the attribute
#: length field is 16 bits and each community is 4 bytes (Section 6.1).
MAX_COMMUNITIES_PER_UPDATE = (1 << 16) // 4


@dataclass(frozen=True)
class PathAttributes:
    """The mutable-by-copy attribute bundle attached to an announcement."""

    as_path: ASPath = NO_PATH
    local_pref: int | None = None
    communities: CommunitySet = field(default_factory=CommunitySet)

    def __post_init__(self) -> None:
        if self.local_pref is not None and not 0 <= self.local_pref <= 0xFFFFFFFF:
            raise AttributeError_(f"LOCAL_PREF {self.local_pref} out of 32-bit range")
        if len(self.communities) > MAX_COMMUNITIES_PER_UPDATE:
            raise AttributeError_(
                f"{len(self.communities)} communities exceed the per-update maximum "
                f"of {MAX_COMMUNITIES_PER_UPDATE}"
            )

    def __hash__(self) -> int:
        # Attribute bundles key the batch engine's export memoisation;
        # the hash spans every field and is computed once per bundle.
        # Both caches are written into ``__dict__``, which the frozen
        # dataclass's ``__setattr__`` guard does not see.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.as_path, self.local_pref, self.communities))
            self.__dict__["_hash"] = cached
        return cached

    def decision_key(self) -> tuple:
        """The attribute part of the best-path sort key, cached like the hash.

        Higher LOCAL_PREF first, then the shorter AS path.
        """
        cached = self.__dict__.get("_decision_key")
        if cached is None:
            cached = (-self.effective_local_pref(), len(self.as_path))
            self.__dict__["_decision_key"] = cached
        return cached

    def replace(self, **changes) -> "PathAttributes":
        """Return a copy with the given fields replaced.

        Hand-rolled rather than :func:`dataclasses.replace`: every
        import strip and export rewrite copies the bundle, and the
        generic helper's field introspection dominates the copy.
        """
        for name in changes:
            if name not in _ATTRIBUTE_FIELDS:
                raise TypeError(f"PathAttributes.replace() got an unexpected field {name!r}")
        get = changes.get
        return PathAttributes(
            as_path=get("as_path", self.as_path),
            local_pref=get("local_pref", self.local_pref),
            communities=get("communities", self.communities),
        )

    def effective_local_pref(self) -> int:
        """Return LOCAL_PREF, substituting the conventional default of 100."""
        return self.local_pref if self.local_pref is not None else DEFAULT_LOCAL_PREF

    def with_communities_added(self, communities: Iterable[Community | str | int]) -> "PathAttributes":
        """Return a copy with communities added (additive semantics)."""
        return self.replace(communities=self.communities.add(*communities))


#: Field names :meth:`PathAttributes.replace` accepts, derived from the
#: dataclass so the hand-rolled copy keeps dataclasses.replace's
#: unknown-field TypeError contract.
_ATTRIBUTE_FIELDS = frozenset(f.name for f in fields(PathAttributes))

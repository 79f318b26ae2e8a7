"""Routing information bases: Adj-RIB-In and Loc-RIB.

The per-AS router in :mod:`repro.routing.router` keeps one
:class:`AdjRibIn` per neighbor and one :class:`LocRib` holding the
selected best routes.  Both are exact-match tables; longest-prefix
lookups happen in the data plane's FIBs (:mod:`repro.dataplane.fib`).
"""

from __future__ import annotations

from typing import Iterator

from repro.bgp.prefix import Prefix
from repro.bgp.route import RouteEntry


class AdjRibIn:
    """Routes received from a single neighbor, keyed by prefix."""

    def __init__(self, neighbor_asn: int):
        self.neighbor_asn = neighbor_asn
        self._routes: dict[Prefix, RouteEntry] = {}

    def update(self, entry: RouteEntry) -> None:
        """Insert or replace the route for the entry's prefix."""
        self._routes[entry.prefix] = entry

    def withdraw(self, prefix: Prefix) -> RouteEntry | None:
        """Remove and return the route for ``prefix`` (None if absent)."""
        return self._routes.pop(prefix, None)

    def get(self, prefix: Prefix) -> RouteEntry | None:
        """Return the route for ``prefix`` (None if absent)."""
        return self._routes.get(prefix)

    def prefixes(self) -> list[Prefix]:
        """Return all prefixes present."""
        return list(self._routes)

    def routes(self) -> list[RouteEntry]:
        """Return all routes present."""
        return list(self._routes.values())

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes


class LocRib:
    """The selected (best) routes of one AS, keyed by prefix.

    Candidate routes per prefix are retained so looking glasses can show
    alternatives; the best is the selected candidate object itself.
    """

    def __init__(self):
        self._candidates: dict[Prefix, list[RouteEntry]] = {}
        self._best: dict[Prefix, RouteEntry] = {}

    def set_candidates(self, prefix: Prefix, entries: list[RouteEntry]) -> None:
        """Replace the candidate list for ``prefix``; the Loc-RIB keeps ``entries`` itself."""
        if entries:
            self._candidates[prefix] = entries
        else:
            self._candidates.pop(prefix, None)

    def set_best(self, prefix: Prefix, entry: RouteEntry | None) -> None:
        """Set (or clear, with None) the best route for ``prefix``."""
        if entry is None:
            self._best.pop(prefix, None)
        else:
            self._best[prefix] = entry

    def best(self, prefix: Prefix) -> RouteEntry | None:
        """Return the best route for exactly ``prefix`` (no longest-prefix match)."""
        return self._best.get(prefix)

    def candidates(self, prefix: Prefix) -> list[RouteEntry]:
        """Return all candidate routes for ``prefix``."""
        return list(self._candidates.get(prefix, ()))

    def best_routes(self) -> list[RouteEntry]:
        """Return the best route of every prefix."""
        return list(self._best.values())

    def prefixes(self) -> list[Prefix]:
        """Return every prefix that has a best route."""
        return list(self._best)

    def remove(self, prefix: Prefix) -> None:
        """Drop the prefix from both candidates and best."""
        self._candidates.pop(prefix, None)
        self._best.pop(prefix, None)

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._best.values())

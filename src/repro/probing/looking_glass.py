"""Public looking glasses: read-only views into another AS's routing table.

The wild experiments validate every control-plane effect through looking
glasses ("we verified that the path prepending community was present at
the target", "the next-hop address for the prefix changed to a null
interface").  A :class:`LookingGlass` exposes the same queries over a
simulated router.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.prefix import Prefix
from repro.exceptions import ProbingError
from repro.routing.engine import BgpSimulator


@dataclass(frozen=True)
class LookingGlassEntry:
    """What a looking glass shows for one prefix."""

    prefix: Prefix
    as_path: tuple[int, ...]
    communities: tuple[str, ...]
    local_pref: int
    next_hop: str
    learned_from: int
    blackholed: bool


class LookingGlass:
    """A read-only view into one AS's best routes."""

    def __init__(self, simulator: BgpSimulator, asn: int):
        if asn not in simulator.routers:
            raise ProbingError(f"AS{asn} does not exist; cannot host a looking glass")
        self.simulator = simulator
        self.asn = asn

    def show_route(self, prefix: Prefix) -> LookingGlassEntry | None:
        """Return the best route for exactly ``prefix`` (None if absent)."""
        best = self.simulator.best_route(self.asn, prefix)
        if best is None:
            return None
        return LookingGlassEntry(
            prefix=prefix,
            as_path=tuple(best.attributes.as_path.asns()),
            communities=tuple(str(c) for c in best.attributes.communities),
            local_pref=best.attributes.effective_local_pref(),
            next_hop="null0" if best.blackholed else f"AS{best.learned_from}",
            learned_from=best.learned_from,
            blackholed=best.blackholed,
        )

    def show_candidates(self, prefix: Prefix) -> list[LookingGlassEntry]:
        """Return every candidate route the AS holds for ``prefix``."""
        router = self.simulator.router(self.asn)
        entries = []
        for candidate in router.loc_rib.candidates(prefix):
            entries.append(
                LookingGlassEntry(
                    prefix=prefix,
                    as_path=tuple(candidate.attributes.as_path.asns()),
                    communities=tuple(str(c) for c in candidate.attributes.communities),
                    local_pref=candidate.attributes.effective_local_pref(),
                    next_hop="null0" if candidate.blackholed else f"AS{candidate.learned_from}",
                    learned_from=candidate.learned_from,
                    blackholed=candidate.blackholed,
                )
            )
        return entries

    def route_exists(self, prefix: Prefix) -> bool:
        """True if the AS has any best route for ``prefix``."""
        return self.show_route(prefix) is not None
